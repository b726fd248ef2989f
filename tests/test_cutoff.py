import numpy as np
import pytest

import finiterank as fr
from finiterank.cutoff import (_AxisProfile, apply_cutoff, build_cutoff,
                               cutoff_constant, multiply_cutoff)
from finiterank.errors import GeometryError, OrderError
from finiterank.expressions import expr_function_from_strings
from finiterank.funcmodel import (SampledFunction, fd_derivative_oracle,
                                  multiindices, sf_from_expr_function, sf_zero)
from finiterank.geometry import Region
from finiterank.mollify import build_mollifier
from finiterank.seminorms import difference_seminorm
from finiterank.weights import WeightIndex
import expected


@pytest.fixture(scope="module")
def unit_cut(quad):
    K = fr.Region.box([-1.0], [1.0], 1201)
    return build_cutoff(K, 1.0, 4, quad)


@pytest.fixture(scope="session")
def quad():
    return fr.QuadratureSpec(points_per_axis=64, refinement_levels=2, tol=1e-6)


def test_construction_radii(unit_cut):
    psi = unit_cut.psi
    X = np.array([[-1.0], [0.0], [1.0], [1.24], [1.76], [2.5]])
    vals = psi.eval(X)[:, 0]
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert vals[3] == 1.0              # plateau extends to K + delta/4
    assert vals[4] == 0.0 and vals[5] == 0.0   # support ends at K + 3 delta/4
    ramp = psi.eval(np.array([[1.4]]))[0, 0]
    assert 0.0 < ramp < 1.0


def _full_window_profile(prof, t):
    """The profile with the window quadrature at every live point, the plateau
    included and then overwritten with 1."""
    lo = np.maximum(-prof.r, t - prof.b)
    hi = np.minimum(prof.r, t - prof.a)
    length = hi - lo
    live = length > 0
    out = np.zeros(len(t))
    nodes = lo[live][:, None] + prof._gl_u[None, :] * length[live][:, None]
    vals = prof.moll.deriv((0,), nodes.reshape(-1, 1)).reshape(nodes.shape)
    out[live] = np.sum(vals * prof._gl_w, axis=1) * length[live] / prof.mass
    full = (t - prof.b <= -prof.r) & (t - prof.a >= prof.r)
    out[full] = 1.0
    return out


def test_profile_plateau_skips_quadrature(rng, monkeypatch):
    moll = build_mollifier(1, 4, fr.QuadratureSpec(points_per_axis=64,
                                                   refinement_levels=2))
    prof = _AxisProfile(-1.0, 1.0, 1.0, moll, 128)   # window [-1.5, 1.5], r = 1/4
    assert (prof.a, prof.b, prof.r) == (-1.5, 1.5, 0.25)
    left = rng.uniform(-1.75, -1.25, 7)
    right = rng.uniform(1.25, 1.75, 10)
    plateau = np.concatenate([rng.uniform(-1.25, 1.25, 5), [-1.25, 1.25]])
    outside = np.array([-3.0, -1.75, 1.75, 3.0])    # +-1.75: zero-length window
    t = rng.permutation(np.concatenate([left, right, plateau, outside]))
    expected_vals = _full_window_profile(prof, t)

    seen = []
    kernel = prof.moll.deriv

    def counted(beta, points):
        seen.append(len(points))
        return kernel(beta, points)

    monkeypatch.setattr(prof.moll, "deriv", counted)
    vals = prof.deriv(0, t)
    assert np.array_equal(vals, expected_vals)
    assert seen == [128 * 17]
    assert np.all(vals[np.isin(t, plateau)] == 1.0)
    assert np.all(vals[np.isin(t, outside)] == 0.0)


def test_profile_value_depends_on_the_point_only(rng):
    moll = build_mollifier(1, 4, fr.QuadratureSpec(points_per_axis=64,
                                                   refinement_levels=2))
    prof = _AxisProfile(-1.0, 1.0, 1.0, moll, 128)
    t = rng.uniform(-1.8, 1.8, 2000)
    whole = prof.deriv(0, t)
    for idx in (rng.choice(len(t), 333, replace=False), np.arange(1, len(t), 7),
                np.arange(0, len(t), 2)):
        assert np.array_equal(prof.deriv(0, t[idx]), whole[idx])
    for i in rng.choice(len(t), 40, replace=False):
        assert prof.deriv(0, t[i:i + 1])[0] == whole[i]


def test_range_and_derivative_c0(unit_cut):
    X = np.linspace(-3, 3, 601)[:, None]
    vals = unit_cut.psi.eval(X)[:, 0]
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert unit_cut.Cbeta_table[(0,)] == pytest.approx(1.0)


def test_c1_pinned_from_dense_oracle(unit_cut, quad):
    assert unit_cut.Cbeta_table[(1,)] == pytest.approx(expected.CUTOFF_C1_DELTA1,
                                                       rel=1e-5)
    K = fr.Region.box([-1.0], [1.0], 1201)
    dense = build_cutoff(K, 1.0, 4, quad, measure_points_per_axis=8001)
    assert dense.Cbeta_table[(1,)] == pytest.approx(expected.CUTOFF_C1_DELTA1,
                                                    rel=1e-12)
    assert dense.Cbeta_table[(2,)] == pytest.approx(expected.CUTOFF_C2_DELTA1,
                                                    rel=1e-12)


def test_remeasure_reproduces_table(unit_cut):
    again = unit_cut.measure_cbeta()
    for beta, val in unit_cut.Cbeta_table.items():
        assert again[beta] == val


def test_cutoff_constant_formula(unit_cut):
    assert cutoff_constant(unit_cut, 0) == pytest.approx(1.0)
    c0 = unit_cut.Cbeta_table[(0,)]
    c1 = unit_cut.Cbeta_table[(1,)]
    assert cutoff_constant(unit_cut, 1) == pytest.approx(max(c0, c1 / 1.0 + c0))
    with pytest.raises(OrderError):
        cutoff_constant(unit_cut, 5)


def test_constant_shrinks_with_delta(quad):
    K = fr.Region.box([-1.0], [1.0], 1201)
    small = build_cutoff(K, 1.0, 2, quad)
    big = build_cutoff(K, 2.0, 2, quad)
    assert cutoff_constant(big, 1) <= cutoff_constant(small, 1) + 1e-9
    assert big.Cbeta_table[(1,)] <= small.Cbeta_table[(1,)] * (1 + 1e-4)


def test_geometry_error_when_leaving_domain(quad):
    K = fr.Region.box([-1.0], [1.0], 101)
    omega = fr.Region.box([-1.2], [1.2], 101)
    with pytest.raises(GeometryError):
        build_cutoff(K, 1.0, 2, quad, omega=omega)


def test_product_derivatives_match_fd(unit_cut, domain_1d, gauss_1d, rng):
    ft = multiply_cutoff(unit_cut, gauss_1d)
    for _ in range(12):
        x = float(rng.uniform(-1.6, 1.6))
        beta = (int(rng.integers(1, 3)),)
        analytic = ft.deriv(beta, np.array([[x]]))[0, 0]
        fd = fd_derivative_oracle(ft, beta, [x], 1e-4)[0]
        assert analytic == pytest.approx(fd, abs=max(1e-4 * max(abs(fd), 1e-3), 1e-8))


def test_apply_cutoff_bound_randomized(domain_1d, schwartz_fam, sup_alpha, quad, rng):
    # five randomized rapidly-decreasing functions, l <= 2
    for trial in range(5):
        a, b = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        c = rng.uniform(-1.0, 1.0)
        fn = expr_function_from_strings(
            [f"{a} * exp(-{b} * x^2)", f"{c} * x * exp(-{b} * x^2)"], 1)
        f = sf_from_expr_function(fn, domain_1d, order=6)
        l = int(rng.integers(0, 3))
        idx = WeightIndex(1, l)
        ft, rep = apply_cutoff(f, schwartz_fam, idx, sup_alpha, 0.05, 1.0,
                               domain_1d, quad)
        measured = difference_seminorm(f, ft, schwartz_fam, idx, sup_alpha)
        bound = (1 + cutoff_constant_from_report(rep)) * rep.tail.value
        assert measured.value <= bound + 1e-10
        assert measured.value == rep.measured.value


def cutoff_constant_from_report(rep):
    return rep.C_l_delta


def test_apply_cutoff_identity_on_compact(domain_1d, schwartz_fam, sup_alpha, quad):
    # bump fixture: once K + delta/4 swallows the support, psi f == f
    moll = build_mollifier(1, 1, quad)
    f = moll.as_sampled()
    f.domain = domain_1d
    f = SampledFunction(domain=domain_1d, order=4, value_dim=1,
                        evaluator=f.evaluator, derivative=f.derivative,
                        support=Region.box([-1.0], [1.0], 1201), name="bump")
    ft, rep = apply_cutoff(f, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                           1e-3, 1.0, domain_1d, quad)
    pts = domain_1d.grid_points()
    diff = np.max(np.abs(f.eval_extended(pts) - ft.eval_extended(pts)))
    assert diff <= 1e-12
    assert rep.measured.value <= 1e-12


def test_apply_cutoff_zero(domain_1d, schwartz_fam, sup_alpha, quad):
    z = sf_zero(domain_1d, 2)
    ft, rep = apply_cutoff(z, schwartz_fam, WeightIndex(1, 1), sup_alpha,
                           1e-2, 1.0, domain_1d, quad)
    pts = domain_1d.grid_points()
    assert np.all(ft.eval_extended(pts) == 0.0)
    assert rep.measured.value == 0.0


def test_report_serializes(domain_1d, schwartz_fam, sup_alpha, quad, gauss_1d):
    _, rep = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 1), sup_alpha,
                          0.05, 1.0, domain_1d, quad)
    record = rep.to_json_dict()
    for key in ("delta", "K_boxes", "C_beta", "C_l_delta", "tail",
                "measured_error", "bound"):
        assert key in record


@pytest.mark.parametrize("l", [0, 1, 2])
def test_apply_cutoff_measures_table_to_l(l, domain_1d, schwartz_fam, sup_alpha, quad,
                                          gauss_1d):
    _, rep = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, l), sup_alpha,
                          0.05, 1.0, domain_1d, quad)
    assert list(rep.Cbeta_table) == multiindices(1, l)
    # the same cut-off measured to order 4 gives the same constant, bit for bit
    dom_pts = domain_1d.grid_points()
    near = rep.K.inflate(rep.delta).contains(dom_pts)
    deep = build_cutoff(rep.K, rep.delta, 4, quad, omega=domain_1d,
                        extra_measure_points=dom_pts[near])
    assert list(deep.Cbeta_table) == multiindices(1, 4)
    assert cutoff_constant(deep, l) == rep.C_l_delta
