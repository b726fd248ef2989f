import mpmath
import numpy as np
import pytest

import finiterank as fr
from finiterank import cutoff, mollify
from finiterank.cutoff import (_AxisProfile, _UnionCutoff, apply_cutoff, build_cutoff,
                               cutoff_constant, measure_cbeta, multiply_cutoff)
from finiterank.errors import GeometryError, OrderError
from finiterank.expressions import expr_function_from_strings
from finiterank.funcmodel import SampledFunction, multiindices, sf_from_expr_function, sf_zero
from finiterank.geometry import Region
from finiterank.mollify import build_mollifier
from finiterank.seminorms import difference_seminorm
from finiterank.weights import WeightIndex
from oracles import bump_function, fd_derivative_oracle
import expected


@pytest.fixture(scope="module")
def unit_cut():
    K = fr.Region.box([-1.0], [1.0], 1201)
    return build_cutoff(K, 1.0)


@pytest.fixture(scope="module")
def unit_table(unit_cut):
    return measure_cbeta(unit_cut, 1.0, 4)


@pytest.fixture(scope="session")
def quad():
    return fr.QuadratureSpec(points_per_axis=64, refinement_levels=2, tol=1e-6)


def test_construction_radii(unit_cut):
    psi = unit_cut
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
    vals = prof.kernel(0, nodes.ravel()).reshape(nodes.shape)
    out[live] = np.sum(vals * prof._gl_w, axis=1) * length[live] / prof.mass
    full = (t - prof.b <= -prof.r) & (t - prof.a >= prof.r)
    out[full] = 1.0
    return out


def test_profile_plateau_skips_quadrature(rng, monkeypatch):
    prof = _AxisProfile(-1.0, 1.0, 1.0, 4)   # window [-1.5, 1.5], r = 1/4
    assert (prof.a, prof.b, prof.r) == (-1.5, 1.5, 0.25)
    left = rng.uniform(-1.75, -1.25, 7)
    right = rng.uniform(1.25, 1.75, 10)
    plateau = np.concatenate([rng.uniform(-1.25, 1.25, 5), [-1.25, 1.25]])
    outside = np.array([-3.0, -1.75, 1.75, 3.0])    # +-1.75: zero-length window
    t = rng.permutation(np.concatenate([left, right, plateau, outside]))
    expected_vals = _full_window_profile(prof, t)

    seen = _count_kernel_points(monkeypatch)
    vals = prof.deriv(0, t)
    assert np.array_equal(vals, expected_vals)
    assert seen == [128 * 17]
    assert np.all(vals[np.isin(t, plateau)] == 1.0)
    assert np.all(vals[np.isin(t, outside)] == 0.0)


def test_profile_value_depends_on_the_point_only(rng):
    # every batch goes to a fresh profile, so the check holds whatever a
    # profile might keep between calls
    t = rng.uniform(-1.8, 1.8, 2000)
    whole = _AxisProfile(-1.0, 1.0, 1.0, 4).deriv(0, t)
    for idx in (rng.choice(len(t), 333, replace=False), np.arange(1, len(t), 7),
                np.arange(0, len(t), 2)):
        assert np.array_equal(_AxisProfile(-1.0, 1.0, 1.0, 4).deriv(0, t[idx]),
                              whole[idx])
    for i in rng.choice(len(t), 40, replace=False):
        assert _AxisProfile(-1.0, 1.0, 1.0, 4).deriv(0, t[i:i + 1])[0] == whole[i]


def _profile(lo=-1.0, hi=1.0):
    return _AxisProfile(lo, hi, 1.0, 4)   # r = 1/4


def _count_kernel_points(monkeypatch):
    """A list that grows by the point count of every unit-bump call."""
    seen = []
    bump = mollify.bump_profile

    def counted(points, beta=None):
        seen.append(len(points))
        return bump(points, beta)

    monkeypatch.setattr(mollify, "bump_profile", counted)
    return seen


def test_profile_quadrature_once_per_new_distinct_point(rng, monkeypatch):
    # a profile keeps nothing between calls: after a call on old, a call on
    # old and new runs the quadrature once per distinct point of its own, in
    # blocks of 128 rows
    prof = _profile()
    old = rng.uniform(1.25, 1.75, 150)           # right ramp
    new = rng.uniform(-1.75, -1.25, 150)         # left ramp
    prof.deriv(0, old)
    seen = _count_kernel_points(monkeypatch)
    t = rng.permutation(np.concatenate([old, new, new[:40], old[:30], new[:5]]))
    vals = prof.deriv(0, t)
    assert seen == [128 * 128, 128 * 128, 128 * 44]
    assert np.array_equal(vals, _full_window_profile(prof, t))


def test_union_quadrature_once_per_distinct_coordinate_per_call(monkeypatch):
    # on a tensor grid each coordinate repeats along the other axis; every
    # axis profile of both boxes runs the quadrature once per distinct ramp
    # coordinate of a call, and the next call runs the same count again
    delta = 0.5
    K = fr.Region.from_bounds([[-1.0, -1.0], [0.5, 0.25]], [[0.0, 0.0], [1.0, 1.0]], 41)
    psi = build_cutoff(K, delta)
    r = 1.0 / np.ceil(4.0 / delta)
    xs = np.linspace(-2.0, 2.0, 81)
    pts = np.stack([a.ravel() for a in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    ramps = sum(np.count_nonzero((np.abs(xs - (lo - 0.5 * delta)) < r)
                                 | (np.abs(xs - (hi + 0.5 * delta)) < r))
                for box in K.boxes for lo, hi in zip(box.lo, box.hi))
    seen = _count_kernel_points(monkeypatch)
    first = psi.eval(pts)
    assert ramps > 0 and sum(seen) == 128 * ramps
    seen.clear()
    assert np.array_equal(psi.eval(pts), first)
    assert sum(seen) == 128 * ramps


def test_profiles_read_their_own_windows(rng):
    t = rng.uniform(1.25, 1.65, 200)             # on the right ramp of both
    shifted = _profile(hi=1.1)
    values = _profile().deriv(0, t)
    assert not np.array_equal(shifted.deriv(0, t), values)
    assert np.array_equal(shifted.deriv(0, t), _profile(hi=1.1).deriv(0, t))
    assert np.array_equal(shifted.deriv(0, t), _full_window_profile(shifted, t))


def test_window_rule_built_once_per_process(monkeypatch):
    calls = []
    gauss_legendre = cutoff._gauss_legendre

    def counted(n):
        calls.append(n)
        return gauss_legendre(n)

    monkeypatch.setattr(cutoff, "_gauss_legendre", counted)
    cutoff._window_rule.cache_clear()
    profiles = [_profile(lo, 1.0) for lo in (-1.0, -0.5, 0.0)]
    K = fr.Region.from_bounds([[-1.0, -1.0], [0.5, 0.5]], [[0.0, 0.0], [1.0, 1.0]], 41)
    build_cutoff(K, 0.5).eval(np.zeros((3, 2)))
    assert calls == [128]
    assert all(p._gl_u is profiles[0]._gl_u for p in profiles)


def test_window_rule_is_gauss_legendre():
    # the rule is built without LAPACK; it is numpy's leggauss(128) mapped to
    # [0, 1], and it integrates polynomials of degree up to 60 to rounding
    u, w = cutoff._window_rule()
    ref_u, ref_w = np.polynomial.legendre.leggauss(128)
    assert np.max(np.abs(u - 0.5 * (ref_u + 1.0))) <= 1e-15
    assert np.max(np.abs(w / (0.5 * ref_w) - 1.0)) <= 1e-10
    assert abs(np.sum(w) - 1.0) <= 1e-15
    for k in range(61):
        assert abs(np.dot(w, u**k) * (k + 1) - 1.0) <= 1e-14


@pytest.mark.parametrize("delta", [1.0, 0.25, 1.0 / 150])
def test_ramps_match_an_independent_integral(delta):
    # on a ramp psi is the unit bump's integral over the overlap window divided
    # by its whole integral; mpmath computes both at 30 digits
    psi = build_cutoff(fr.Region.box([-1.0], [1.0], 201), delta)
    n = int(np.ceil(4.0 / delta))
    a, b, r = -1.0 - 0.5 * delta, 1.0 + 0.5 * delta, 1.0 / n
    s = np.linspace(-1.0, 1.0, 12)[1:-1]
    left, right = a + r * s, b + r * s
    vals = psi.eval(np.concatenate([left, right])[:, None])[:, 0]

    def bump(v):
        return mpmath.exp(-1 / (1 - v * v))

    with mpmath.workdps(30):
        mass = mpmath.quad(bump, [-1, 1])
        want = ([mpmath.quad(bump, [-1, n * (mpmath.mpf(t) - mpmath.mpf(a))]) / mass
                 for t in left]
                + [mpmath.quad(bump, [n * (mpmath.mpf(t) - mpmath.mpf(b)), 1]) / mass
                   for t in right])
    assert np.all((vals > 0.0) & (vals < 1.0))
    assert np.max(np.abs(vals - np.array(want, dtype=float))) <= 1e-13


def test_range_and_derivative_c0(unit_cut, unit_table):
    X = np.linspace(-3, 3, 601)[:, None]
    vals = unit_cut.eval(X)[:, 0]
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert unit_table[(0,)] == pytest.approx(1.0)


def test_c1_pinned_from_dense_oracle(unit_cut, unit_table):
    assert unit_table[(1,)] == pytest.approx(expected.CUTOFF_C1_DELTA1, rel=1e-5)
    dense_grid = unit_cut.support.with_resolution(8001).grid_points()
    dense = measure_cbeta(unit_cut, 1.0, 2, extra_points=dense_grid)
    assert dense[(1,)] == pytest.approx(expected.CUTOFF_C1_DELTA1, rel=1e-12)
    assert dense[(2,)] == pytest.approx(expected.CUTOFF_C2_DELTA1, rel=1e-12)


def test_remeasure_reproduces_table(unit_cut, unit_table):
    again = measure_cbeta(unit_cut, 1.0, 4)
    for beta, val in unit_table.items():
        assert again[beta] == val


def test_build_cutoff_measures_nothing(monkeypatch):
    calls = []
    deriv = _UnionCutoff.deriv

    def counted(union, beta, pts):
        calls.append(len(pts))
        return deriv(union, beta, pts)

    monkeypatch.setattr(_UnionCutoff, "deriv", counted)
    # two boxes in 2D, so psi is the smooth union the exp_strips_2d runs build
    K = fr.Region.from_bounds([[-1.0, -1.0], [0.5, 0.5]], [[0.0, 0.0], [1.0, 1.0]], 41)
    psi = build_cutoff(K, 0.5)
    assert calls == []
    psi.eval(np.zeros((3, 2)))
    assert calls == [3]


def test_cutoff_constant_formula(unit_table):
    assert cutoff_constant(unit_table, 1.0, 0) == pytest.approx(1.0)
    c0 = unit_table[(0,)]
    c1 = unit_table[(1,)]
    assert cutoff_constant(unit_table, 1.0, 1) == pytest.approx(max(c0, c1 / 1.0 + c0))
    with pytest.raises(OrderError):
        cutoff_constant(unit_table, 1.0, 5)


def test_constant_shrinks_with_delta():
    K = fr.Region.box([-1.0], [1.0], 1201)
    small = measure_cbeta(build_cutoff(K, 1.0), 1.0, 2)
    big = measure_cbeta(build_cutoff(K, 2.0), 2.0, 2)
    assert cutoff_constant(big, 2.0, 1) <= cutoff_constant(small, 1.0, 1) + 1e-9
    assert big[(1,)] <= small[(1,)] * (1 + 1e-4)


def test_geometry_error_when_leaving_domain():
    K = fr.Region.box([-1.0], [1.0], 101)
    omega = fr.Region.box([-1.2], [1.2], 101)
    with pytest.raises(GeometryError):
        build_cutoff(K, 1.0, omega=omega)


def test_product_derivatives_match_fd(unit_cut, domain_1d, gauss_1d, rng):
    ft = multiply_cutoff(unit_cut, gauss_1d)
    for _ in range(12):
        x = float(rng.uniform(-1.6, 1.6))
        beta = (int(rng.integers(1, 3)),)
        analytic = ft.deriv(beta, np.array([[x]]))[0, 0]
        fd = fd_derivative_oracle(ft, beta, [x], 1e-4)[0]
        assert analytic == pytest.approx(fd, abs=max(1e-4 * max(abs(fd), 1e-3), 1e-8))


def test_product_refuses_an_order_above_a_factor(unit_cut, domain_1d):
    # f declared C^1: the product stops at order 1, though psi goes on
    f = sf_from_expr_function(expr_function_from_strings(["exp(-x^2)"], 1),
                              domain_1d, order=1)
    ft = multiply_cutoff(unit_cut, f)
    assert ft.order == 1
    x = np.array([[0.3]])
    assert ft.deriv((1,), x) == pytest.approx(-0.6 * np.exp(-0.09), rel=1e-12)
    with pytest.raises(OrderError, match="product-rule order"):
        ft.deriv((2,), x)


def test_apply_cutoff_bound_randomized(domain_1d, schwartz_fam, sup_alpha, rng):
    # five randomized rapidly-decreasing functions, l <= 2
    for trial in range(5):
        a, b = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        c = rng.uniform(-1.0, 1.0)
        fn = expr_function_from_strings(
            [f"{a} * exp(-{b} * x^2)", f"{c} * x * exp(-{b} * x^2)"], 1)
        f = sf_from_expr_function(fn, domain_1d, order=6)
        l = int(rng.integers(0, 3))
        idx = WeightIndex(1, l)
        ft, rep = apply_cutoff(f, schwartz_fam, idx, sup_alpha, 0.05, 1.0)
        measured = difference_seminorm(f, ft, schwartz_fam, idx, sup_alpha)
        bound = (1 + cutoff_constant_from_report(rep)) * rep.tail.value
        assert measured.value <= bound + 1e-10
        assert measured.value == rep.measured.value


def cutoff_constant_from_report(rep):
    return rep.C_l_delta


def test_apply_cutoff_identity_on_compact(domain_1d, schwartz_fam, sup_alpha, quad):
    # bump fixture: once K + delta/4 swallows the support, psi f == f
    moll = build_mollifier(1, 1, quad)
    f = bump_function(moll)
    f = SampledFunction(domain=domain_1d, order=4, value_dim=1,
                        evaluator=f.evaluator, derivative=f.derivative,
                        support=Region.box([-1.0], [1.0], 1201), name="bump")
    ft, rep = apply_cutoff(f, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 1.0)
    pts = domain_1d.grid_points()
    diff = np.max(np.abs(f.eval_extended(pts) - ft.eval_extended(pts)))
    assert diff <= 1e-12
    assert rep.measured.value <= 1e-12


def test_apply_cutoff_zero(domain_1d, schwartz_fam, sup_alpha):
    z = sf_zero(domain_1d, 2)
    ft, rep = apply_cutoff(z, schwartz_fam, WeightIndex(1, 1), sup_alpha, 1e-2, 1.0)
    pts = domain_1d.grid_points()
    assert np.all(ft.eval_extended(pts) == 0.0)
    assert rep.measured.value == 0.0


@pytest.mark.parametrize("l", [0, 1, 2])
def test_apply_cutoff_measures_table_to_l(l, domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    _, rep = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, l), sup_alpha, 0.05, 1.0)
    assert list(rep.Cbeta_table) == multiindices(1, l)
    # the same cut-off measured to order 4 gives the same constant, bit for bit
    dom_pts = domain_1d.grid_points()
    near = rep.K.inflate(1.0).contains(dom_pts)
    psi = build_cutoff(rep.K, 1.0, omega=domain_1d)
    deep = measure_cbeta(psi, 1.0, 4, extra_points=dom_pts[near])
    assert list(deep) == multiindices(1, 4)
    assert cutoff_constant(deep, 1.0, l) == rep.C_l_delta
