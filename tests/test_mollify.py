import itertools
from dataclasses import replace

import numpy as np
import pytest

import finiterank as fr
from finiterank.errors import ConvergenceError, QuadratureError
from finiterank.expressions import builtin_function, expr_function_from_strings
from finiterank.funcmodel import (SampledFunction, multiindices, sf_from_expr_function,
                                  sf_zero)
from finiterank.geometry import Region
from finiterank.scenarios import load_scenario
from finiterank.mollify import (QuadratureSpec, build_mollifier, convolve,
                                find_regularization_order, regularize)
from finiterank.seminorms import difference_seminorm, weighted_seminorm
from finiterank.weights import WeightIndex
from finiterank.cutoff import apply_cutoff, build_cutoff, multiply_cutoff
from finiterank import mollify
from oracles import (adaptive_simpson, bump_function, bump_profile_masked, commutativity_check,
                     convolve_midpoint, convolve_per_node, derivative_transfer_check,
                     lattice_coefficients, support_estimate, sympy_bump)
from test_expressions import _run_script
import expected


def bump_1d(x):
    return np.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1 else 0.0


def test_normalization_matches_adaptive_simpson(quad):
    oracle = adaptive_simpson(bump_1d, -1.0, 1.0, tol=1e-9)
    assert oracle == pytest.approx(expected.BUMP_MASS_1D, abs=expected.BUMP_MASS_1D_TOL)
    moll = build_mollifier(1, 1, quad)
    assert 1.0 / moll.normC == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("d", [1, 2])
def test_bump_matches_sympy_oracle(d):
    # every |beta| <= SMOOTH_ORDER within 1e-13 of the derivative's sup; the
    # values themselves, which fix the mollifier's mass, bit for bit
    grid = Region.box([-1.0] * d, [1.0] * d, 2401 if d == 1 else 121).grid_points()
    for beta in multiindices(d, mollify.SMOOTH_ORDER):
        got, want = mollify.bump_profile(grid, beta), sympy_bump(grid, beta)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if sum(beta) == 0:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bump_profile_matches_the_masked_formula(d, rng):
    # the in-place batch against the gathered points, bit for bit and sign of
    # zero for sign of zero, at random points, at signed zeros, one ulp of |u|
    # either side of the rim |u|^2 = 1 - 1e-8, at 1 and beyond. No
    # division, overflow or invalid operation may fire; exp(-s) underflows to
    # 0 just inside the rim, in the masked formula too
    rim = np.sqrt(1.0 - mollify._FLAT_CUTOFF)
    radii = np.array([np.nextafter(rim, 0.0), rim, np.nextafter(rim, 2.0)])
    axes = np.zeros((3 * d, d))
    axes[np.arange(3 * d), np.repeat(np.arange(d), 3)] = np.tile(radii, d)
    direction = rng.normal(size=(50, d))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    signed = np.array(list(itertools.product([0.0, -0.0, 0.5, -0.5], repeat=d)))
    pts = np.concatenate([
        rng.uniform(-1.2, 1.2, (500, d)), signed, axes, -axes,
        direction * rng.choice(radii, (50, 1)),
        direction * np.array([[1.0], [1.5], [7.0], [1.0 + 1e-12], [1.0 - 1e-12]] * 10)])
    t = np.sum(pts * pts, axis=1)
    near = np.abs(t - (1.0 - mollify._FLAT_CUTOFF)) <= np.spacing(1.0)
    assert np.any(near & (t < 1.0 - mollify._FLAT_CUTOFF))
    assert np.any(near & (t >= 1.0 - mollify._FLAT_CUTOFF))
    for beta in multiindices(d, 4):
        want = bump_profile_masked(pts, beta)
        with np.errstate(all="raise", under="ignore"):
            got = mollify.bump_profile(pts, beta)
        assert np.array_equal(got, want), beta
        assert np.array_equal(np.signbit(got), np.signbit(want)), beta


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_mass_unit(d, n, quad):
    q = quad if d == 1 else QuadratureSpec(points_per_axis=16, refinement_levels=1,
                                           tol=1e-5)
    moll = build_mollifier(d, n, q)
    assert abs(moll.mass_check - 1.0) < q.tol


def test_mollifier_sums_do_not_depend_on_blas_threads():
    # a BLAS dot over the 2D midpoint nodes is split across threads, and
    # each split adds the nodes in another order; the quadrature sums must
    # give the same bits whatever the thread count
    script = """
from finiterank.mollify import QuadratureSpec, build_mollifier
m = build_mollifier(2, 4, QuadratureSpec())
print(repr(m.normC), repr(m.mass_check), repr(m.abs_deriv_integral((1, 0))))
"""
    one, two = (_run_script(script, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert one == two


def test_support_exact_and_positive(quad):
    moll = build_mollifier(1, 4, quad)
    xs = np.array([[0.25], [0.2500001], [0.3], [1.0]])
    vals = moll.deriv((0,), xs)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] == 0.0 and vals[3] == 0.0
    inside = np.linspace(-0.2499, 0.2499, 101)[:, None]
    assert np.all(moll.deriv((0,), inside) >= 0.0)
    assert np.all(moll.deriv((1,), xs) == 0.0)


def test_scaling_law_bitexact(quad):
    # d^k rho_n(x) = n^(d+k) d^k rho_1(n x); powers of two scale exactly
    moll, unit = build_mollifier(1, 4, quad), build_mollifier(1, 1, quad)
    xs = np.linspace(-0.24, 0.24, 33)[:, None]
    for k in (0, 1, 2):
        assert np.array_equal(moll.deriv((k,), xs),
                              4.0 ** (1 + k) * unit.deriv((k,), 4 * xs))


def test_convolve_zero(quad, domain_1d):
    moll = build_mollifier(1, 4, quad)
    z = sf_zero(domain_1d, 1)
    conv = convolve(z, moll, quad)
    pts = np.linspace(-1, 1, 11)[:, None]
    assert np.all(conv.eval(pts) == 0.0)


def test_narrow_bump_recovers_identity(quad, domain_1d):
    # rho_n * g for g(x) = x is exactly x by symmetry; smaller 1/n tightens
    # nothing further, so check the closed form at two scales
    g = SampledFunction(domain=domain_1d, order=2, value_dim=1,
                        evaluator=lambda p: p[:, 0:1])
    for n in (4, 16):
        moll = build_mollifier(1, n, quad)
        conv = convolve(g, moll, quad)
        pts = np.linspace(-2, 2, 9)[:, None]
        assert np.max(np.abs(conv.eval(pts) - pts)) < 1e-12


def test_support_containment(quad, domain_1d, gauss_1d):
    f = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                        evaluator=gauss_1d.evaluator, derivative=gauss_1d.derivative)
    f.support = support_estimate(f)
    moll = build_mollifier(1, 4, quad)
    conv = convolve(f, moll, quad)
    est = support_estimate(conv)
    step = domain_1d.spacing()[0]
    declared = conv.support
    lo, hi = declared.boxes[0].lo[0], declared.boxes[0].hi[0]
    assert est.boxes[0].lo[0] >= lo - step - 1e-12
    assert est.boxes[0].hi[0] <= hi + step + 1e-12
    # Minkowski arithmetic: supp f + [-1/4, 1/4]
    assert hi == pytest.approx(f.support.boxes[0].hi[0] + 0.25)


@pytest.mark.parametrize("pair", ["gauss_rho4", "zero", "even_bumps"])
def test_commutativity(pair, domain_1d):
    quad = QuadratureSpec(points_per_axis=512, refinement_levels=2, tol=1e-6)
    moll = build_mollifier(1, 4, quad)
    sample = np.linspace(-3, 3, 41)[:, None]
    if pair == "gauss_rho4":
        fn = builtin_function({"builtin": "gaussian", "amplitude": 1.0,
                               "sigma": 1.0, "e": [1.0, 0.5]}, 1)
        f = sf_from_expr_function(fn, domain_1d, order=6)
        f.support = support_estimate(f)
        disc = commutativity_check(f, moll, quad, sample)
        assert disc < 10 * quad.tol
    elif pair == "zero":
        z = sf_zero(domain_1d, 1)
        assert commutativity_check(z, moll, quad, sample) == 0.0
    else:
        m2 = build_mollifier(1, 2, quad)
        f = bump_function(m2)
        f.domain = domain_1d
        disc_at_zero = commutativity_check(f, moll, quad, np.array([[0.0]]))
        assert disc_at_zero < quad.tol


@pytest.mark.parametrize("case", ["piecewise_1d", "rho_1d", "rho_2d", "rho_2d_small_windows"])
@pytest.mark.parametrize("n_points", [7, 250, 1201, 2100])
def test_batched_convolve_matches_per_node_loop(case, n_points, rng, monkeypatch):
    # n points of the refined grid lie on the lattice and n points of the
    # grid refined 3 times lie on shifted copies of it; where they are dense
    # they take the lattice sum, one product per point of its window of u and
    # the coefficients, which matches the per-node loop over the lattice nodes
    # up to the order in which it sums and the rounding of f's arguments. n
    # random points share no window and take the shifted-node sum, which adds
    # the same products in the same order as the loop. piecewise_1d reads
    # derivatives to order 3 (the centre node's odd coefficients are exactly
    # 0) through windows small enough that every lattice batch is cut into
    # several. A 2D window gathers its points' blocks of u in chunks of at
    # most WINDOW_VALUES values: several per window in rho_2d, and one per
    # one-point window in rho_2d_small_windows
    d = 2 if case.startswith("rho_2d") else 1
    q = QuadratureSpec(points_per_axis=16, refinement_levels=1, tol=1e-5)
    if case == "piecewise_1d":
        moll, betas = build_mollifier(1, 4, q), [(0,), (1,), (2,), (3,)]
    else:
        moll, betas = build_mollifier(d, 2, q), multiindices(d, 1)
    if case in ("piecewise_1d", "rho_2d_small_windows"):
        monkeypatch.setattr(mollify, "WINDOW_VALUES", 2**9)
    # two coordinates, zero-extended outside [-2, 2]^d
    f = SampledFunction(
        domain=Region.box([-3.0] * d, [3.0] * d, 61 if d == 1 else 31), order=0,
        value_dim=2,
        evaluator=lambda p: np.stack([np.sin(3 * p[:, 0]), np.exp(-np.sum(p * p, axis=1))],
                                     axis=1),
        support=Region.box([-2.0] * d, [2.0] * d, 41), name="f")
    fine, thirds = (f.domain.refine(r).grid_points() for r in (2, 3))
    on, shifted = (g[np.linspace(0, len(g) - 1, n_points).astype(int)] for g in (fine, thirds))
    off = rng.uniform(-3.0, 3.0, (n_points, d))
    lattice = mollify.scan_lattice(f.domain, moll, q)
    (_, on_lattice, _), = lattice.split(on)
    assert np.array_equal(on_lattice.origin, lattice.origin)
    assert len(list(lattice.split(thirds))) == 3**d
    assert len(list(lattice.split(off))) == n_points
    windows = []
    sample = mollify._sample_window
    monkeypatch.setattr(mollify, "_sample_window",
                        lambda *a: windows.append(a[3]) or sample(*a))
    conv = convolve(f, moll, q)
    for pts in (on, shifted):
        got = conv.deriv_multi(betas, pts)
        want = convolve_per_node(f, moll, q, betas, pts)
        for bi in range(len(betas)):
            assert np.max(np.abs(got[bi] - want[bi])) <= 1e-13 * np.max(np.abs(want[bi]))
    if n_points >= 250:
        assert len(windows) > (0 if case in ("rho_1d", "rho_2d") else 1)
    windows.clear()
    assert np.array_equal(conv.deriv_multi(betas, off),
                          convolve_per_node(f, moll, q, betas, off))
    assert not windows
    nodes, coeffs = lattice_coefficients(f, moll, q, betas)
    live = np.count_nonzero(np.any(coeffs != 0.0, axis=0))
    if d == 2:
        assert live < len(nodes)                            # dead corner nodes
    if case == "piecewise_1d":
        assert np.any((coeffs == 0.0) & np.any(coeffs != 0.0, axis=0))


def test_lattice_scan_samples_f_once_per_lattice_point():
    # one scan of schwartz_1d's grid reads f on the padded lattice, (N - 1) k + Q
    # points, where the shifted-node sum reads N Q
    scn, f = load_scenario("schwartz_1d")
    moll = build_mollifier(1, 2, scn.quad)
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return f.eval(pts)

    conv = convolve(replace(f, evaluator=counted), moll, scn.quad)
    pts = scn.domain.grid_points()
    conv.deriv_multi([(0,), (1,)], pts)
    k = int(mollify.lattice_steps(scn.domain.spacing(), moll.radius, scn.quad)[0])
    Q = len(mollify.scan_lattice(scn.domain, moll, scn.quad).offsets)
    assert k == 8
    assert sum(calls) <= (len(pts) - 1) * k + Q + 1 < len(pts) * Q


def test_lattice_mass_check(quad, domain_1d, gauss_1d):
    # the lattice coefficients carry the mass convolve divides by; a bump
    # whose lattice mass misses 1 by tol is refused
    moll = build_mollifier(1, 4, quad)
    lattice = mollify.scan_lattice(domain_1d, moll, quad)
    mass = np.prod(lattice.delta) * np.sum(moll.deriv((0,), lattice.nodes))
    assert abs(mass - 1.0) < quad.tol
    heavy = replace(moll, normC=moll.normC * (1.0 + 2.0 * quad.tol))
    with pytest.raises(QuadratureError, match="lattice mass"):
        convolve(gauss_1d, heavy, quad)


def test_lattice_matches_midpoint_oracle(quad, domain_1d, gauss_1d):
    # on a smooth f both rules resolve the integral far below the quadrature tol
    moll = build_mollifier(1, 4, quad)
    f = replace(gauss_1d, support=Region.box([-5.3], [5.3], 1201))
    pts = domain_1d.grid_points()[::40]
    lattice = convolve(f, moll, quad).deriv_multi([(0,), (1,)], pts)
    midpoint = convolve_midpoint(f, moll, quad).deriv_multi([(0,), (1,)], pts)
    assert np.max(np.abs(lattice - midpoint)) < 1e-3 * quad.tol


def test_transfer_beta_zero_identical(quad, domain_1d, gauss_1d):
    f = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                        evaluator=gauss_1d.evaluator, derivative=gauss_1d.derivative,
                        support=Region.box([-5.3], [5.3], 1201))
    moll = build_mollifier(1, 4, quad)
    rep = derivative_transfer_check(f, moll, (0,), np.linspace(-2, 2, 9)[:, None], quad)
    assert rep.max_discrepancy < 1e-12


@pytest.mark.parametrize("beta,floor", [((1,), 1e-4), ((2,), 1e-4)])
def test_transfer_three_way(beta, floor, quad, domain_1d, gauss_1d):
    f = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                        evaluator=gauss_1d.evaluator, derivative=gauss_1d.derivative,
                        support=Region.box([-5.3], [5.3], 1201))
    moll = build_mollifier(1, 4, quad)
    rep = derivative_transfer_check(f, moll, beta, np.linspace(-2, 2, 21)[:, None],
                                    quad, fd_step=1e-3)
    tol = max(10 * quad.tol, floor)
    assert rep.fd_vs_kernel < tol
    assert rep.fd_vs_carrier < tol
    assert rep.kernel_vs_carrier < tol


def test_transfer_linear_derivative_constant(quad, domain_1d):
    fn = expr_function_from_strings(["2*x - 1"], 1)
    f = sf_from_expr_function(fn, domain_1d, order=6)
    f.support = Region.box([-6.0], [6.0], 1201)
    moll = build_mollifier(1, 4, quad)
    conv = convolve(f, moll, quad)
    pts = np.linspace(-2, 2, 9)[:, None]
    deriv = conv.deriv((1,), pts)
    # derivative of the smoothed linear function is the constant slope
    assert np.max(np.abs(deriv - 2.0)) < 1e-10


def test_convolution_linearity(quad, domain_1d, gauss_1d):
    moll = build_mollifier(1, 4, quad)
    sup = Region.box([-5.3], [5.3], 1201)
    f = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                        evaluator=gauss_1d.evaluator, support=sup)
    g = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                        evaluator=lambda p: p[:, 0:1] * np.exp(-p[:, 0:1] ** 2),
                        support=sup)
    comb = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                           evaluator=lambda p: 2.0 * f.eval(p) - 3.0 * g.eval(p),
                           support=sup)
    pts = np.linspace(-2, 2, 17)[:, None]
    lhs = convolve(comb, moll, quad).eval(pts)
    rhs = 2.0 * convolve(f, moll, quad).eval(pts) \
        - 3.0 * convolve(g, moll, quad).eval(pts)
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_regularize_sup_error_monotone(quad, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 1.0)
    errors = []
    for n in (2, 4, 8, 16):
        sm = regularize(ft, n, quad)
        errors.append(difference_seminorm(ft, sm, schwartz_fam,
                                          WeightIndex(1, 0), sup_alpha).value)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_regularize_support_inflation(quad, domain_1d, gauss_1d, schwartz_fam, sup_alpha):
    ft, rep = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 1.0)
    sm = regularize(ft, 4, quad)
    assert sm.support is not None
    est = support_estimate(sm)
    want_hi = ft.support.boxes[0].hi[0] + 0.25
    assert sm.support.boxes[0].hi[0] == pytest.approx(want_hi)
    assert est.boxes[0].hi[0] <= want_hi + domain_1d.spacing()[0] + 1e-12


def test_regularize_leaves_argument_unchanged(quad, gauss_1d):
    psi = build_cutoff(Region.box([-1.0], [1.0], 201), 1.0)
    ft = multiply_cutoff(psi, gauss_1d)
    before = set(vars(ft))
    regularize(ft, 4, quad)
    assert set(vars(ft)) == before


def test_regularize_needs_a_declared_support(quad, gauss_1d):
    assert gauss_1d.support is None
    with pytest.raises(ValueError, match="declared support"):
        regularize(gauss_1d, 4, quad)


def test_find_regularization_order_zero(quad, domain_1d, schwartz_fam, sup_alpha):
    z = sf_zero(domain_1d, 1)
    n, _ = find_regularization_order(z, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                                     1e-3, 64, quad)
    assert n == 2


def test_find_regularization_order_pinned(quad, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 1.0)
    n, history = find_regularization_order(ft, schwartz_fam, WeightIndex(1, 0),
                                           sup_alpha, 1e-2, 64, quad)
    assert n == expected.REG_ORDER_GAUSS_L0
    assert n <= 64


def test_find_regularization_order_loose_eps(quad, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 1.0)
    big = weighted_seminorm(ft, schwartz_fam, WeightIndex(1, 0), sup_alpha).value
    n, _ = find_regularization_order(ft, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                                     10.0 * big, 64, quad)
    assert n == 2


def test_find_regularization_order_exhausted(quad, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 1.0)
    with pytest.raises(ConvergenceError) as err:
        find_regularization_order(ft, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                                  1e-12, 4, quad)
    assert err.value.best is not None and err.value.best > 1e-12
