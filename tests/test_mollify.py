import numpy as np
import pytest

import finiterank as fr
from finiterank.errors import ConvergenceError
from finiterank.expressions import builtin_function, expr_function_from_strings
from finiterank.funcmodel import (SampledFunction, sf_from_expr_function, sf_zero,
                                  support_estimate)
from finiterank.geometry import Region
from finiterank.mollify import (QuadratureSpec, build_mollifier,
                                commutativity_check, convolve,
                                derivative_transfer_check,
                                find_regularization_order, regularize)
from finiterank.seminorms import difference_seminorm, weighted_seminorm
from finiterank.weights import WeightIndex
from finiterank.cutoff import apply_cutoff, build_cutoff, multiply_cutoff
from finiterank import mollify
from oracles import adaptive_simpson, convolve_per_node
import expected


def bump_1d(x):
    return np.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1 else 0.0


def test_normalization_matches_adaptive_simpson(quad):
    oracle = adaptive_simpson(bump_1d, -1.0, 1.0, tol=1e-9)
    assert oracle == pytest.approx(expected.BUMP_MASS_1D, abs=expected.BUMP_MASS_1D_TOL)
    moll = build_mollifier(1, 1, quad)
    assert 1.0 / moll.normC == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_mass_unit(d, n, quad):
    q = quad if d == 1 else QuadratureSpec(points_per_axis=16, refinement_levels=1,
                                           tol=1e-5)
    moll = build_mollifier(d, n, q)
    assert abs(moll.mass_check - 1.0) < q.tol


def test_support_exact_and_positive(quad):
    moll = build_mollifier(1, 4, quad)
    xs = np.array([[0.25], [0.2500001], [0.3], [1.0]])
    vals = moll.value(xs)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] == 0.0 and vals[3] == 0.0
    inside = np.linspace(-0.2499, 0.2499, 101)[:, None]
    assert np.all(moll.value(inside) >= 0.0)
    assert np.all(moll.deriv((1,), xs) == 0.0)


def test_scaling_law_bitexact(quad):
    moll = build_mollifier(1, 4, quad)
    xs = np.linspace(-0.24, 0.24, 33)[:, None]
    direct = moll.value(xs)
    rescaled = (4 ** 1) * moll.rho_unit(4 * xs)
    assert np.array_equal(direct, rescaled)


def test_convolve_zero(quad, domain_1d):
    moll = build_mollifier(1, 4, quad)
    z = sf_zero(domain_1d, 1)
    conv = convolve(z, moll.as_sampled(), quad, side="g")
    pts = np.linspace(-1, 1, 11)[:, None]
    assert np.all(conv.eval(pts) == 0.0)


def test_convolve_needs_kernel_derivatives(quad):
    # every derivative of f * g falls on g, so g must provide them
    moll = build_mollifier(1, 4, quad)
    rho = moll.as_sampled()
    bare = SampledFunction(domain=rho.domain, order=rho.order, value_dim=1,
                           evaluator=rho.evaluator, support=rho.support)
    for side in ("f", "g"):
        with pytest.raises(ValueError, match="analytic derivatives"):
            convolve(rho, bare, quad, side=side)


def test_narrow_bump_recovers_identity(quad, domain_1d):
    # rho_n * g for g(x) = x is exactly x by symmetry; smaller 1/n tightens
    # nothing further, so check the closed form at two scales
    g = SampledFunction(domain=domain_1d, order=2, value_dim=1,
                        evaluator=lambda p: p[:, 0:1])
    for n in (4, 16):
        moll = build_mollifier(1, n, quad)
        conv = convolve(g, moll.as_sampled(), quad, side="g")
        pts = np.linspace(-2, 2, 9)[:, None]
        assert np.max(np.abs(conv.eval(pts) - pts)) < 1e-12


def test_support_containment(quad, domain_1d, gauss_1d):
    f = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                        evaluator=gauss_1d.evaluator, derivative=gauss_1d.derivative)
    f.support = support_estimate(f)
    moll = build_mollifier(1, 4, quad)
    conv = convolve(f, moll.as_sampled(), quad, side="g")
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
    rho = moll.as_sampled()
    sample = np.linspace(-3, 3, 41)[:, None]
    if pair == "gauss_rho4":
        fn = builtin_function({"builtin": "gaussian", "amplitude": 1.0,
                               "sigma": 1.0, "e": [1.0, 0.5]}, 1)
        f = sf_from_expr_function(fn, domain_1d, order=6)
        f.support = support_estimate(f)
        disc = commutativity_check(f, rho, quad, sample)
        assert disc < 10 * quad.tol
    elif pair == "zero":
        z = sf_zero(domain_1d, 1)
        assert commutativity_check(z, rho, quad, sample) == 0.0
    else:
        m2 = build_mollifier(1, 2, quad)
        f = m2.as_sampled()
        f.domain = domain_1d
        disc_at_zero = commutativity_check(f, rho, quad, np.array([[0.0]]))
        assert disc_at_zero < quad.tol


def _piecewise_kernel():
    """x^3 for x > 0, (x + 1/2)^2 for x < -1/2, 0 between, on [-1, 1].

    Every derivative vanishes on [-1/2, 0] and the third also for x < -1/2,
    so some nodes are dead and some carry a zero coefficient for one beta.
    """
    def deriv(beta, pts):
        x = pts[:, 0]
        right = [x**3, 3 * x**2, 6 * x, np.ones_like(x)][beta[0]]
        left = [(x + 0.5)**2, 2 * (x + 0.5), 2 * np.ones_like(x),
                np.zeros_like(x)][beta[0]]
        return np.where(x > 0, right, np.where(x < -0.5, left, 0.0))[:, None]

    box = Region.box([-1.0], [1.0], 41)
    return SampledFunction(domain=box, order=3, value_dim=1,
                           evaluator=lambda p: deriv((0,), p),
                           derivative=deriv, support=box, name="piecewise")


@pytest.mark.parametrize("case", ["piecewise_1d", "rho_1d", "rho_2d"])
@pytest.mark.parametrize("n_points", [7, 250, 2100])
def test_batched_convolve_matches_per_node_loop(case, n_points, rng):
    d = 2 if case == "rho_2d" else 1
    if case == "piecewise_1d":
        q = QuadratureSpec(points_per_axis=40, refinement_levels=0)
        g = _piecewise_kernel()
        betas = [(0,), (1,), (2,), (3,)]
    else:
        q = QuadratureSpec(points_per_axis=16, refinement_levels=1, tol=1e-5)
        g = build_mollifier(d, 4, q).as_sampled()
        betas = [(0,) * d] + [tuple(int(i == k) for i in range(d)) for k in range(d)]
    # two coordinates, zero-extended outside [-2, 2]^d
    f = SampledFunction(
        domain=Region.box([-3.0] * d, [3.0] * d, 61), order=0, value_dim=2,
        evaluator=lambda p: np.stack([np.sin(3 * p[:, 0]), np.exp(-np.sum(p * p, axis=1))],
                                     axis=1),
        support=Region.box([-2.0] * d, [2.0] * d, 41), name="f")
    pts = rng.uniform(-3.0, 3.0, (n_points, d))
    expected_stack = convolve_per_node(f, g, q, betas, pts)
    conv = convolve(f, g, q, side="g")
    assert np.array_equal(conv.deriv_multi(betas, pts), expected_stack)
    if case == "piecewise_1d":
        nodes, _ = mollify.region_nodes(g.support, q.finest_points)
        coeffs = np.stack([g.deriv(b, nodes)[:, 0] for b in betas])
        live = np.count_nonzero(np.any(coeffs != 0.0, axis=0))
        assert live < len(nodes)                            # dead nodes
        assert np.any((coeffs == 0.0) & np.any(coeffs != 0.0, axis=0))
        per_chunk = max(1, mollify.CHUNK_POINTS // n_points)
        assert live % per_chunk != 0 or per_chunk == 1


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
    rho = moll.as_sampled()
    conv = convolve(f, rho, quad, side="g")
    pts = np.linspace(-2, 2, 9)[:, None]
    deriv = conv.deriv((1,), pts)
    # derivative of the smoothed linear function is the constant slope
    assert np.max(np.abs(deriv - 2.0)) < 1e-10


def test_convolution_linearity(quad, domain_1d, gauss_1d):
    moll = build_mollifier(1, 4, quad)
    rho = moll.as_sampled()
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
    lhs = convolve(comb, rho, quad, side="g").eval(pts)
    rhs = 2.0 * convolve(f, rho, quad, side="g").eval(pts) \
        - 3.0 * convolve(g, rho, quad, side="g").eval(pts)
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_regularize_sup_error_monotone(quad, domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                         1e-3, 1.0, domain_1d, quad)
    errors = []
    for n in (2, 4, 8, 16):
        sm = regularize(ft, n, quad)
        errors.append(difference_seminorm(ft, sm, schwartz_fam,
                                          WeightIndex(1, 0), sup_alpha).value)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_regularize_support_inflation(quad, domain_1d, gauss_1d, schwartz_fam, sup_alpha):
    ft, rep = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                           1e-3, 1.0, domain_1d, quad)
    sm = regularize(ft, 4, quad)
    assert sm.support is not None
    est = support_estimate(sm)
    want_hi = ft.support.boxes[0].hi[0] + 0.25
    assert sm.support.boxes[0].hi[0] == pytest.approx(want_hi)
    assert est.boxes[0].hi[0] <= want_hi + domain_1d.spacing()[0] + 1e-12


def test_regularize_leaves_argument_unchanged(quad, gauss_1d):
    cut = build_cutoff(Region.box([-1.0], [1.0], 201), 1.0, 0, quad)
    ft = multiply_cutoff(cut, gauss_1d)
    before = set(vars(ft))
    regularize(ft, 4, quad)
    assert set(vars(ft)) == before


def test_find_regularization_order_zero(quad, domain_1d, schwartz_fam, sup_alpha):
    z = sf_zero(domain_1d, 1)
    n, _ = find_regularization_order(z, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                                     1e-3, 64, quad)
    assert n == 2


def test_find_regularization_order_pinned(quad, domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                         1e-3, 1.0, domain_1d, quad)
    n, history = find_regularization_order(ft, schwartz_fam, WeightIndex(1, 0),
                                           sup_alpha, 1e-2, 64, quad)
    assert n == expected.REG_ORDER_GAUSS_L0
    assert n <= 64


def test_find_regularization_order_loose_eps(quad, domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                         1e-3, 1.0, domain_1d, quad)
    big = weighted_seminorm(ft, schwartz_fam, WeightIndex(1, 0), sup_alpha).value
    n, _ = find_regularization_order(ft, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                                     10.0 * big, 64, quad)
    assert n == 2


def test_find_regularization_order_exhausted(quad, domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                         1e-3, 1.0, domain_1d, quad)
    with pytest.raises(ConvergenceError) as err:
        find_regularization_order(ft, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                                  1e-12, 4, quad)
    assert err.value.best is not None and err.value.best > 1e-12
