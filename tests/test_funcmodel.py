import numpy as np
import pytest

import finiterank as fr
from finiterank.cutoff import multiply_cutoff
from finiterank.errors import DomainError, OrderError
from finiterank.expressions import expr_function_from_strings
from finiterank.funcmodel import (FiniteRankFunction, SampledFunction, SeminormIndex,
                                  exp_poly, mi_order, multiindex_binom, multiindices,
                                  sf_from_expr_function, submultiindices)
from finiterank.geometry import Region
from oracles import (bump_function, evaluate, fd_derivative_oracle, fd_step_sweep,
                     support_estimate)


def test_binom_examples():
    assert multiindex_binom((2, 1), (1, 1)) == 2
    assert multiindex_binom((2, 1), (2, 1)) == 1
    assert multiindex_binom((3, 0), (1, 0)) == 3
    with pytest.raises(OrderError):
        multiindex_binom((1, 0), (2, 0))


def test_exp_poly_is_one_read_only_table():
    # q_2 of the bump's recurrence, built once and shared by every caller
    q = exp_poly(2, (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
    np.testing.assert_array_equal(q, [1.0, -2.0, 0.0, 0.0, 0.0])
    assert exp_poly(2, (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)) is q
    with pytest.raises(ValueError):
        q[0] = 0.0


def test_multiindices_order():
    out = multiindices(2, 2)
    assert out[0] == (0, 0)
    assert set(out) == {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}
    orders = [mi_order(b) for b in out]
    assert orders == sorted(orders)


def test_submultiindices():
    assert set(submultiindices((1, 1))) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_evaluate_constant_derivative_zero(domain_1d):
    # no derivative provider: no finite-difference stand-in either
    c = SampledFunction(domain=domain_1d, order=3, value_dim=2,
                        evaluator=lambda p: np.tile([2.0, -1.0], (len(p), 1)))
    with pytest.raises(OrderError):
        evaluate(c, (1,), [0.5])


def test_evaluate_analytic_gaussian(gauss_1d):
    x = 0.7
    val = evaluate(gauss_1d, (1,), [x])[0]
    assert val == pytest.approx(-2 * x * np.exp(-x * x), rel=1e-12)


def test_evaluate_fd_provider(domain_1d):
    f = SampledFunction(domain=domain_1d, order=3, value_dim=1,
                        evaluator=lambda p: p[:, 0:1] ** 2)
    with pytest.raises(OrderError):
        evaluate(f, (2,), [0.3])
    assert evaluate(f, (0,), [0.3])[0] == pytest.approx(0.09)


def test_deriv_without_provider_names_the_function(domain_1d):
    f = SampledFunction(domain=domain_1d, order=2, value_dim=1,
                        evaluator=lambda p: p[:, 0:1] ** 2, name="square")
    with pytest.raises(OrderError, match="square"):
        f.deriv((1,), np.array([[0.3]]))


def test_evaluate_errors(gauss_1d):
    with pytest.raises(OrderError):
        evaluate(gauss_1d, (7,), [0.0])
    with pytest.raises(DomainError):
        evaluate(gauss_1d, (0,), [100.0])


def test_fd_oracle_cubic():
    dom = Region.box([-2.0], [2.0], 101)
    f = SampledFunction(domain=dom, order=3, value_dim=1,
                        evaluator=lambda p: p[:, 0:1] ** 3)
    val = fd_derivative_oracle(f, (1,), [1.0], 1e-4)[0]
    assert val == pytest.approx(3.0, abs=1e-7)


def test_fd_oracle_linear_second_derivative():
    dom = Region.box([-2.0], [2.0], 101)
    f = SampledFunction(domain=dom, order=3, value_dim=1,
                        evaluator=lambda p: 5.0 * p[:, 0:1] - 1.0)
    val = fd_derivative_oracle(f, (2,), [0.2], 1e-3)[0]
    assert abs(val) < 1e-6


def test_fd_oracle_sine_with_step_sweep():
    dom = Region.box([-2.0], [2.0], 101)
    f = SampledFunction(domain=dom, order=3, value_dim=1,
                        evaluator=lambda p: np.sin(p[:, 0:1]))
    val = fd_derivative_oracle(f, (1,), [0.0], 1e-4)[0]
    assert val == pytest.approx(1.0, abs=1e-8)
    sweep_val, gap = fd_step_sweep(lambda x: np.sin(x), 0.0, [1e-2, 1e-3, 1e-4])
    assert sweep_val == pytest.approx(1.0, abs=1e-7)
    assert gap < 1e-6  # O(h^2) decay confirmed by the ladder


def test_fd_oracle_stencil_domain_error():
    dom = Region.box([0.0], [1.0], 11)
    f = SampledFunction(domain=dom, order=2, value_dim=1,
                        evaluator=lambda p: p[:, 0:1])
    with pytest.raises(DomainError):
        fd_derivative_oracle(f, (1,), [0.0], 1e-2)


def test_product_rule_identity_and_constant(gauss_1d, domain_1d):
    one = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                          evaluator=lambda p: np.ones((len(p), 1)),
                          derivative=lambda b, p: (np.ones((len(p), 1))
                                                   if mi_order(b) == 0
                                                   else np.zeros((len(p), 1))))
    x = np.array([[0.4]])
    for beta in [(0,), (1,), (2,)]:
        lhs = multiply_cutoff(one, gauss_1d).deriv(beta, x)
        rhs = gauss_1d.deriv(beta, x)
        assert np.allclose(lhs, rhs, rtol=1e-12)


def test_product_rule_vs_fd_oracle(domain_1d):
    g_fn = expr_function_from_strings(["x"], 1)
    g = sf_from_expr_function(g_fn, domain_1d, order=6, name="x")
    f_fn = expr_function_from_strings(["exp(-x^2)"], 1)
    f = sf_from_expr_function(f_fn, domain_1d, order=6, name="gauss")
    x = np.array([[0.5]])
    lhs = multiply_cutoff(g, f).deriv((2,), x)[0, 0]

    prod = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                           evaluator=lambda p: p[:, 0:1] * np.exp(-p[:, 0:1] ** 2))
    rhs = fd_derivative_oracle(prod, (2,), [0.5], 1e-3)[0]
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_product_rule_beta_zero_exact(gauss_1d, domain_1d):
    g_fn = expr_function_from_strings(["x^2"], 1)
    g = sf_from_expr_function(g_fn, domain_1d, order=6, name="x2")
    pts = np.array([[0.3], [1.2]])
    lhs = multiply_cutoff(g, gauss_1d).deriv((0,), pts)
    rhs = g.eval(pts)[:, 0:1] * gauss_1d.eval(pts)
    assert np.array_equal(lhs, rhs)


def test_provider_consistency_randomized(plane_waves_1d, rng):
    # analytic provider vs nested central differences, |beta| <= 2
    for _ in range(100):
        beta = (int(rng.integers(0, 3)),)
        x = float(rng.uniform(-2.5, 2.5))
        analytic = plane_waves_1d.deriv(beta, np.array([[x]]))[0]
        fd = fd_derivative_oracle(plane_waves_1d, beta, [x], 1e-4)
        scale = max(np.max(np.abs(analytic)), 1e-2)
        assert np.max(np.abs(analytic - fd)) <= 1e-4 * scale


def test_seminorm_axioms_randomized(rng):
    alphas = [SeminormIndex("sup_all"),
              SeminormIndex("sup_subset", subset=(0, 2)),
              SeminormIndex("weighted_sup", coord_weights=(1.0, 2.0, 0.5, 3.0))]
    for alpha in alphas:
        for _ in range(50):
            v = rng.normal(size=4)
            w = rng.normal(size=4)
            lam = float(rng.normal())
            assert alpha(v) >= 0
            assert alpha(lam * v) == pytest.approx(abs(lam) * alpha(v), rel=1e-12, abs=1e-15)
            assert alpha(v + w) <= alpha(v) + alpha(w) + 1e-12


@pytest.mark.parametrize("kind, kwargs", [
    ("sup_max", {}),
    ("sup_subset", {"subset": ()}),
    ("sup_subset", {"subset": (0, -1)}),
    ("weighted_sup", {"coord_weights": ()}),
    ("weighted_sup", {"coord_weights": (1.0, 0.0)}),
    ("weighted_sup", {"coord_weights": (-1.0,)}),
    ("weighted_sup", {"coord_weights": (1.0, float("nan"))}),
    ("weighted_sup", {"coord_weights": (float("inf"),)}),
])
def test_seminorm_index_rejects_degenerate_declarations(kind, kwargs):
    # a zero or negative weight would measure every difference as 0 or less
    with pytest.raises(ValueError):
        SeminormIndex(kind, **kwargs)


def test_support_estimate_bump(quad):
    moll = fr.build_mollifier(1, 1, quad)
    dom = Region.box([-2.0], [2.0], 401)
    f = SampledFunction(domain=dom, order=2, value_dim=1,
                        evaluator=lambda p: moll.deriv((0,), p)[:, None])
    est = support_estimate(f, 1e-12)
    step = dom.spacing()[0]
    assert est.boxes[0].lo[0] >= -1.0 - step - 1e-12
    assert est.boxes[0].hi[0] <= 1.0 + step + 1e-12


def test_support_estimate_zero_and_mollifier_radius(domain_1d, quad):
    zero = SampledFunction(domain=domain_1d, order=2, value_dim=1,
                           evaluator=lambda p: np.zeros((len(p), 1)))
    assert support_estimate(zero).is_empty

    moll = fr.build_mollifier(1, 2, quad)
    f = SampledFunction(domain=domain_1d, order=2, value_dim=1,
                        evaluator=lambda p: moll.deriv((0,), p)[:, None])
    est = support_estimate(f)
    step = domain_1d.spacing()[0]
    assert abs(est.boxes[0].hi[0] - 0.5) <= step + 1e-12


def test_finite_rank_sum_identity(plane_waves_1d, schwartz_fam, sup_alpha,
                                  domain_1d):
    # g = sum_i phi_i (x) e_i: the factor map times the value matrix is the sum
    g, _ = fr.finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha, 0.2)
    assert isinstance(g, FiniteRankFunction)
    assert g.rank > 1
    assert g.factors.value_dim == g.rank
    assert g.values.shape == (g.rank, plane_waves_1d.value_dim)
    pts = domain_1d.grid_points()
    total = g.sampled.eval_extended(pts)
    summed = g.factors.eval_extended(pts) @ g.values
    assert np.max(np.abs(summed - total)) <= 1e-14 * np.max(np.abs(total))


def test_declared_support_evaluator_consistency(quad):
    # evaluator vanishes at grid points outside a declared support
    moll = fr.build_mollifier(1, 2, quad)
    f = bump_function(moll)
    f.domain = Region.box([-2.0], [2.0], 401)
    pts = f.domain.grid_points()
    outside = ~f.support.contains(pts)
    scale = float(np.max(np.abs(f.eval(pts))))
    assert np.all(np.abs(f.eval(pts[outside])) <= 1e-12 * scale)
