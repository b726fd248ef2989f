import numpy as np
import pytest

import finiterank as fr
from finiterank.errors import CriterionError, FiniteRankError, OrderError
from finiterank.funcmodel import (SampledFunction, SeminormIndex, multiindices,
                                  sf_from_expr_function, sf_zero)
from finiterank.geometry import Region
from finiterank.seminorms import (find_tail_compact, jet_seminorm, tail_seminorm,
                                  weighted_seminorm)
from finiterank.weights import WeightIndex, exp_strips_family
from oracles import bisect_root, dense_rescan, domain_jet
import expected


def test_weighted_seminorm_zero(domain_1d, schwartz_fam, sup_alpha):
    z = sf_zero(domain_1d, 3)
    sv = weighted_seminorm(z, schwartz_fam, WeightIndex(1, 0), sup_alpha)
    assert sv.value == 0.0


def test_weighted_seminorm_gauss_l0(gauss_1d, schwartz_fam, sup_alpha):
    sv = weighted_seminorm(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha)
    assert sv.value == pytest.approx(1.0)
    assert sv.witness_x[0] == pytest.approx(0.0)


def test_weighted_seminorm_l2_weight_on_values(domain_1d, sup_alpha, gauss_1d):
    # sup of e^{-x^2} (1+x^2): an order-2 weight profile on the values alone,
    # realized as a custom order-0 weight slot; dense 10x rescan as oracle
    from finiterank.weights import custom_family
    fam = custom_family(0, {(1, 0): "(1 + normsq)^1"}, 1)
    f0 = SampledFunction(domain=domain_1d, order=0, value_dim=1,
                         evaluator=gauss_1d.evaluator)
    sv = weighted_seminorm(f0, fam, WeightIndex(1, 0), sup_alpha)
    assert sv.value == pytest.approx(1.0)  # the product is maximal at x = 0
    dense = dense_rescan(f0, fam, WeightIndex(1, 0), sup_alpha, factor=10)
    assert abs(dense.value - sv.value) <= 1e-6


def test_order_error(gauss_1d, schwartz_fam, sup_alpha):
    f1 = SampledFunction(domain=gauss_1d.domain, order=1, value_dim=1,
                         evaluator=gauss_1d.evaluator, derivative=gauss_1d.derivative)
    with pytest.raises(OrderError):
        weighted_seminorm(f1, schwartz_fam, WeightIndex(1, 2), sup_alpha)


def test_witness_reproduces_value(plane_waves_1d, schwartz_fam, sup_alpha):
    idx = WeightIndex(1, 1)
    sv = weighted_seminorm(plane_waves_1d, schwartz_fam, idx, sup_alpha)
    x = np.atleast_2d(sv.witness_x)
    val = sup_alpha(plane_waves_1d.deriv(sv.witness_beta, x)[0]) \
        * float(schwartz_fam.eval_batch(idx, x)[0])
    assert val == sv.value  # bit-exact


def test_tail_covering_support_is_zero(gauss_1d, schwartz_fam, sup_alpha, domain_1d):
    K = Region.box([-6.0], [6.0], 1201)
    sv = tail_seminorm(gauss_1d, K, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                       jet=domain_jet(gauss_1d, WeightIndex(1, 0)))
    assert sv.value == 0.0 and sv.empty


def test_tail_empty_K_equals_full(gauss_1d, schwartz_fam, sup_alpha):
    K = Region.empty(1)
    tail = tail_seminorm(gauss_1d, K, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                         jet=domain_jet(gauss_1d, WeightIndex(1, 0)))
    full = weighted_seminorm(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha)
    assert tail.value == full.value


def test_tail_gauss_outside_two(gauss_1d, schwartz_fam, sup_alpha, domain_1d):
    K = Region.box([-2.0], [2.0], 401)
    sv = tail_seminorm(gauss_1d, K, schwartz_fam, WeightIndex(1, 0), sup_alpha,
                       jet=domain_jet(gauss_1d, WeightIndex(1, 0)))
    pts = domain_1d.grid_points()[:, 0]
    outside = pts[~K.contains(domain_1d.grid_points())]
    first = np.min(np.abs(outside))
    assert sv.value == pytest.approx(np.exp(-first * first))
    assert abs(sv.witness_x[0]) == pytest.approx(first)


def test_tail_monotone_in_K(gauss_1d, schwartz_fam, sup_alpha):
    idx = WeightIndex(1, 1)
    jet = domain_jet(gauss_1d, idx)
    t1 = tail_seminorm(gauss_1d, Region.box([-1.0], [1.0], 3), schwartz_fam, idx, sup_alpha,
                       jet=jet)
    t2 = tail_seminorm(gauss_1d, Region.box([-2.0], [2.0], 3), schwartz_fam, idx, sup_alpha,
                       jet=jet)
    full = weighted_seminorm(gauss_1d, schwartz_fam, idx, sup_alpha)
    assert t1.value >= t2.value
    assert t2.value <= t1.value <= full.value


def test_triangle_inequality_random_pairs(domain_1d, schwartz_fam, sup_alpha, rng):
    from finiterank.expressions import expr_function_from_strings
    idx = WeightIndex(1, 1)
    for _ in range(5):
        a, b, c, e = rng.uniform(0.5, 2.0, size=4)
        f1 = sf_from_expr_function(
            expr_function_from_strings([f"{a} * exp(-{b} * x^2)"], 1), domain_1d, 6)
        f2 = sf_from_expr_function(
            expr_function_from_strings([f"{c} * x * exp(-{e} * x^2)"], 1), domain_1d, 6)
        fsum = SampledFunction(domain=domain_1d, order=6, value_dim=1,
                               evaluator=lambda p, f1=f1, f2=f2: f1.eval(p) + f2.eval(p),
                               derivative=lambda bb, p, f1=f1, f2=f2:
                                   f1.deriv(bb, p) + f2.deriv(bb, p))
        s_sum = weighted_seminorm(fsum, schwartz_fam, idx, sup_alpha).value
        s1 = weighted_seminorm(f1, schwartz_fam, idx, sup_alpha).value
        s2 = weighted_seminorm(f2, schwartz_fam, idx, sup_alpha).value
        assert s_sum <= s1 + s2 + 1e-12


def test_find_tail_compact_zero(domain_1d, schwartz_fam, sup_alpha):
    z = sf_zero(domain_1d, 1)
    K = find_tail_compact(z, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 0.0,
                          jet=domain_jet(z, WeightIndex(1, 0)))
    assert K.volume() == 0.0


def test_find_tail_compact_gauss_radius(gauss_1d, schwartz_fam, sup_alpha, domain_1d):
    K = find_tail_compact(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha, 1e-3, 0.5,
                          jet=domain_jet(gauss_1d, WeightIndex(1, 0)))
    oracle = bisect_root(lambda r: np.exp(-r * r) - 1e-3, 0.0, 10.0)
    assert oracle == pytest.approx(expected.GAUSS_TAIL_RADIUS_1E3, abs=1e-10)
    assert abs(K.boxes[0].hi[0] - oracle) <= domain_1d.spacing()[0] + 1e-12


def test_find_tail_compact_strip_formula(sup_alpha):
    # Example-d closed form: |x1| <= -ln(eps) (2 j + 2) on the strip closure,
    # realized by the space's borderline member growing like e^{|x1|/(2j+2)}
    j, eps = 1, 0.05
    fam = exp_strips_family(1, 3, (-16.0, 16.0), (641, 72))
    domain = Region.from_bounds([(-16.0, 0.05), (-16.0, -3.6)],
                                [(16.0, 3.6), (16.0, -0.05)], (641, 72))
    omega = Region.from_bounds([(-1e6, 1e-6), (-1e6, -1e6)],
                               [(1e6, 1e6), (1e6, -1e-6)], 2)
    from finiterank.expressions import expr_function_from_strings
    grow = expr_function_from_strings([f"exp(abs(x1) / {2 * j + 2})"], 2)
    f = SampledFunction(domain=domain, order=0, value_dim=1, evaluator=grow.eval)
    delta = 1.0 / (2 * j + 2)
    K = find_tail_compact(f, fam, WeightIndex(j, 0), sup_alpha, eps, delta, omega=omega,
                          jet=domain_jet(f, WeightIndex(j, 0)))
    predicted = -np.log(eps) * (2 * j + 2)
    halfwidth = K.boxes[0].hi[0]
    assert abs(halfwidth - predicted) <= domain.spacing()[0] + 1e-12
    # x2 extent recovers the strip closure
    assert K.boxes[0].lo[1] == pytest.approx(0.5)
    assert K.boxes[0].hi[1] == pytest.approx(2.0)


def test_find_tail_compact_failure_signal(domain_1d, schwartz_fam, sup_alpha):
    c = SampledFunction(domain=domain_1d, order=0, value_dim=1,
                        evaluator=lambda p: np.ones((len(p), 1)))
    with pytest.raises(CriterionError) as err:
        # constant 1 with the (1+x^2)^(l/2) weight never decays
        find_tail_compact(c, schwartz_fam, WeightIndex(1, 0), sup_alpha, 0.5, 0.0,
                          jet=domain_jet(c, WeightIndex(1, 0)))
    assert err.value.best is not None


@pytest.mark.parametrize("hi", [3.0, 6.0])
def test_find_tail_compact_refuses_violations_at_either_edge(hi, schwartz_fam, sup_alpha):
    # the bump at -2.8 still exceeds eps at the left edge -3, the nearer edge
    # of [-3, 6]: the tail beyond -3 is never scanned, so nothing is certified
    from finiterank.expressions import expr_function_from_strings
    window = Region.box([-3.0], [hi], 901)
    fn = expr_function_from_strings(["exp(-(x + 2.8)^2)"], 1)
    f = sf_from_expr_function(fn, window, order=2)
    omega = Region.box([-1e6], [1e6], 901)
    with pytest.raises(CriterionError, match="search boundary"):
        find_tail_compact(f, schwartz_fam, WeightIndex(1, 0), sup_alpha, 0.1, 0.5,
                          omega=omega, jet=domain_jet(f, WeightIndex(1, 0)))


def test_serialized_record_fields(gauss_1d, schwartz_fam, sup_alpha):
    sv = weighted_seminorm(gauss_1d, schwartz_fam, WeightIndex(1, 1), sup_alpha)
    record = sv.to_json_dict()
    assert set(record) == {"value", "witness_x", "witness_beta"}


@pytest.mark.parametrize("l", [0, 1])
def test_witness_tie_break_first_beta_then_first_point(domain_1d, schwartz_fam,
                                                       sup_alpha, l):
    # constant values: every beta = 0 entry ties at l = 0, the two ends tie
    # at l = 1, and the |beta| = 1 rows are 0; the scan order keeps the first
    c = SampledFunction(domain=domain_1d, order=1, value_dim=2,
                        evaluator=lambda p: np.tile([3.0, -1.0], (len(p), 1)),
                        derivative=lambda b, p: np.zeros((len(p), 2)))
    sv = weighted_seminorm(c, schwartz_fam, WeightIndex(1, l), sup_alpha)
    assert sv.witness_beta == (0,)
    assert sv.witness_x.tolist() == domain_1d.grid_points()[0].tolist()
    assert sv.value == pytest.approx(3.0 * np.sqrt(1.0 + 36.0) ** l)


def test_non_finite_integrand_is_refused(schwartz_fam, sup_alpha):
    # one NaN value at x = -2 must not turn into a seminorm of -1 (which would
    # certify) nor be skipped; every reader of the scan refuses it
    domain = Region.box([-2.0], [2.0], 41)

    def gauss_with_nan(p):
        out = np.exp(-p[:, 0:1] ** 2)
        out[p[:, 0] == -2.0] = np.nan
        return out

    f = SampledFunction(domain=domain, order=0, value_dim=1, evaluator=gauss_with_nan)
    idx = WeightIndex(1, 0)
    msg = r"non-finite integrand nan .* at x=\[-2\.0\], beta=\(0,\)"
    with pytest.raises(FiniteRankError, match=msg):
        weighted_seminorm(f, schwartz_fam, idx, sup_alpha)
    jet = domain_jet(f, idx)
    with pytest.raises(FiniteRankError, match=msg):
        tail_seminorm(f, Region.box([-1.0], [1.0], 21), schwartz_fam, idx, sup_alpha, jet=jet)
    with pytest.raises(FiniteRankError, match=msg):
        find_tail_compact(f, schwartz_fam, idx, sup_alpha, 1e-3, 0.0, jet=jet)


@pytest.mark.parametrize("alpha", [
    SeminormIndex("sup_subset", subset=(1, 3)),
    SeminormIndex("weighted_sup", coord_weights=(0.5, 2.0, 1.0, 3.0)),
], ids=["sup_subset", "weighted_sup"])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_jet_seminorm_matches_a_per_point_loop(alpha, l, domain_1d, schwartz_fam, rng):
    # p_alpha of each (beta, point) on its own, scanned in the documented
    # order, in which the first beta, then the first point, keeps a tie
    pts = domain_1d.grid_points()
    idx = WeightIndex(1, l)
    betas = multiindices(1, l)
    jet = rng.normal(size=(len(betas), len(pts), 4)) * np.exp(-pts[:, 0] ** 2 / 8)[:, None]
    w = schwartz_fam.eval_batch(idx, pts)
    best, witness = -1.0, None
    for bi, beta in enumerate(betas):
        for k in range(len(pts)):
            v = alpha(jet[bi, k]) * w[k]
            if v > best:
                best, witness = v, (beta, k)
    sv = jet_seminorm(jet, pts, [None], schwartz_fam, idx, alpha)
    assert sv.value == best
    assert sv.witness_beta == witness[0]
    assert sv.witness_x.tolist() == pts[witness[1]].tolist()
