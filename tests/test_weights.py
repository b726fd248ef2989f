import numpy as np
import pytest

import finiterank as fr
from finiterank.errors import DomainError, UnknownIndexError
from finiterank.geometry import Region
from finiterank.weights import (WeightIndex, check_directed, check_locally_bounded,
                                check_locally_bounded_away_from_zero,
                                check_vanishing_ratio, custom_family,
                                exhaustion_family, exp_strips_family)
from oracles import eval_weight


@pytest.fixture(scope="module")
def exhaustion():
    omegas = {j: Region.box([-(1.0 + 0.5 * j)], [1.0 + 0.5 * j], 101)
              for j in (1, 2, 3)}
    return exhaustion_family(2, omegas)


@pytest.fixture(scope="module")
def strips():
    return exp_strips_family(2, 3, (-4.0, 4.0), (81, 72))


def test_eval_schwartz_value(schwartz_fam):
    val = eval_weight(schwartz_fam, WeightIndex(1, 2), [np.sqrt(3.0)])
    assert val == pytest.approx(4.0, abs=1e-12)


def test_eval_exhaustion_indicator(exhaustion):
    assert eval_weight(exhaustion, WeightIndex(1, 0), [0.5]) == 1.0
    assert eval_weight(exhaustion, WeightIndex(1, 0), [2.0]) == 0.0


def test_eval_exp_strip_origin_column(strips):
    # j=1 at (0, 1): exp(-0/2) = 1 and (0,1) sits inside the strip
    assert eval_weight(strips, WeightIndex(1, 0), [0.0, 1.0]) == pytest.approx(1.0)


def test_eval_weight_errors(schwartz_fam, domain_1d):
    with pytest.raises(UnknownIndexError):
        eval_weight(schwartz_fam, WeightIndex(9, 0), [0.0])
    with pytest.raises(DomainError):
        eval_weight(schwartz_fam, WeightIndex(1, 0), [100.0], domain=domain_1d)


def test_directed_schwartz_constant_one(schwartz_fam):
    region = fr.Region.box([-5.0], [5.0], 201)
    report = check_directed(schwartz_fam, region)
    assert report.passed
    for pair in report.pairs:
        assert pair.constant == pytest.approx(1.0)
        assert pair.dominating.l == max(pair.first.l, pair.second.l)


def test_directed_reassert_dominance(schwartz_fam):
    # whenever the report passes, the returned triple dominates on the grid
    region = fr.Region.box([-5.0], [5.0], 201)
    report = check_directed(schwartz_fam, region)
    pts = region.grid_points()
    for pair in report.pairs[:6]:
        lhs = np.maximum(schwartz_fam.eval_batch(pair.first, pts),
                         schwartz_fam.eval_batch(pair.second, pts))
        rhs = pair.constant * schwartz_fam.eval_batch(pair.dominating, pts)
        assert np.all(lhs <= rhs + 1e-12)


def test_directed_disjoint_indicators_fail():
    fam = custom_family(0, {(1, 0): "indicator(0, 1)", (2, 0): "indicator(2, 3)"}, 1)
    report = check_directed(fam, fr.Region.box([-1.0], [4.0], 251))
    assert not report.passed
    bad = [p for p in report.pairs if not p.passed]
    assert bad and bad[0].witness is not None


def test_directed_exhaustion_max_index(exhaustion):
    report = check_directed(exhaustion, fr.Region.box([-3.0], [3.0], 241))
    assert report.passed
    for pair in report.pairs:
        assert pair.constant == pytest.approx(1.0)
        assert pair.dominating.j == max(pair.first.j, pair.second.j)


def test_locally_bounded_schwartz_value(schwartz_fam):
    K = fr.Region.box([-3.0], [3.0], 301)
    report = check_locally_bounded(schwartz_fam, K)
    assert report.passed
    assert report.sups[(1, 2)] == pytest.approx(10.0)


def test_locally_bounded_exhaustion_and_strips(exhaustion, strips):
    K = fr.Region.box([-1.0], [1.0], 101)
    assert check_locally_bounded(exhaustion, K).sups[(1, 0)] == 1.0
    Kbox = Region.box([-2.0, 1.0], [2.0, 2.0], (41, 11))
    report = check_locally_bounded(strips, Kbox)
    assert report.sups[(1, 0)] == pytest.approx(1.0)  # e^0 at x1 = 0


def test_away_from_zero_schwartz(schwartz_fam):
    K = fr.Region.box([-2.0], [2.0], 101)
    report = check_locally_bounded_away_from_zero(schwartz_fam, K)
    assert report.passed
    for l in range(3):
        j, inf = report.chosen(l)
        assert inf >= 1.0


def test_away_from_zero_exhaustion_failure(exhaustion):
    # K pokes beyond every declared Omega_j, so the indicators vanish on it
    K = fr.Region.box([-2.9], [2.9], 101)
    report = check_locally_bounded_away_from_zero(exhaustion, K)
    assert not report.passed


def test_away_from_zero_strip_value(strips):
    K = Region.box([-2.0, 1.0], [2.0, 2.0], (41, 11))
    report = check_locally_bounded_away_from_zero(strips, K)
    assert report.passed
    j, inf = report.chosen(0)
    assert j == 1
    assert inf == pytest.approx(np.exp(-1.0))


def test_vanishing_ratio_schwartz_radius(schwartz_fam):
    search = fr.Region.box([-12.0], [12.0], 961)
    K = check_vanishing_ratio(schwartz_fam, WeightIndex(1, 0), WeightIndex(1, 2),
                              0.01, search)
    assert K is not None
    halfwidth = K.boxes[0].hi[0]
    assert abs(halfwidth - np.sqrt(99.0)) <= search.spacing()[0] + 1e-12


def test_vanishing_ratio_eps_ge_one_degenerate(schwartz_fam):
    search = fr.Region.box([-12.0], [12.0], 961)
    K = check_vanishing_ratio(schwartz_fam, WeightIndex(1, 0), WeightIndex(1, 2),
                              1.0, search)
    assert K is not None
    assert K.volume() == 0.0


def test_vanishing_ratio_exhaustion_self(exhaustion):
    search = fr.Region.box([-3.0], [3.0], 241)
    K = check_vanishing_ratio(exhaustion, WeightIndex(1, 0), WeightIndex(1, 0),
                              0.5, search)
    assert K is not None
    # K recovers Omega_1 = [-1.5, 1.5] up to one grid step
    assert abs(K.boxes[0].hi[0] - 1.5) <= search.spacing()[0] + 1e-12


def test_vanishing_ratio_monotone_in_eps(schwartz_fam):
    search = fr.Region.box([-12.0], [12.0], 961)
    K1 = check_vanishing_ratio(schwartz_fam, WeightIndex(1, 0), WeightIndex(1, 2),
                               0.02, search)
    K2 = check_vanishing_ratio(schwartz_fam, WeightIndex(1, 0), WeightIndex(1, 2),
                               0.08, search)
    assert K1.boxes[0].hi[0] >= K2.boxes[0].hi[0]
    # a K valid for the smaller eps stays valid for the larger one
    pts = search.grid_points()
    outside = ~K1.contains(pts)
    lhs = schwartz_fam.eval_batch(WeightIndex(1, 0), pts[outside])
    rhs = schwartz_fam.eval_batch(WeightIndex(1, 2), pts[outside])
    assert np.all(lhs <= 0.08 * rhs + 1e-300)


def _indicator_ratio(lo, hi):
    """nu_{1,0} = indicator(lo, hi) against nu_{2,0} = 1 on [-3, 6] at eps 0.5."""
    fam = custom_family(0, {(1, 0): f"indicator({lo}, {hi})", (2, 0): "1"}, 1)
    return check_vanishing_ratio(fam, WeightIndex(1, 0), WeightIndex(2, 0), 0.5,
                                 Region.box([-3.0], [6.0], 901))


def test_vanishing_ratio_asymmetric_window_interior_set():
    # the violating set [-1, 4.5] reaches past 3, the nearer edge's distance
    # from the origin, yet touches neither edge of [-3, 6]
    K = _indicator_ratio(-1, 4.5)
    assert K is not None and len(K.boxes) == 1
    assert K.boxes[0].lo[0] == -3.0
    assert K.boxes[0].hi[0] == pytest.approx(4.5, abs=1e-12)


def test_vanishing_ratio_hit_on_the_edge_refused():
    assert _indicator_ratio(-3, 1) is None


def test_structure_consistency(strips, exhaustion):
    # find_tail_compact clips to structure_region(j): that is sound only if
    # every nu_{j,l} is exactly 0 outside it
    grids = {"exp_strips": Region.box([-5.0, -5.0], [5.0, 5.0], 101).grid_points(),
             "exhaustion": Region.box([-4.0], [4.0], 161).grid_points()}
    for fam in (strips, exhaustion):
        pts = grids[fam.kind]
        for idx in fam.indices():
            inside = fam.structure_region(idx.j).contains(pts)
            vals = fam.eval_batch(idx, pts)
            assert inside.any() and not inside.all()
            assert np.all(vals[~inside] == 0.0)
            assert np.all(vals[inside] > 0.0)


def test_monotone_in_l(schwartz_fam, strips):
    pts = np.linspace(-4, 4, 41)[:, None]
    for l in (0, 1):
        lo = schwartz_fam.eval_batch(WeightIndex(1, l), pts)
        hi = schwartz_fam.eval_batch(WeightIndex(1, l + 1), pts)
        assert np.all(lo <= hi + 1e-15)
    spts = np.array([[0.5, 1.0], [2.0, -1.0]])
    for l in (0, 1):
        lo = strips.eval_batch(WeightIndex(2, l), spts)
        hi = strips.eval_batch(WeightIndex(2, l + 1), spts)
        assert np.all(lo <= hi + 1e-15)
