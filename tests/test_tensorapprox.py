import numpy as np
import pytest

from finiterank import tensorapprox
from finiterank.errors import CoverDefectError, GeometryError, OrderError, ResolutionError
from finiterank.funcmodel import SampledFunction, SeminormIndex, sf_zero
from finiterank.geometry import Region
from finiterank.pipeline import approximate
from finiterank.scenarios import load_scenario
from finiterank.seminorms import weighted_seminorm
from finiterank.tensorapprox import (Cover, _bump_matrix, build_partition,
                                     finite_rank_c0_approx, oscillation_cover)
from finiterank.weights import WeightIndex, exp_strips_family, schwartz_family
import expected
from oracles import (dense_bump_matrix, dense_partition, domain_jet,
                     oscillation_cover_allpoints)


def _jet0(f):
    """f's order-0 jet on its domain grid, the jet finite_rank_c0_approx takes."""
    return domain_jet(f, WeightIndex(1, 0))


def _linear(domain):
    return SampledFunction(domain=domain, order=2, value_dim=1,
                           evaluator=lambda p: p[:, 0:1],
                           derivative=lambda b, p: (p[:, 0:1] if sum(b) == 0
                                                    else np.ones((len(p), 1))
                                                    if sum(b) == 1
                                                    else np.zeros((len(p), 1))))


def test_cover_constant_single_center(domain_1d, schwartz_fam, sup_alpha):
    c = SampledFunction(domain=domain_1d, order=0, value_dim=2,
                        evaluator=lambda p: np.tile([1.0, -0.5], (len(p), 1)))
    K = Region.box([-1.0], [1.0], 101)
    cover = oscillation_cover(c, K, schwartz_fam, 1, sup_alpha, 0.1)
    assert cover.n_centers == 1


def test_cover_zero_single_center(domain_1d, schwartz_fam, sup_alpha):
    z = sf_zero(domain_1d, 1)
    K = Region.box([-1.0], [1.0], 101)
    cover = oscillation_cover(z, K, schwartz_fam, 1, sup_alpha, 0.1)
    assert cover.n_centers == 1


def test_cover_linear_count_pinned(schwartz_fam, sup_alpha):
    dom = Region.box([0.0], [1.0], 201)
    f = _linear(dom)
    K = Region.box([0.0], [1.0], 201)
    cover = oscillation_cover(f, K, schwartz_fam, 1, sup_alpha, 0.2)
    assert cover.N_const == pytest.approx(2.0)
    assert cover.target_osc == pytest.approx(0.1)
    assert cover.n_centers >= expected.COVER_COUNT_LINEAR_MIN
    assert cover.n_centers == expected.COVER_COUNT_LINEAR
    # certified oscillation: every K-grid point sits strictly inside a ball
    # whose center value differs by less than the target
    pts = K.grid_points()
    vals = f.eval(pts)
    covered = np.zeros(len(pts), dtype=bool)
    for c, r, v in zip(cover.centers, cover.radii, cover.values):
        inside = np.linalg.norm(pts - c, axis=1) < r
        assert np.all(sup_alpha.apply(vals[inside] - v) < cover.target_osc)
        covered |= inside
    assert np.all(covered)


def test_cover_resolution_error(schwartz_fam, sup_alpha):
    dom = Region.box([0.0], [1.0], 21)     # step 0.05
    f = _linear(dom)
    K = Region.box([0.0], [1.0], 21)
    with pytest.raises(ResolutionError):
        oscillation_cover(f, K, schwartz_fam, 1, sup_alpha, 0.02)


def test_cover_refuses_an_empty_compact(domain_1d, schwartz_fam, sup_alpha):
    # the weight sup over the empty neighbourhood used to fail first, inside numpy
    with pytest.raises(GeometryError, match="empty compact"):
        oscillation_cover(sf_zero(domain_1d, 1), Region.empty(1), schwartz_fam, 1,
                          sup_alpha, 0.1)


def test_cover_snaps_a_fringe_point_to_a_centre_in_K(schwartz_fam, sup_alpha):
    # after the ball at 0, the farthest uncovered point is the extra point
    # 1.3 outside K; the next centre is the K point nearest to it, 1.0
    f = _linear(Region.box([0.0], [2.0], 201))
    K = Region.box([0.0], [1.0], 101)
    fringe = np.array([[1.3]])
    cover = oscillation_cover(f, K, schwartz_fam, 1, sup_alpha, 2.0, extra_points=fringe)
    assert np.array_equal(cover.centers, [[0.0], [1.0]])
    assert np.all(K.contains(cover.centers))
    assert np.linalg.norm(fringe[0] - cover.centers[1]) < cover.radii[1]


def _waves(domain):
    """Three coordinates that oscillate at different rates along every axis."""
    def evaluator(p):
        s = np.sum(p, axis=1)
        return np.stack([np.sin(3.0 * s), np.cos(2.0 * p[:, 0]), np.exp(-np.sum(p * p, axis=1))],
                        axis=1)
    return SampledFunction(domain=domain, order=0, value_dim=3, evaluator=evaluator)


def _step(domain, at=1.5 / 64):
    """0 left of `at` and 1 from there on: on K = [0, 1] at 65 points the first
    violator of the ball at 0 is the first grid point past `at`; for the
    default, 2/64, that is twice the step 1/64."""
    return SampledFunction(domain=domain, order=0, value_dim=1,
                           evaluator=lambda p: (p[:, 0:1] > at).astype(float))


def _step_2d(domain):
    """0 below y = 1.5/64 and 1 from there on: on K = [0, 1]^2 at 65 points per
    axis the first violator, (0, 2/64), lies twice the step from the first
    centre, and the extra point (2/64 (1 - 1e-7), 0) just nearer, on the first
    axis, is the farthest point nearer than the violator."""
    return SampledFunction(domain=domain, order=0, value_dim=1,
                           evaluator=lambda p: (p[:, 1:2] > 1.5 / 64).astype(float))


def _near(domain, K, r):
    """Domain-grid points within r of K, as finite_rank_c0_approx certifies."""
    pts = domain.grid_points()
    return pts[K.inflate(r).contains(pts)]


_FAM1, _FAM2 = schwartz_family(2, 3, 1), schwartz_family(2, 3, 2)
_DOM1 = Region.box([-3.0], [3.0], 601)
_DOM2 = Region.box([-2.0, -2.0], [2.0, 2.0], 81)
_K2 = Region.from_bounds([[-1.5, -1.0], [0.5, -1.0]], [[-0.5, 1.0], [1.5, 1.0]], 31)
_SUP = SeminormIndex("sup_all")
# (f, K, fam, alpha, eps, cover_margin, extra_points)
COVER_CASES = {
    "1d": (_waves(_DOM1), Region.box([-1.5], [1.5], 301), _FAM1, _SUP, 0.3, 0.0, None),
    "2d": (_waves(_DOM2), Region.box([-1.0, -1.0], [1.0, 1.0], 41), _FAM2, _SUP, 0.5, 0.0, None),
    "two_box_1d": (_waves(_DOM1), Region.from_bounds([[-2.0], [0.5]], [[-0.5], [2.0]], 151),
                   _FAM1, _SUP, 0.2, 0.0, None),
    "two_box_2d": (_waves(_DOM2), _K2, _FAM2, _SUP, 0.5, 0.0, None),
    "extra_points": (_waves(_DOM1), Region.box([-1.0], [1.0], 101), _FAM1, _SUP, 0.2, 0.0,
                     np.concatenate([_near(_DOM1, Region.box([-1.0], [1.0], 101), 0.03),
                                     [[1.025], [-1.015]]])),
    "margin": (_waves(_DOM1), Region.box([-1.5], [1.5], 301), _FAM1, _SUP, 0.3, 0.02, None),
    "margin_extra_2d": (_waves(_DOM2), _K2, _FAM2, _SUP, 1.0, 0.04, _near(_DOM2, _K2, 0.06)),
    "sup_subset": (_waves(_DOM1), Region.box([-1.5], [1.5], 301), _FAM1,
                   SeminormIndex("sup_subset", subset=(1,)), 0.3, 0.0, None),
    "weighted_sup": (_waves(_DOM2), Region.box([-1.0, -1.0], [1.0, 1.0], 41), _FAM2,
                     SeminormIndex("weighted_sup", coord_weights=(0.5, 2.0, 1.0)), 0.5, 0.0,
                     None),
    "no_violation": (sf_zero(_DOM2, 2), _K2, _FAM2, _SUP, 0.1, 0.0, None),
    "violator_on_first_reach": (_step(Region.box([0.0], [1.0], 65)),
                                Region.box([0.0], [1.0], 65), _FAM1, _SUP, 1.0, 0.0, None),
    "violator_on_first_reach_2d": (_step_2d(Region.box([0.0, 0.0], [1.0, 1.0], 65)),
                                   Region.box([0.0, 0.0], [1.0, 1.0], 65), _FAM2, _SUP, 1.0,
                                   0.0, np.array([[2.0 / 64 * (1.0 - 1e-7), 0.0]])),
    # the first ball reads every point, so its violator 6/64 needs no doubling
    "violator_beyond_first_reach": (_step(Region.box([0.0], [1.0], 65), at=5.5 / 64),
                                    Region.box([0.0], [1.0], 65), _FAM1, _SUP, 1.0, 0.0, None),
    # after the ball at 0, the points 1 and -1 of the two boxes tie at distance
    # 1: the pick is the lower index, 1, though -1 comes first along the axis
    "tie": (_linear(_DOM1), Region.from_bounds([[0.0], [-1.0]], [[1.0], [0.0]], 151), _FAM1,
            _SUP, 0.3, 0.0, None),
}


@pytest.fixture(scope="module")
def om_finite_cover_args():
    """The (args, kwargs) of the one cover in om_finite_1d's eps 0.1 run."""
    calls = []
    cover = tensorapprox.oscillation_cover
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensorapprox, "oscillation_cover",
                   lambda *a, **k: calls.append((a, k)) or cover(*a, **k))
        scn, f = load_scenario("om_finite_1d")
        approximate(f, scn, WeightIndex(1, 1), "sup", 0.1)
    (args, kwargs), = calls
    return args, kwargs


@pytest.mark.parametrize("case", sorted(COVER_CASES) + ["om_finite_1d"])
def test_cover_matches_the_all_points_scan(case, request):
    if case == "om_finite_1d":
        args, kwargs = request.getfixturevalue("om_finite_cover_args")
    else:
        f, K, fam, alpha, eps, margin, extra = COVER_CASES[case]
        args, kwargs = (f, K, fam, 1, alpha, eps), dict(cover_margin=margin, extra_points=extra)
    got = oscillation_cover(*args, **kwargs)
    want = oscillation_cover_allpoints(*args, **kwargs)
    assert np.array_equal(got.centers, want.centers)
    assert np.array_equal(got.radii, want.radii)
    assert np.array_equal(got.values, want.values)
    assert got.N_const == want.N_const
    assert got.target_osc == want.target_osc
    if case == "no_violation":
        # one ball, reaching one step past the farthest point
        K = args[1]
        pts = K.grid_points()
        far = np.max(np.linalg.norm(pts - got.centers[0], axis=1))
        assert got.radii.tolist() == [far + np.max(K.spacing())]
    elif case == "violator_on_first_reach":
        assert got.radii[0] == 0.5 * (1.0 / 64 + 2.0 / 64)
    elif case == "violator_on_first_reach_2d":
        assert got.radii[0] == 0.5 * (2.0 / 64 * (1.0 - 1e-7) + 2.0 / 64)
    elif case == "violator_beyond_first_reach":
        assert got.radii[0] == 0.5 * (5.0 / 64 + 6.0 / 64)
    elif case == "tie":
        assert got.centers[:2].tolist() == [[0.0], [1.0]]
    elif case == "om_finite_1d":
        assert got.n_centers == 177
    else:
        assert got.n_centers > 2


@pytest.mark.parametrize("eps,extra", [(0.02, None),                # balls below the grid
                                       (0.1, np.array([[1.3]]))])  # the fringe snaps twice
def test_cover_refusals_match_the_all_points_scan(schwartz_fam, sup_alpha, eps, extra):
    f = _linear(Region.box([0.0], [2.0], 41))
    K = Region.box([0.0], [1.0], 21)
    with pytest.raises(ResolutionError) as want:
        oscillation_cover_allpoints(f, K, schwartz_fam, 1, sup_alpha, eps, extra_points=extra)
    with pytest.raises(ResolutionError) as got:
        oscillation_cover(f, K, schwartz_fam, 1, sup_alpha, eps, extra_points=extra)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_cover_radius_search_reads_only_nearby_rows(monkeypatch, om_finite_cover_args):
    # the om_finite_1d eps 0.1 cover: 177 balls over 1,452 certification
    # points, so a scan of every point per ball reads 177 x 1,452 value rows
    args, kwargs = om_finite_cover_args
    rows = []
    apply = SeminormIndex.apply

    def counted(self, values):
        rows.append(len(np.atleast_2d(values)))
        return apply(self, values)

    monkeypatch.setattr(SeminormIndex, "apply", counted)
    result = oscillation_cover(*args, **kwargs)
    n_points = len(args[1].grid_points()) + len(kwargs["extra_points"])
    assert (result.n_centers, n_points) == (177, 1452)
    assert sum(rows) < 177 * 1452 / 10


def test_cover_update_reads_only_nearby_rows(monkeypatch, om_finite_cover_args):
    # each centre's distances, for its radius and for the update of every
    # point's distance to the nearest centre, come from one strip of points;
    # updating every point per centre computes 177 x 1,452 distance rows
    args, kwargs = om_finite_cover_args
    rows = []
    norm = np.linalg.norm

    def counted(x, *a, **k):
        rows.append(len(np.atleast_2d(x)))
        return norm(x, *a, **k)

    monkeypatch.setattr(np.linalg, "norm", counted)
    result = oscillation_cover(*args, **kwargs)
    assert result.n_centers == 177
    assert sum(rows) < 177 * 1452 / 10


def test_cover_defect_is_refused(monkeypatch, plane_waves_1d, schwartz_fam, sup_alpha):
    # one ball far from K leaves the bump sum 0 inside the cut-off's support
    far = Cover(centers=np.array([[50.0]]), radii=np.array([0.5]),
                values=np.zeros((1, plane_waves_1d.value_dim)), N_const=1.0, target_osc=0.1)
    monkeypatch.setattr(tensorapprox, "oscillation_cover", lambda *a, **k: far)
    with pytest.raises(CoverDefectError, match="bump sum vanishes"):
        finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha, 0.2,
                              jet=_jet0(plane_waves_1d))


def test_cover_defect_witness_does_not_depend_on_the_audit_blocks(
        monkeypatch, plane_waves_1d, schwartz_fam, sup_alpha):
    # the audit checks its grid in blocks and names the first bad point, the
    # one the whole grid in one block names; one ball over the left half of
    # the cut-off's support leaves the bump sum 0 from x = 0.4995 on, many
    # 7-point blocks into the grid
    left = Cover(centers=np.array([[-1.0]]), radii=np.array([1.5]),
                 values=np.zeros((1, plane_waves_1d.value_dim)), N_const=1.0, target_osc=0.1)
    monkeypatch.setattr(tensorapprox, "oscillation_cover", lambda *a, **k: left)
    bump_matrix, blocks, messages = tensorapprox._bump_matrix, [], []
    monkeypatch.setattr(tensorapprox, "_bump_matrix",
                        lambda pts, *a: blocks.append(len(pts)) or bump_matrix(pts, *a))
    for size in (7, 10**9):
        monkeypatch.setattr(tensorapprox, "AUDIT_POINTS", size)
        with pytest.raises(CoverDefectError, match=r"at \[0\.4995") as err:
            finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha, 0.2,
                                  jet=_jet0(plane_waves_1d))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert len(blocks) > 10 and max(blocks[:-1]) == 7


def test_partition_identities(domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    K = Region.box([-1.5], [1.5], 301)
    cover = oscillation_cover(gauss_1d, K, schwartz_fam, 1, sup_alpha, 0.3)
    factors = build_partition(cover, K, domain_1d)[0].factors
    assert factors.value_dim == cover.n_centers
    pts = K.grid_points()
    all_vals = factors.eval(pts).T
    total = np.sum(all_vals, axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    assert np.all(all_vals >= -1e-14)
    assert np.all(all_vals <= 1.0 + 1e-12)
    # sum bounded by one everywhere on the wider grid
    wide = Region.box([-3.0], [3.0], 601).grid_points()
    assert np.all(np.sum(factors.eval(wide).T, axis=0) <= 1.0 + 1e-12)
    # supports inside the certified balls (grid check), one factor per column
    wide_vals = factors.eval_extended(wide)
    for i in range(cover.n_centers):
        vals = wide_vals[:, i]
        dist = np.linalg.norm(wide - cover.centers[i], axis=1)
        assert np.all(vals[dist >= cover.radii[i]] == 0.0)


def _ball_points(rng, centers, radii, per_ball):
    """Points inside each ball, on its boundary along every axis, and far out."""
    d = centers.shape[1]
    out = []
    for c, r in zip(centers, radii):
        u = rng.uniform(-1.0, 1.0, (per_ball, d))
        out.append(c + r * u / np.sqrt(d))
        for axis in range(d):
            step = np.zeros(d)
            step[axis] = r
            out.extend([c + step, c - step])
    out.append(np.full((3, d), 50.0))
    return np.concatenate([np.atleast_2d(p) for p in out])


def _scatter(triples, shape):
    rows, cols, vals = triples
    out = np.zeros(shape)
    out[rows, cols] = vals
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_bump_matrix_matches_dense_formula(d, rng):
    centers = rng.uniform(-2.0, 2.0, (9, d))
    centers[1] = centers[0]                       # two bumps, one centre
    radii = rng.uniform(0.1, 0.8, 9)
    pts = _ball_points(rng, centers, radii, 40)
    bumps = _scatter(_bump_matrix(pts, centers, radii), (len(centers), len(pts)))
    assert np.array_equal(bumps, dense_bump_matrix(pts, centers, radii))
    rows = _bump_matrix(pts, centers, radii)[0]
    assert np.all(np.diff(rows) >= 0)
    assert np.count_nonzero(bumps) > 0
    # boundary points (|u| = 1 along an axis) and far points get exact zeros
    dist = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2)
    assert np.all(bumps[dist >= radii[:, None]] == 0.0)
    empty = _scatter(_bump_matrix(np.empty((0, d)), centers, radii), (len(centers), 0))
    assert empty.shape == (9, 0)


def test_eval_all_matches_dense_partition(gauss_1d, schwartz_fam, sup_alpha):
    K = Region.box([-1.5], [1.5], 301)
    cover = oscillation_cover(gauss_1d, K, schwartz_fam, 1, sup_alpha, 0.3)
    g, basis = build_partition(cover, K, gauss_1d.domain)
    factors = g.factors
    pts = Region.box([-3.0], [3.0], 1201).grid_points()
    theta = basis.theta.eval_extended(pts)[:, 0]
    dense = dense_partition(theta, dense_bump_matrix(pts, cover.centers, cover.radii))
    phis = factors.eval(pts).T
    assert np.array_equal(phis, dense)
    assert np.any(np.sum(phis, axis=0) == 0.0)     # points off every ball


def test_partition_values_depend_on_the_point_only(rng):
    # 21 bumps that all overlap: every point sums many of them
    K = Region.box([-1.0], [1.0], 201)
    cover = Cover(centers=np.linspace(-0.2, 0.2, 21)[:, None],
                  radii=np.full(21, 1.5), values=rng.normal(size=(21, 3)),
                  N_const=1.0, target_osc=0.1)
    g, _ = build_partition(cover, K, Region.box([-2.0], [2.0], 401))
    pts = Region.box([-1.5], [1.5], 301).grid_points()
    for fn in (g.factors, g.sampled):
        whole = fn.eval(pts)
        alone = np.concatenate([fn.eval(pts[i:i + 1]) for i in range(len(pts))])
        assert np.array_equal(alone, whole)
    # the per-point sums reorder the matrix product's additions only
    np.testing.assert_allclose(g.sampled.eval(pts), g.factors.eval(pts) @ cover.values,
                               rtol=0.0, atol=1e-13)


def test_unsmoothed_factors_declare_order_zero(plane_waves_1d, schwartz_fam,
                                               sup_alpha):
    # the factor map has no derivative; a derivative seminorm must refuse it
    # instead of reading finite differences
    g, _ = finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha, 0.2,
                                 jet=_jet0(plane_waves_1d))
    assert g.factors.order == 0
    with pytest.raises(OrderError):
        weighted_seminorm(g.factors, schwartz_fam, WeightIndex(1, 1), sup_alpha)


def test_partition_single_center_equals_cutoff(domain_1d, schwartz_fam, sup_alpha):
    c = SampledFunction(domain=domain_1d, order=0, value_dim=1,
                        evaluator=lambda p: np.ones((len(p), 1)))
    K = Region.box([-0.5], [0.5], 101)
    cover = oscillation_cover(c, K, schwartz_fam, 1, sup_alpha, 0.5)
    assert cover.n_centers == 1
    factors = build_partition(cover, K, domain_1d)[0].factors
    pts = K.grid_points()
    assert factors.value_dim == 1
    assert np.max(np.abs(factors.eval(pts)[:, 0] - 1.0)) <= 1e-12


def test_finite_rank_zero(domain_1d, schwartz_fam, sup_alpha):
    z = sf_zero(domain_1d, 2)
    g, report = finite_rank_c0_approx(z, schwartz_fam, 1, sup_alpha, 0.1, jet=_jet0(z))
    assert g.rank == 0
    assert report.measured.value == 0.0
    assert report.measured.value < 4 * 0.1


def test_finite_rank_zero_on_an_empty_tail_compact(sup_alpha):
    # no Omega_j holds the origin, so the tail search of the zero function
    # keeps no point at all: K is empty and g = 0
    fam = exp_strips_family(2, 3, (-4, 4), (41, 36))
    dom = fam.structure_region(3)
    z = sf_zero(dom, 2)
    g, report = finite_rank_c0_approx(z, fam, 1, sup_alpha, 0.1, jet=_jet0(z))
    assert report.K.is_empty
    assert g.rank == report.rank == 0
    assert g.values.shape == (0, 2)
    assert report.measured.value == 0.0
    assert np.all(g.sampled.eval(dom.grid_points()) == 0.0)


def test_finite_rank_zero_below_the_tolerance(gauss_1d, schwartz_fam, sup_alpha):
    # no grid point reaches a tolerance above |f|_{1,0}: the tail search
    # returns the degenerate box {0}, and g = 0 is the answer, not a cover
    # of one widened grid cell
    full = weighted_seminorm(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha)
    assert full.value > 0.0
    g, report = finite_rank_c0_approx(gauss_1d, schwartz_fam, 1, sup_alpha,
                                      2.0 * full.value, jet=_jet0(gauss_1d))
    assert g.rank == report.rank == 0
    assert report.cover is None
    assert report.measured.value == full.value


def test_finite_rank_rank_one_truth(domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    # f = phi (x) e for one fixed vector e: the approximant's values stay
    # proportional to e and the bound holds
    e = np.array([2.0, -1.0, 0.5])
    f = SampledFunction(domain=domain_1d, order=6, value_dim=3,
                        evaluator=lambda p: gauss_1d.eval(p) * e[None, :],
                        derivative=lambda b, p: gauss_1d.deriv(b, p) * e[None, :])
    eps = 0.05
    g, report = finite_rank_c0_approx(f, schwartz_fam, 1, sup_alpha, eps, jet=_jet0(f))
    assert report.measured.value < 4 * eps
    assert g.values.shape == (g.rank, 3)
    for value in g.values:
        cross = np.linalg.norm(np.cross(value / np.linalg.norm(e), e / np.linalg.norm(e)))
        assert cross < 1e-12


@pytest.mark.parametrize("eps,rank_key", [(0.2, "LOC_RANK_EPS_02"),
                                          (0.05, "LOC_RANK_EPS_005")])
def test_finite_rank_plane_waves(eps, rank_key, plane_waves_1d, schwartz_fam, sup_alpha):
    g, report = finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha, eps,
                                      jet=_jet0(plane_waves_1d))
    assert report.measured.value < 4 * eps
    assert report.rank == getattr(expected, rank_key)
    assert report.rank == report.cover.n_centers


def test_rank_monotone_in_eps(plane_waves_1d, schwartz_fam, sup_alpha):
    ranks = []
    for eps in (0.4, 0.2, 0.1):
        _, report = finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha, eps,
                                          jet=_jet0(plane_waves_1d))
        ranks.append(report.rank)
    assert ranks[0] <= ranks[1] <= ranks[2]


def test_sampled_support_independent_of_rank(plane_waves_1d, schwartz_fam, sup_alpha):
    # the sum carries the cut-off factor, so it takes the cut-off's support
    # instead of one box per term
    ranks, box_counts = [], []
    for eps in (0.4, 0.1):
        g, report = finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha, eps,
                                          jet=_jet0(plane_waves_1d))
        ranks.append(g.rank)
        box_counts.append(len(g.sampled.support.boxes))
        assert box_counts[-1] == len(report.K.boxes)
    assert ranks[0] < ranks[1]
    assert box_counts[0] == box_counts[1] < ranks[0]


def test_support_constraint_honored(gauss_1d, schwartz_fam, sup_alpha, domain_1d):
    V = Region.box([-3.5], [3.5], 701)
    g, report = finite_rank_c0_approx(gauss_1d, schwartz_fam, 1, sup_alpha, 0.1,
                                      support_constraint=V, jet=_jet0(gauss_1d))
    assert report.measured.value < 4 * 0.1
    pts = domain_1d.grid_points()
    outside = ~V.contains(pts)
    # column i of the factor map is phi_i
    assert np.all(g.factors.eval_extended(pts)[outside] == 0.0)
    assert np.all(g.sampled.eval_extended(pts)[outside] == 0.0)


def test_interpolation_property_at_centers(plane_waves_1d, schwartz_fam, sup_alpha):
    # oscillation certified against the center value inside each ball
    K = Region.box([-2.0], [2.0], 401)
    cover = oscillation_cover(plane_waves_1d, K, schwartz_fam, 1, sup_alpha, 0.2)
    pts = K.grid_points()
    vals = plane_waves_1d.eval(pts)
    exact = plane_waves_1d.eval(cover.centers)
    assert np.max(np.abs(exact - cover.values)) == 0.0
    for c, r, v in zip(cover.centers, cover.radii, cover.values):
        inside = np.linalg.norm(pts - c, axis=1) < r
        devs = sup_alpha.apply(vals[inside] - v)
        assert np.all(devs < cover.target_osc)
