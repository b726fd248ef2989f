"""Finite-rank approximation at order zero via a partition of unity.

A greedy farthest-point cover of the tail compact K by metric balls certifies
the value oscillation eps/N inside every ball (N = 1 + sup of the weight on
the inflated neighbourhood W). Smooth bumps on the balls, normalized under a
cut-off that is 1 on K, give the partition; the approximant interpolates f at
the ball centers. So the cover fixes g: build_partition makes g from it, and
the localization report keeps the cover itself (None when g = 0).

A ball's radius lies half-way between the nearest violator (a point whose
value is off the centre's by the target) and the farthest point nearer than
it. Each centre reads one strip of the points, found by one sort on the first
coordinate as in _bump_matrix. Its half-width, the reach, starts at twice the
last radius or at D, the largest distance from an uncovered point to its
nearest centre, whichever is larger (every point for the first ball). It
doubles until a violator lies within it or the strip holds every point, so
every nearer point is inside. The strip's distances then update one array,
each point's distance to the nearest centre or -1 once covered, whose argmax
picks the next centre: a point off the strip is farther than D and than the
radius from the new centre, so neither its entry nor its cover can change.
Each distance and deviation is one point's row, so the cover equals the
all-points scan's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoverDefectError, GeometryError, ResolutionError
from .funcmodel import FiniteRankFunction, SampledFunction, SeminormIndex, sf_zero
from .geometry import Region
from .cutoff import build_cutoff
# weighted_seminorm stays bound for perfbench/trace_layers.py, which rebinds it
from .seminorms import (SeminormValue, find_tail_compact, jet_difference,  # noqa: F401
                        jet_seminorm, sample_jet, weighted_seminorm)
from .weights import WeightFamily, WeightIndex

# The most points the cover-defect audit checks at once. The audit's grid
# refines K's 3 times per axis, and its candidate bump pairs for one block,
# not for the whole grid, set the memory of a 2D partition.
AUDIT_POINTS = 8192


@dataclass
class Cover:
    centers: np.ndarray          # (n, d) ball centers, all in K
    radii: np.ndarray            # (n,) certified oscillation radii
    values: np.ndarray           # (n, m) f at the centers
    N_const: float
    target_osc: float

    @property
    def n_centers(self) -> int:
        return len(self.centers)


def oscillation_cover(f: SampledFunction, K: Region, fam: WeightFamily, j: int,
                      alpha: SeminormIndex, eps: float,
                      cover_margin: float = 0.0,
                      extra_points: Optional[np.ndarray] = None) -> Cover:
    """Greedy farthest-point ball cover with certified value oscillation.

    Certification runs over K's grid plus any extra points (e.g. domain-grid
    points near K, which the seminorm scans will hit); centers stay inside K.
    Every certification point must fall strictly inside some ball with
    `cover_margin` slack, so continuum points that close to the grid remain
    covered.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if K.is_empty:
        raise GeometryError("cannot cover an empty compact")
    step = np.max(K.spacing())
    W = K.inflate(f.domain.spacing())
    n_const = 1.0 + float(np.max(fam.eval_batch(WeightIndex(j, 0), W.grid_points())))
    target = eps / n_const

    kpts = K.grid_points()
    pts = kpts if extra_points is None else np.concatenate(
        [kpts, np.atleast_2d(extra_points)])
    vals = f.eval(pts)
    center_ok = K.contains(pts)
    ok_idx = np.where(center_ok)[0]
    ok_pts = pts[ok_idx]
    order = np.argsort(pts[:, 0], kind="stable")
    sorted_pts, sorted_vals, first_coord = pts[order], vals[order], pts[order, 0]

    def ball(ci: int, reach: float) -> tuple[float, np.ndarray, np.ndarray]:
        """(radius, the strip's point indices, their distances to point ci)."""
        c = pts[ci]
        while True:
            hair = reach * (1.0 + 1e-6)
            lo = first_coord.searchsorted(c[0] - hair, side="left")
            hi = first_coord.searchsorted(c[0] + hair, side="right")
            strip = np.linalg.norm(sorted_pts[lo:hi] - c, axis=1)
            near, dist = sorted_vals[lo:hi], strip
            whole = lo == 0 and hi == len(pts)
            if not whole:
                inside = strip <= reach
                near, dist = near[inside], strip[inside]
            violating = alpha.apply(near - vals[ci]) >= target
            hit = violating.any()
            if whole or hit:
                break
            reach *= 2.0
        if not hit:
            r = float(dist.max()) + step
        else:
            d_viol = float(dist[violating].min())
            d_ok = float(dist[dist < d_viol].max())
            r = 0.5 * (d_ok + d_viol)
        if r < 0.5 * step:
            raise ResolutionError(
                f"oscillation target {target:.3g} needs balls below the grid "
                f"resolution {step:.3g}")
        return r, order[lo:hi], strip

    # each point's distance to the nearest centre, or -1 once a ball covers it
    gap = np.full(len(pts), np.inf)
    far = int(np.argmax(center_ok))  # lexicographic-first K point
    center_idx, radii, taken = [], [], set()
    while gap[far] >= 0.0:
        if center_ok[far]:
            pick = far
        else:
            # snap a fringe certification point to the nearest admissible center
            pick = int(ok_idx[int(np.argmin(np.linalg.norm(ok_pts - pts[far], axis=1)))])
        if pick in taken:
            raise ResolutionError(
                "cover cannot close: a certification point stays uncovered at "
                f"{pts[far]}; refine the grid or relax the tolerance")
        taken.add(pick)
        center_idx.append(pick)
        last = radii[-1] if radii else step
        r, rows, d_new = ball(pick, max(2.0 * max(last, step), gap[far]))
        radii.append(r)
        nearest = np.minimum(gap[rows], d_new)
        nearest[d_new + cover_margin < r] = -1.0
        gap[rows] = nearest
        far = int(gap.argmax())

    return Cover(
        centers=pts[center_idx],
        radii=np.asarray(radii),
        values=vals[center_idx],
        N_const=n_const,
        target_osc=target,
    )


def _bump_matrix(points: np.ndarray, centers: np.ndarray,
                 radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-zero exp(-1/(1-|u|^2)) bumps, u = (x - c) / r, as (rows, cols, vals).

    Pair k is bump rows[k] at point cols[k]; rows ascend. Each bump is
    evaluated only at the points whose first coordinate lies within a hair
    of its radius, found by one sort and a searchsorted. Every other point
    has |u|^2 > 1, where the flatness cutoff makes the bump exactly 0, so
    the pairs are the non-zero entries of the all-pairs formula.
    """
    order = np.argsort(points[:, 0], kind="stable")
    first = points[order, 0]
    reach = radii * (1.0 + 1e-6)
    lo = np.searchsorted(first, centers[:, 0] - reach, side="left")
    hi = np.searchsorted(first, centers[:, 0] + reach, side="right")
    counts = hi - lo
    rows = np.repeat(np.arange(len(centers)), counts)
    # pair k of row r takes sorted position lo[r] + (k - first pair of row r)
    offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    cols = order[offsets + np.arange(len(rows))]
    diffs = (points[cols] - centers[rows]) / radii[rows, None]
    t = np.einsum("nd,nd->n", diffs, diffs)
    mask = t < 1.0 - 1e-8
    vals = np.exp(-1.0 / (1.0 - t[mask]))
    live = vals != 0.0                     # exp underflows next to the rim
    return rows[mask][live], cols[mask][live], vals[live]


def _point_sums(cols: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """(n,) sums of the pair weights at each point, added in pair order."""
    # bincount returns integers when there are no pairs
    return np.bincount(cols, weights=weights, minlength=n).astype(float, copy=False)


class PartitionBasis:
    """All partition functions evaluated together as sparse triples."""

    def __init__(self, cover: Cover, theta: SampledFunction):
        self.cover = cover
        self.theta = theta
        # nothing is cached; perfbench/trace_layers.py reads this attribute
        # to count cache hits
        self._key = None

    def eval_all(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, phis): phi_rows(x_cols) at every non-zero bump.

        A point's bump sum adds its bumps in row order, whatever else is in
        the batch, so every value depends on its own point alone.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        theta = self.theta.eval_extended(pts)[:, 0]
        rows, cols, bumps = _bump_matrix(pts, self.cover.centers, self.cover.radii)
        total = _point_sums(cols, bumps, len(pts))
        return rows, cols, theta[cols] * bumps / total[cols]

    def factor_values(self, points: np.ndarray) -> np.ndarray:
        """(N, rank) matrix of phi_i at the points."""
        rows, cols, phis = self.eval_all(points)
        out = np.zeros((len(points), self.cover.n_centers))
        out[cols, rows] = phis
        return out

    def combine(self, points: np.ndarray, values: np.ndarray) -> np.ndarray:
        """(N, m) sums sum_i phi_i(x) values[i], each added in row order."""
        rows, cols, phis = self.eval_all(points)
        return np.stack([_point_sums(cols, phis * values[rows, k], len(points))
                         for k in range(values.shape[1])], axis=1)


def build_partition(cover: Cover, K: Region,
                    domain: Region) -> tuple[FiniteRankFunction, PartitionBasis]:
    """g = sum_i phi_i (x) f(c_i), phi_i = theta * b_i / sum(b), summing to 1 on K.

    g.factors is the map x -> (phi_1(x), ..., phi_rank(x)) as one
    R^rank-valued function. Both it and the sum g.sampled live on `domain`,
    whose grid their convolutions' lattices match, and take the support of
    the cut-off theta, whose width is two thirds of K's finest step.
    """
    theta = build_cutoff(K, (2.0 / 3.0) * float(np.min(K.spacing())))
    basis = PartitionBasis(cover, theta)

    # cover-defect audit: sum of bumps must be positive on all of supp theta,
    # AUDIT_POINTS points at a time; the witness is the first bad point
    check = theta.support.with_resolution(
        tuple(3 * (n - 1) + 1 for n in K.points_per_axis))
    pts = check.grid_points()
    for start in range(0, len(pts), AUDIT_POINTS):
        block = pts[start:start + AUDIT_POINTS]
        theta_vals = theta.eval_extended(block)[:, 0]
        _, cols, bumps = _bump_matrix(block, cover.centers, cover.radii)
        total = _point_sums(cols, bumps, len(block))
        bad = (theta_vals > 1e-300) & (total <= 0.0)
        if np.any(bad):
            witness = block[int(np.argmax(bad))]
            raise CoverDefectError(
                f"bump sum vanishes inside the cut-off support at {witness}")

    # no derivative is implemented, so the map declares order 0; its
    # mollified copy takes the mollifier's order
    factors = SampledFunction(
        domain=domain,
        order=0,
        value_dim=cover.n_centers,
        evaluator=basis.factor_values,
        support=theta.support,
        name="phi",
    )
    values = np.asarray(cover.values)
    # every phi_i carries the cut-off factor, so the sum vanishes outside
    # theta's support: one support for any rank
    sampled = SampledFunction(
        domain=domain,
        order=0,
        value_dim=values.shape[1],
        evaluator=lambda pts: basis.combine(pts, values),
        support=theta.support,
        name="finite_rank",
    )
    return FiniteRankFunction(factors, values, sampled), basis


@dataclass
class LocalizationReport:
    rank: int
    measured: SeminormValue
    K: Region
    cover: Optional[Cover]       # None for the zero result, which needs no cover


def finite_rank_c0_approx(f: SampledFunction, fam: WeightFamily, j: int,
                          alpha: SeminormIndex, eps: float,
                          support_constraint: Optional[Region] = None, *,
                          jet: np.ndarray,
                          ) -> tuple[FiniteRankFunction, LocalizationReport]:
    """Order-zero finite-rank approximation with the 4 eps proof-chain bound.

    Both scans read jet, f's order-0 jet on its domain grid (sample_jet).
    """
    idx = WeightIndex(j, 0)
    pts = f.domain.grid_points()
    step = float(np.min(f.domain.spacing()))
    K = find_tail_compact(f, fam, idx, alpha, eps, delta=step, jet=jet)
    if K.is_empty or K.volume() == 0.0:
        full = jet_seminorm(jet, pts, [f.support], fam, idx, alpha, f.name)
        if K.is_empty or full.value < eps:
            # no point reaches eps: g = 0 leaves the whole seminorm, below eps
            zero = FiniteRankFunction(sf_zero(f.domain, 0, order=0),
                                      np.zeros((0, f.value_dim)),
                                      sf_zero(f.domain, f.value_dim, order=0))
            return zero, LocalizationReport(0, full, K, None)
        # a single high point survived the tail search; widen to one grid cell
        K = K.inflate(0.5 * np.asarray(f.domain.spacing())).intersect(f.domain)

    s = (2.0 / 3.0) * float(np.min(K.spacing()))
    if support_constraint is not None:
        # trim K back into the constraint; the weighted integrand vanishes on
        # the trimmed sliver (it lies outside supp f), so the tail bound holds
        K = K.intersect(support_constraint.deflate(0.75 * s))
        if K.is_empty:
            raise GeometryError("support constraint leaves no room for the tail compact")
        s = (2.0 / 3.0) * float(np.min(K.spacing()))
        if not support_constraint.covers(K.inflate(0.75 * s)):
            raise GeometryError("support constraint does not contain the inflated tail compact")
    halfdiag = 0.5 * float(np.linalg.norm(K.spacing()))
    margin = 0.75 * s + halfdiag

    # the seminorm scans hit domain-grid points near K; certify those too
    near = K.inflate(0.75 * s).contains(pts)
    cover = oscillation_cover(f, K, fam, j, alpha, eps,
                              cover_margin=margin, extra_points=pts[near])
    g, _ = build_partition(cover, K, f.domain)
    measured = jet_difference(f, jet, g.sampled, sample_jet(g.sampled, idx, pts), pts,
                              fam, idx, alpha)
    return g, LocalizationReport(g.rank, measured, K, cover)
