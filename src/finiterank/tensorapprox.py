"""Finite-rank approximation at order zero via a partition of unity.

A greedy farthest-point cover of the tail compact K by metric balls certifies
the value oscillation eps/N inside every ball (N = 1 + sup of the weight on
the inflated neighbourhood W). Smooth bumps on the balls, normalized under a
cut-off that is 1 on K, give the partition; the approximant interpolates f at
the ball centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoverDefectError, GeometryError, ResolutionError
from .funcmodel import FiniteRankFunction, SampledFunction, SeminormIndex, sf_zero
from .geometry import Region
from .mollify import QuadratureSpec
from .cutoff import build_cutoff
from .seminorms import SeminormValue, difference_seminorm, find_tail_compact, weighted_seminorm
from .weights import WeightFamily, WeightIndex


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
    step = np.max(K.spacing()) if not K.is_empty else np.max(f.domain.spacing())
    W = K.inflate(f.domain.spacing())
    n_const = 1.0 + float(np.max(fam.eval_batch(WeightIndex(j, 0), W.grid_points())))
    target = eps / n_const

    kpts = K.grid_points()
    if len(kpts) == 0:
        raise GeometryError("cannot cover an empty compact")
    pts = kpts if extra_points is None else np.concatenate(
        [kpts, np.atleast_2d(extra_points)])
    vals = f.eval(pts)
    center_ok = K.contains(pts)

    def ball_radius(ci: int) -> float:
        dev = alpha.apply(vals - vals[ci])
        dist = np.linalg.norm(pts - pts[ci], axis=1)
        violating = dev >= target
        if not np.any(violating):
            r = float(np.max(dist)) + step
        else:
            d_viol = float(np.min(dist[violating]))
            d_ok = float(np.max(dist[dist < d_viol]))
            r = 0.5 * (d_ok + d_viol)
        if r < 0.5 * step:
            raise ResolutionError(
                f"oscillation target {target:.3g} needs balls below the grid "
                f"resolution {step:.3g}")
        return r

    first = int(np.argmax(center_ok))  # lexicographic-first K point
    center_idx = [first]
    radii = [ball_radius(first)]
    dist_to_centers = np.linalg.norm(pts - pts[first], axis=1)
    covered = dist_to_centers + cover_margin < radii[0]
    taken = {first}
    while not np.all(covered):
        cand = np.where(~covered)[0]
        far = int(cand[int(np.argmax(dist_to_centers[cand]))])
        if center_ok[far]:
            pick = far
        else:
            # snap a fringe certification point to the nearest admissible center
            d = np.linalg.norm(pts[center_ok] - pts[far], axis=1)
            pick = int(np.where(center_ok)[0][int(np.argmin(d))])
        if pick in taken:
            raise ResolutionError(
                "cover cannot close: a certification point stays uncovered at "
                f"{pts[far]}; refine the grid or relax the tolerance")
        taken.add(pick)
        center_idx.append(pick)
        r = ball_radius(pick)
        radii.append(r)
        d_new = np.linalg.norm(pts - pts[pick], axis=1)
        covered |= d_new + cover_margin < r
        dist_to_centers = np.minimum(dist_to_centers, d_new)

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
                    quad: QuadratureSpec) -> tuple[SampledFunction, PartitionBasis]:
    """Smooth partition: phi_i = theta * b_i / sum(b), equal to 1 summed on K.

    Returns the factor map x -> (phi_1(x), ..., phi_rank(x)) as one
    R^rank-valued function, supported where the cut-off theta is.
    """
    step = float(np.min(K.spacing())) if not K.is_empty else 1.0
    s = (2.0 / 3.0) * step
    theta_cut = build_cutoff(K, s, 0, quad)
    theta = theta_cut.psi
    basis = PartitionBasis(cover, theta)

    # cover-defect audit: sum of bumps must be positive on all of supp theta
    check = theta.support.with_resolution(
        tuple(3 * (n - 1) + 1 for n in K.points_per_axis))
    pts = check.grid_points()
    theta_vals = theta.eval_extended(pts)[:, 0]
    _, cols, bumps = _bump_matrix(pts, cover.centers, cover.radii)
    total = _point_sums(cols, bumps, len(pts))
    bad = (theta_vals > 1e-300) & (total <= 0.0)
    if np.any(bad):
        witness = pts[int(np.argmax(bad))]
        raise CoverDefectError(
            f"bump sum vanishes inside the cut-off support at {witness}")

    # no derivative is implemented, so the map declares order 0; its
    # mollified copy takes the mollifier's order
    factors = SampledFunction(
        domain=theta.domain,
        order=0,
        value_dim=cover.n_centers,
        evaluator=basis.factor_values,
        support=theta.support,
        name="phi",
    )
    return factors, basis


def partition_sum(cover: Cover, K: Region, quad: QuadratureSpec,
                  domain: Region) -> FiniteRankFunction:
    """g = sum_i phi_i (x) f(c_i) over the partition of the cover."""
    factors, basis = build_partition(cover, K, quad)
    values = np.asarray(cover.values)
    # every phi_i carries the cut-off factor, so the sum vanishes outside
    # theta's support: one support for any rank
    sampled = SampledFunction(
        domain=domain,
        order=0,
        value_dim=values.shape[1],
        evaluator=lambda pts: basis.combine(pts, values),
        support=factors.support,
        name="finite_rank",
    )
    return FiniteRankFunction(factors, values, sampled)


@dataclass
class LocalizationReport:
    n_centers: int
    rank: int
    N_const: float
    eps: float
    measured: SeminormValue
    four_eps_ok: bool
    K: Region = None
    target_osc: float = 0.0


def finite_rank_c0_approx(f: SampledFunction, fam: WeightFamily, j: int,
                          alpha: SeminormIndex, eps: float, search: Region,
                          quad: QuadratureSpec,
                          support_constraint: Optional[Region] = None,
                          ) -> tuple[FiniteRankFunction, LocalizationReport]:
    """Order-zero finite-rank approximation with the 4 eps proof-chain bound."""
    idx = WeightIndex(j, 0)
    step = float(np.min(f.domain.spacing()))
    K = find_tail_compact(f, fam, idx, alpha, eps, delta=step, search=search)
    zero = FiniteRankFunction(sf_zero(f.domain, 0, order=0),
                              np.zeros((0, f.value_dim)),
                              sf_zero(f.domain, f.value_dim, order=0))

    if K.is_empty:
        # tail below eps outside nothing: the whole seminorm is below eps
        measured = weighted_seminorm(f, fam, idx, alpha)
        report = LocalizationReport(0, 0, 1.0, eps, measured,
                                    measured.value < 4 * eps, K, eps)
        return zero, report
    if K.volume() == 0.0:
        full = weighted_seminorm(f, fam, idx, alpha)
        if full.value == 0.0:
            report = LocalizationReport(0, 0, 1.0, eps, full, True, K, eps)
            return zero, report
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
    dom_pts = f.domain.grid_points()
    near = K.inflate(0.75 * s).contains(dom_pts)
    cover = oscillation_cover(f, K, fam, j, alpha, eps,
                              cover_margin=margin, extra_points=dom_pts[near])
    g = partition_sum(cover, K, quad, f.domain)
    measured = difference_seminorm(f, g.sampled, fam, idx, alpha)
    report = LocalizationReport(
        n_centers=cover.n_centers,
        rank=g.rank,
        N_const=cover.N_const,
        eps=eps,
        measured=measured,
        four_eps_ok=measured.value < 4 * eps,
        K=K,
        target_osc=cover.target_osc,
    )
    return g, report
