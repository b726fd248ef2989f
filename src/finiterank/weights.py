"""Weight families and the structural audits the approximation theorems assume.

A family holds evaluators nu_{j,l} >= 0 indexed by j in a finite list J and
derivative order l <= k_max. Standard-structure families factor as
indicator(Omega_j) * nutilde_{j,l} with closed-box membership, so boundary
points count as inside; such a family keeps its regions Omega_j, which the
tail-compact search clips to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnknownIndexError
from .expressions import compile_scalar
from .geometry import Box, Region, centered_box, centered_halfwidths

WeightEvaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class WeightIndex:
    j: int
    l: int


@dataclass
class WeightFamily:
    kind: str
    k_max: int
    js: list[int]
    entries: dict[tuple[int, int], WeightEvaluator]
    regions: Optional[dict[int, Region]] = None

    def indices(self) -> list[WeightIndex]:
        return [WeightIndex(j, l) for j in self.js for l in range(self.k_max + 1)]

    def weight(self, idx: WeightIndex) -> WeightEvaluator:
        key = (idx.j, idx.l)
        if key not in self.entries:
            raise UnknownIndexError(f"no weight with index j={idx.j}, l={idx.l}")
        return self.entries[key]

    def eval_batch(self, idx: WeightIndex, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.weight(idx)(pts), dtype=float)

    def structure_region(self, j: int) -> Optional[Region]:
        """Omega_j, outside which every nu_{j,l} is 0; None if undeclared."""
        if self.regions is None:
            return None
        return self.regions.get(j)


# ---------------------------------------------------------------------------
# family builders


def schwartz_family(k_max: int, j_max: int, d: int) -> WeightFamily:
    """nu_{j,l}(x) = (1 + |x|^2)^(l/2), independent of j."""

    def make(l):
        def ev(pts):
            return (1.0 + np.sum(pts**2, axis=1)) ** (l / 2.0)
        return ev

    entries = {(j, l): make(l) for j in range(1, j_max + 1) for l in range(k_max + 1)}
    return WeightFamily("schwartz", k_max, list(range(1, j_max + 1)), entries)


def exhaustion_family(k_max: int, omega_regions: dict[int, Region]) -> WeightFamily:
    """nu_{j,l} = indicator(Omega_j) for a nested box exhaustion."""

    def make(region):
        def ev(pts):
            return region.contains(pts).astype(float)
        return ev

    js = sorted(omega_regions)
    entries = {(j, l): make(omega_regions[j]) for j in js for l in range(k_max + 1)}
    return WeightFamily("exhaustion", k_max, js, entries, regions=dict(omega_regions))


def exp_strips_family(k_max: int, j_max: int,
                      x1_extent: tuple[float, float] = (-1e6, 1e6),
                      points_per_axis=2) -> WeightFamily:
    """nu_{j,l}(x) = indicator(Omega_j)(x) * exp(-|x1|/(j+1)) on the split plane.

    Omega_j = { 1/(j+1) < |x2| < j+1 }; the strips are unbounded in x1, which
    the box realization approximates with a very wide extent.
    """
    lo1, hi1 = x1_extent
    regions = {}
    entries = {}
    js = list(range(1, j_max + 1))
    for j in js:
        inner, outer = 1.0 / (j + 1), float(j + 1)
        boxes = (
            Box((lo1, inner), (hi1, outer)),
            Box((lo1, -outer), (hi1, -inner)),
        )
        region = Region(boxes, tuple(np.broadcast_to(points_per_axis, (2,)).astype(int)))
        regions[j] = region

        def make(jj, reg):
            def ev(pts):
                return reg.contains(pts).astype(float) * np.exp(-np.abs(pts[:, 0]) / (jj + 1))
            return ev

        for l in range(k_max + 1):
            entries[(j, l)] = make(j, region)
    return WeightFamily("exp_strips", k_max, js, entries, regions=regions)


def om_finite_family(k_max: int, gauge_sets: list[list[str]], d: int) -> WeightFamily:
    """nu_{j,l}(x) = max over the j-th declared gauge set of |g(x)|."""
    js = list(range(1, len(gauge_sets) + 1))
    entries = {}
    for j, exprs in zip(js, gauge_sets):
        fns = [compile_scalar(e, d) for e in exprs]

        def make(fs):
            def ev(pts):
                return np.max(np.abs(np.stack([f(pts) for f in fs])), axis=0)
            return ev

        for l in range(k_max + 1):
            entries[(j, l)] = make(fns)
    return WeightFamily("om_finite", k_max, js, entries)


def custom_family(k_max: int, exprs: dict[tuple[int, int], str], d: int) -> WeightFamily:
    js = sorted({j for j, _ in exprs})
    entries = {key: compile_scalar(text, d) for key, text in exprs.items()}
    return WeightFamily("custom", k_max, js, entries)


# ---------------------------------------------------------------------------
# audits


@dataclass
class PairDominance:
    first: WeightIndex
    second: WeightIndex
    dominating: Optional[WeightIndex]
    constant: Optional[float]
    witness: Optional[np.ndarray]

    @property
    def passed(self) -> bool:
        return self.dominating is not None


@dataclass
class DirectednessReport:
    passed: bool
    pairs: list[PairDominance]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "pairs": [
                {
                    "first": [p.first.j, p.first.l],
                    "second": [p.second.j, p.second.l],
                    "dominating": None if p.dominating is None else [p.dominating.j, p.dominating.l],
                    "constant": p.constant,
                    "witness": None if p.witness is None else list(map(float, p.witness)),
                }
                for p in self.pairs
            ],
        }


def check_directed(fam: WeightFamily, region: Region) -> DirectednessReport:
    """For every index pair, search (j3, l3, C) with max(nu1, nu2) <= C nu3 on the grid."""
    pts = region.grid_points()
    indices = fam.indices()
    values = {(ix.j, ix.l): fam.eval_batch(ix, pts) for ix in indices}
    pairs = []
    ok = True
    for ia, a in enumerate(indices):
        for b in indices[ia:]:
            target = np.maximum(values[(a.j, a.l)], values[(b.j, b.l)])
            active = target > 0
            best = None
            first_witness = None
            for cand in indices:
                nu3 = values[(cand.j, cand.l)]
                invalid = active & (nu3 <= 0)
                if np.any(invalid):
                    if first_witness is None:
                        first_witness = pts[int(np.argmax(invalid))]
                    continue
                c = float(np.max(target[active] / nu3[active])) if np.any(active) else 1.0
                if best is None or c < best[1] - 1e-12:
                    best = (cand, c)
            if best is None:
                ok = False
                pairs.append(PairDominance(a, b, None, None, first_witness))
            else:
                pairs.append(PairDominance(a, b, best[0], best[1], None))
    return DirectednessReport(ok, pairs)


@dataclass
class BoundednessReport:
    passed: bool
    sups: dict[tuple[int, int], float]

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "sups": {f"{j},{l}": v for (j, l), v in self.sups.items()}}


def check_locally_bounded(fam: WeightFamily, K: Region) -> BoundednessReport:
    """Grid sup of every weight on K; finite on a grid, values exposed for ledgers."""
    pts = K.grid_points()
    sups = {}
    for ix in fam.indices():
        vals = fam.eval_batch(ix, pts)
        sups[(ix.j, ix.l)] = float(np.max(vals)) if len(vals) else 0.0
    passed = all(np.isfinite(v) for v in sups.values())
    return BoundednessReport(passed, sups)


@dataclass
class AwayFromZeroReport:
    passed: bool
    per_l: dict[int, Optional[tuple[int, float]]]

    def chosen(self, l: int) -> tuple[int, float]:
        item = self.per_l.get(l)
        if item is None:
            raise UnknownIndexError(f"no index is bounded away from zero for l={l}")
        return item

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "per_l": {str(l): (None if v is None else [v[0], v[1]]) for l, v in self.per_l.items()}}


def check_locally_bounded_away_from_zero(fam: WeightFamily, K: Region) -> AwayFromZeroReport:
    """For each l, the first j (ascending) with a strictly positive grid inf on K."""
    pts = K.grid_points()
    per_l: dict[int, Optional[tuple[int, float]]] = {}
    ok = True
    for l in range(fam.k_max + 1):
        found = None
        for j in fam.js:
            vals = fam.eval_batch(WeightIndex(j, l), pts)
            inf = float(np.min(vals)) if len(vals) else 0.0
            if inf > 0.0:
                found = (j, inf)
                break
        per_l[l] = found
        ok = ok and found is not None
    return AwayFromZeroReport(ok, per_l)


def check_vanishing_ratio(fam: WeightFamily, jl: WeightIndex, im: WeightIndex,
                          eps: float, search: Region) -> Optional[Region]:
    """Smallest centered box K (clipped to the domain boxes) outside of which
    nu_{j,l} <= eps * nu_{i,m} holds at every scanned grid point.

    Returns None when a violating point lies on the search boundary, i.e.
    the scan cannot certify the condition with a compact inside the region.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = search.grid_points()
    violating = fam.eval_batch(jl, pts) > eps * fam.eval_batch(im, pts) + 1e-300
    halfwidths = centered_halfwidths(search, pts[violating])
    if halfwidths is None:
        return None
    return search.intersect_box(centered_box(halfwidths))
