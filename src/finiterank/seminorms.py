"""Weighted sup-seminorms over gridded domains.

The continuum sup over x and |beta| <= l is replaced by a scan over the
domain grid in a fixed order (multi-indices first, then grid rows), so every
value is reproducible and carries the witness attaining it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CriterionError, FiniteRankError, OrderError
from .funcmodel import (MultiIndex, SampledFunction, SeminormIndex, f_multi_ext,
                        multiindices)
from .geometry import Region, centered_box
from .weights import WeightFamily, WeightIndex


@dataclass
class SeminormValue:
    value: float
    witness_x: Optional[np.ndarray]
    witness_beta: Optional[MultiIndex]
    empty: bool = False

    def __float__(self):
        return self.value

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness_x": None if self.witness_x is None else [float(c) for c in self.witness_x],
            "witness_beta": None if self.witness_beta is None else list(self.witness_beta),
        }


def _integrand(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
               alpha: SeminormIndex, pts: np.ndarray):
    """The scan every seminorm reads: (kept, betas, vals).

    kept masks the points inside f's declared support; points outside it
    contribute exactly 0 to every sup and are skipped. vals is the
    (len(betas), kept.sum()) matrix p_alpha(d^beta f(x)) nu_{j,l}(x) over
    |beta| <= l and the kept points, in scan order.
    """
    if idx.l > f.order:
        raise OrderError(f"weight order l={idx.l} exceeds function order {f.order}")
    betas = multiindices(f.d, idx.l)
    kept = (np.ones(len(pts), dtype=bool) if f.support is None
            else f.support.contains(pts))
    live = pts[kept]
    vals = np.zeros((len(betas), len(live)))
    if len(live):
        w = fam.eval_batch(idx, live)
        stacked = f_multi_ext(f, betas, live)
        for bi in range(len(betas)):
            vals[bi] = alpha.apply(stacked[bi]) * w
    bad = np.argwhere(~np.isfinite(vals))
    if len(bad):
        bi, k = bad[0]
        raise FiniteRankError(
            f"non-finite integrand {vals[bi, k]} of {f.name or 'f'} at "
            f"x={live[k].tolist()}, beta={betas[bi]}")
    return kept, betas, vals


def _sup(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
         alpha: SeminormIndex, pts: np.ndarray) -> SeminormValue:
    """Scan maximum; the witness is the first beta, then the first point."""
    kept, betas, vals = _integrand(f, fam, idx, alpha, pts)
    if vals.size == 0:
        return SeminormValue(0.0, None, None, empty=True)
    bi, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return SeminormValue(float(vals[bi, k]), pts[np.flatnonzero(kept)[k]], betas[bi])


def weighted_seminorm(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                      alpha: SeminormIndex, grid: Optional[Region] = None) -> SeminormValue:
    """sup over grid points and |beta| <= l of p_alpha(d^beta f(x)) nu_{j,l}(x)."""
    region = grid if grid is not None else f.domain
    return _sup(f, fam, idx, alpha, region.grid_points())


def tail_seminorm(f: SampledFunction, K: Region, fam: WeightFamily, idx: WeightIndex,
                  alpha: SeminormIndex, grid: Optional[Region] = None) -> SeminormValue:
    """Same sup restricted to grid points outside K."""
    region = grid if grid is not None else f.domain
    pts = region.grid_points()
    return _sup(f, fam, idx, alpha, pts[~K.contains(pts)])


def find_tail_compact(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                      alpha: SeminormIndex, eps: float, delta: float,
                      search: Region, omega: Optional[Region] = None) -> Region:
    """Smallest centered grid-aligned box (clipped to the weight's structure
    region when the family has one) whose tail seminorm is < eps and whose
    delta-inflation stays inside omega, the boundary surrogate for the open
    domain (defaults to the gridded domain).

    The minimal box is read off the violating set directly: per axis, the
    halfwidth is the largest |x_a| over grid points whose integrand reaches
    eps, snapped up to the grid. Weighted integrands vanish outside the
    structure region, so the clipped box always swallows every violating
    point and the tail bound holds by construction.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    domain = f.domain
    if omega is None:
        omega = domain
    pts = search.grid_points()
    kept, _, vals = _integrand(f, fam, idx, alpha, pts)
    integrand = np.zeros(len(pts))
    integrand[kept] = np.max(vals, axis=0)

    clip = fam.structure_region(idx.j)
    base = clip if clip is not None else domain
    step = np.maximum(search.spacing(), 1e-300)
    violating = integrand >= eps
    if not np.any(violating):
        halfwidths = np.zeros(search.d)
    else:
        needed = np.max(np.abs(pts[violating]), axis=0)
        bb = search.bounding_box()
        outer = np.maximum(np.abs(np.asarray(bb.lo)), np.abs(np.asarray(bb.hi)))
        if np.any(needed >= outer - 0.49 * step):
            raise CriterionError(
                "violating points reach the search boundary; the tail cannot "
                "be certified inside the scanned region",
                best=float(np.max(integrand)))
        halfwidths = np.ceil(needed / step) * step
    K = base.intersect_box(centered_box(halfwidths))
    outside = ~K.contains(pts)
    tail = float(np.max(integrand[outside])) if np.any(outside) else 0.0
    if tail >= eps:
        raise CriterionError(
            f"tail {tail} outside the minimal box still reaches {eps}", best=tail)
    if delta > 0 and not K.is_empty and not omega.covers(K.inflate(delta)):
        raise CriterionError(
            f"the minimal tail compact inflated by delta={delta} leaves the domain",
            best=tail)
    return K
