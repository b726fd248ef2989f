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


def sample_jet(f: SampledFunction, idx: WeightIndex, pts: np.ndarray) -> np.ndarray:
    """(len(betas), len(pts), m) stack of d^beta f over |beta| <= l at pts,
    zero outside f's declared support: what a scan reads of f."""
    if idx.l > f.order:
        raise OrderError(f"weight order l={idx.l} exceeds function order {f.order}")
    return f_multi_ext(f, multiindices(f.d, idx.l), pts)


def _scan(jet: np.ndarray, pts: np.ndarray, supports, fam: WeightFamily,
          idx: WeightIndex, alpha: SeminormIndex, name: str):
    """(kept, betas, vals) of a function whose jet at pts is sampled (sample_jet).

    kept masks the points inside the union of its supports (None: no
    bound); points outside contribute exactly 0 to every sup and are
    skipped. vals is the (len(betas), kept.sum()) matrix
    p_alpha(d^beta f(x)) nu_{j,l}(x) in scan order. A non-finite entry is
    refused.
    """
    if any(s is None for s in supports):
        kept = np.ones(len(pts), dtype=bool)
    else:
        kept = np.any([s.contains(pts) for s in supports], axis=0)
    live = pts[kept]
    betas = multiindices(pts.shape[1], idx.l)
    vals = np.zeros((len(betas), len(live)))
    if len(live):
        w = fam.eval_batch(idx, live)
        for bi in range(len(betas)):
            vals[bi] = alpha.apply(jet[bi, kept]) * w
    bad = np.argwhere(~np.isfinite(vals))
    if len(bad):
        bi, k = bad[0]
        raise FiniteRankError(
            f"non-finite integrand {vals[bi, k]} of {name or 'f'} at "
            f"x={live[k].tolist()}, beta={betas[bi]}")
    return kept, betas, vals


def jet_seminorm(jet: np.ndarray, pts: np.ndarray, supports, fam: WeightFamily,
                 idx: WeightIndex, alpha: SeminormIndex, name: str = "") -> SeminormValue:
    """Scan maximum of a sampled jet (see _scan); the witness is the first
    beta, then the first point."""
    kept, betas, vals = _scan(jet, pts, supports, fam, idx, alpha, name)
    if vals.size == 0:
        return SeminormValue(0.0, None, None, empty=True)
    bi, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return SeminormValue(float(vals[bi, k]), pts[np.flatnonzero(kept)[k]], betas[bi])


def weighted_seminorm(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                      alpha: SeminormIndex, grid: Optional[Region] = None) -> SeminormValue:
    """sup over grid points and |beta| <= l of p_alpha(d^beta f(x)) nu_{j,l}(x)."""
    region = grid if grid is not None else f.domain
    pts = region.grid_points()
    return jet_seminorm(sample_jet(f, idx, pts), pts, [f.support], fam, idx, alpha, f.name)


def difference_seminorm(f: SampledFunction, g: SampledFunction, fam: WeightFamily,
                        idx: WeightIndex, alpha: SeminormIndex,
                        grid: Optional[Region] = None) -> SeminormValue:
    """weighted_seminorm of f - g, read as one sampled jet minus the other."""
    region = grid if grid is not None else f.domain
    pts = region.grid_points()
    diff = sample_jet(f, idx, pts) - sample_jet(g, idx, pts)
    return jet_seminorm(diff, pts, [f.support, g.support], fam, idx, alpha,
                        f"({f.name})-({g.name})")


def tail_seminorm(f: SampledFunction, K: Region, fam: WeightFamily, idx: WeightIndex,
                  alpha: SeminormIndex, grid: Optional[Region] = None) -> SeminormValue:
    """Same sup restricted to grid points outside K."""
    region = grid if grid is not None else f.domain
    pts = region.grid_points()
    pts = pts[~K.contains(pts)]
    return jet_seminorm(sample_jet(f, idx, pts), pts, [f.support], fam, idx, alpha, f.name)


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
    kept, _, vals = _scan(sample_jet(f, idx, pts), pts, [f.support], fam, idx, alpha,
                          f.name)
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
