"""Axis-aligned box regions with uniform sampling grids.

Compacts and domains are finite unions of closed axis boxes, each sampled on a
uniform tensor grid. Ball inflations K + B_delta are realized per axis (sup
norm), which contains the Euclidean inflation; all containment guarantees
derived from it are therefore conservative, and in d=1 the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GeometryError

_EPS = 1e-12


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise GeometryError("box corner dimensions differ")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"box has negative extent: {self.lo} .. {self.hi}")

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def contains(self, points: np.ndarray, tol: float = _EPS) -> np.ndarray:
        pts = np.atleast_2d(points)
        lo = np.asarray(self.lo) - tol
        hi = np.asarray(self.hi) + tol
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def inflate(self, r) -> "Box":
        r = np.broadcast_to(np.asarray(r, dtype=float), (self.d,))
        return Box(tuple(np.asarray(self.lo) - r), tuple(np.asarray(self.hi) + r))

    def intersect(self, other: "Box") -> "Box | None":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(hi < lo):
            return None
        return Box(tuple(lo), tuple(hi))

    def grid(self, points_per_axis) -> np.ndarray:
        """Uniform inclusive tensor grid, lexicographic row order."""
        ppa = np.broadcast_to(np.asarray(points_per_axis, dtype=int), (self.d,))
        axes = [np.linspace(l, h, max(int(n), 1)) for l, h, n in zip(self.lo, self.hi, ppa)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def subtract_box(target: Box, cut: Box) -> list[Box]:
    """Split target into boxes covering target minus the interior of cut."""
    overlap = target.intersect(cut)
    if overlap is None or np.any(overlap.widths < 0):
        return [target]
    pieces = []
    lo = list(target.lo)
    hi = list(target.hi)
    for axis in range(target.d):
        if overlap.lo[axis] - lo[axis] > _EPS:
            piece_hi = hi.copy()
            piece_hi[axis] = overlap.lo[axis]
            pieces.append(Box(tuple(lo), tuple(piece_hi)))
        if hi[axis] - overlap.hi[axis] > _EPS:
            piece_lo = lo.copy()
            piece_lo[axis] = overlap.hi[axis]
            pieces.append(Box(tuple(piece_lo), tuple(hi)))
        lo[axis] = max(lo[axis], overlap.lo[axis])
        hi[axis] = min(hi[axis], overlap.hi[axis])
    return pieces


def boxes_cover(cover: list[Box], target: Box, tol: float = 1e-9) -> bool:
    """Exact test that the union of cover boxes contains target."""
    remaining = [target]
    for b in cover:
        nxt = []
        for piece in remaining:
            nxt.extend(subtract_box(piece, b.inflate(tol)))
        remaining = nxt
        if not remaining:
            return True
    return all(np.prod(p.widths) < tol for p in remaining)


@dataclass(frozen=True)
class Region:
    """Finite union of closed boxes with a per-axis grid resolution."""

    boxes: tuple[Box, ...]
    points_per_axis: tuple[int, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def from_bounds(los, his, points_per_axis) -> "Region":
        boxes = tuple(Box(tuple(map(float, l)), tuple(map(float, h))) for l, h in zip(los, his))
        d = boxes[0].d if boxes else len(np.atleast_1d(points_per_axis))
        ppa = tuple(int(n) for n in np.broadcast_to(np.asarray(points_per_axis, dtype=int), (d,)))
        return Region(boxes, ppa)

    @staticmethod
    def box(lo, hi, points_per_axis) -> "Region":
        return Region.from_bounds([lo], [hi], points_per_axis)

    @staticmethod
    def empty(d: int) -> "Region":
        return Region((), (2,) * d)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    @property
    def d(self) -> int:
        return self.boxes[0].d if self.boxes else len(self.points_per_axis)

    def grid_points(self) -> np.ndarray:
        """Concatenated per-box grids in declaration order (deterministic)."""
        if "grid" not in self._cache:
            if self.is_empty:
                self._cache["grid"] = np.empty((0, len(self.points_per_axis)))
            else:
                self._cache["grid"] = np.concatenate(
                    [b.grid(self.points_per_axis) for b in self.boxes], axis=0
                )
        return self._cache["grid"]

    def spacing(self) -> np.ndarray:
        """Largest per-axis grid step over the member boxes."""
        if self.is_empty:
            return np.zeros(len(self.points_per_axis))
        steps = [b.widths / np.maximum(np.asarray(self.points_per_axis) - 1, 1) for b in self.boxes]
        return np.max(np.stack(steps), axis=0)

    def contains(self, points: np.ndarray, tol: float = _EPS) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.is_empty:
            return np.zeros(len(pts), dtype=bool)
        inside = np.zeros(len(pts), dtype=bool)
        for b in self.boxes:
            inside |= b.contains(pts, tol)
        return inside

    def inflate(self, r) -> "Region":
        return Region(tuple(b.inflate(r) for b in self.boxes), self.points_per_axis)

    def deflate(self, r) -> "Region":
        """Per-box shrink; a conservative subset of the true erosion."""
        kept = []
        for b in self.boxes:
            lo = np.asarray(b.lo) + r
            hi = np.asarray(b.hi) - r
            if np.all(hi >= lo):
                kept.append(Box(tuple(lo), tuple(hi)))
        return Region(tuple(kept), self.points_per_axis)

    def intersect_box(self, box: Box) -> "Region":
        pieces = [p for p in (b.intersect(box) for b in self.boxes) if p is not None]
        return Region(tuple(pieces), self.points_per_axis)

    def intersect(self, other: "Region") -> "Region":
        pieces = []
        for a in self.boxes:
            for b in other.boxes:
                p = a.intersect(b)
                if p is not None:
                    pieces.append(p)
        return Region(tuple(pieces), self.points_per_axis)

    def bounding_box(self) -> Box:
        if self.is_empty:
            raise GeometryError("empty region has no bounding box")
        lo = np.min(np.stack([b.lo for b in self.boxes]), axis=0)
        hi = np.max(np.stack([b.hi for b in self.boxes]), axis=0)
        return Box(tuple(lo), tuple(hi))

    def with_resolution(self, points_per_axis) -> "Region":
        ppa = tuple(int(n) for n in np.broadcast_to(np.asarray(points_per_axis, dtype=int), (self.d,)))
        return Region(self.boxes, ppa)

    def refine(self, factor: int) -> "Region":
        ppa = tuple((n - 1) * factor + 1 for n in self.points_per_axis)
        return Region(self.boxes, ppa)

    def covers(self, inner: "Region", tol: float = 1e-9) -> bool:
        return all(boxes_cover(list(self.boxes), b, tol) for b in inner.boxes)

    def volume(self) -> float:
        # Overlaps are not deduplicated; member boxes are expected disjoint.
        return float(sum(np.prod(b.widths) for b in self.boxes))


def centered_box(halfwidths) -> Box:
    h = np.atleast_1d(np.asarray(halfwidths, dtype=float))
    return Box(tuple(-h), tuple(h))


def centered_halfwidths(search: Region, hits: np.ndarray) -> Optional[np.ndarray]:
    """Halfwidths of the smallest centred box holding every hit (grid points
    of search), snapped up to search's grid; zero without hits.

    None when a hit lies on the edge of its own side of search's bounding
    box: the region beyond that edge was never scanned. Each side is tested
    on its own, so on an asymmetric window a hit past the nearer edge's
    distance from the origin is still interior.
    """
    if len(hits) == 0:
        return np.zeros(search.d)
    step = np.maximum(search.spacing(), 1e-300)
    bb = search.bounding_box()
    if (np.any(np.min(hits, axis=0) <= np.asarray(bb.lo) + 0.49 * step)
            or np.any(np.max(hits, axis=0) >= np.asarray(bb.hi) - 0.49 * step)):
        return None
    return np.ceil(np.max(np.abs(hits), axis=0) / step) * step
