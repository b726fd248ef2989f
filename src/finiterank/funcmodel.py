"""Vector-valued C^k functions on gridded domains.

Values live in R^m (m sample coordinates). Functions carry a batch evaluator
(N, d) -> (N, m) plus an optional analytic derivative provider; without one,
a derivative request raises OrderError. Nested central differences serve only
as the explicit test oracle (fd_derivative_oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, OrderError
from .geometry import Box, Region

MultiIndex = tuple[int, ...]


def mi_order(beta: MultiIndex) -> int:
    return int(sum(beta))


def mi_leq(gamma: MultiIndex, beta: MultiIndex) -> bool:
    return all(g <= b for g, b in zip(gamma, beta))


def mi_sub(beta: MultiIndex, gamma: MultiIndex) -> MultiIndex:
    return tuple(b - g for b, g in zip(beta, gamma))


def multiindices(d: int, upto: int) -> list[MultiIndex]:
    """All beta with |beta| <= upto, ordered by total order then lexicographically."""
    out: list[MultiIndex] = []
    for total in range(upto + 1):
        block: list[MultiIndex] = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                block.append(prefix + (remaining,))
                return
            for k in range(remaining + 1):
                rec(prefix + (k,), remaining - k, slots - 1)

        rec((), total, d)
        out.extend(sorted(block))
    return out


def submultiindices(beta: MultiIndex) -> list[MultiIndex]:
    """All gamma <= beta componentwise, lexicographic order."""
    ranges = [range(b + 1) for b in beta]
    out = [()]
    for r in ranges:
        out = [g + (k,) for g in out for k in r]
    return out


def multiindex_binom(beta: MultiIndex, gamma: MultiIndex) -> int:
    if not mi_leq(gamma, beta):
        raise OrderError(f"binomial needs gamma <= beta, got {gamma} vs {beta}")
    prod = 1
    for b, g in zip(beta, gamma):
        prod *= math.comb(b, g)
    return prod


@dataclass(frozen=True)
class SeminormIndex:
    """One member p_alpha of the value-space seminorm family.

    kind 'sup_all': max |v_q| over all coordinates.
    kind 'sup_subset': max |v_q| over the declared coordinate subset.
    kind 'weighted_sup': max w_q |v_q| with declared positive weights.
    A zero or negative weight would make every difference measure 0.
    """

    kind: str = "sup_all"
    subset: tuple[int, ...] = ()
    coord_weights: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("sup_all", "sup_subset", "weighted_sup"):
            raise ValueError(f"unknown seminorm kind {self.kind!r}")
        if self.kind == "sup_subset" and (not self.subset or min(self.subset) < 0):
            raise ValueError(f"sup_subset needs coordinate indices >= 0, got {self.subset}")
        if self.kind == "weighted_sup" and not (
                self.coord_weights
                and all(math.isfinite(w) and w > 0 for w in self.coord_weights)):
            raise ValueError(f"weighted_sup needs finite weights > 0, got {self.coord_weights}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        vals = np.atleast_2d(values)
        if self.kind == "sup_all":
            return np.max(np.abs(vals), axis=1)
        if self.kind == "sup_subset":
            return np.max(np.abs(vals[:, list(self.subset)]), axis=1)
        return np.max(np.abs(vals) * np.asarray(self.coord_weights), axis=1)

    def __call__(self, value: np.ndarray) -> float:
        return float(self.apply(np.atleast_2d(value))[0])


@dataclass
class SampledFunction:
    """An R^m-valued C^k function on a gridded box-union domain."""

    domain: Region
    order: int
    value_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[MultiIndex, np.ndarray], np.ndarray]] = None
    support: Optional[Region] = None
    name: str = ""

    @property
    def d(self) -> int:
        return self.domain.d

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.evaluator(pts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out

    def eval_extended(self, points: np.ndarray) -> np.ndarray:
        """Zero-extension outside the declared support (f_ex in the estimates)."""
        return f_multi_ext(self, [(0,) * self.d], points)[0]

    def deriv(self, beta: MultiIndex, points: np.ndarray) -> np.ndarray:
        beta = tuple(int(b) for b in beta)
        if mi_order(beta) == 0:
            return self.eval(points)
        if self.derivative is None:
            raise OrderError(f"{self.name or 'function'} has no derivative provider "
                             f"for beta={beta}")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.derivative(beta, pts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out

    def deriv_multi(self, betas: Sequence[MultiIndex], points: np.ndarray) -> np.ndarray:
        """(len(betas), N, m) stack; convolution-backed functions override this."""
        return np.stack([self.deriv(b, points) for b in betas])

    def deriv_extended(self, beta: MultiIndex, points: np.ndarray) -> np.ndarray:
        return f_multi_ext(self, [tuple(beta)], points)[0]

    def support_region(self) -> Region:
        if self.support is not None:
            return self.support
        return support_estimate(self)


def _nested_central(evaluate, beta: MultiIndex, points: np.ndarray, h: float) -> np.ndarray:
    axis = next((i for i, b in enumerate(beta) if b > 0), None)
    if axis is None:
        return evaluate(points)
    lower = tuple(b - 1 if i == axis else b for i, b in enumerate(beta))
    shift = np.zeros(points.shape[1])
    shift[axis] = h
    plus = _nested_central(evaluate, lower, points + shift, h)
    minus = _nested_central(evaluate, lower, points - shift, h)
    return (plus - minus) / (2.0 * h)


def evaluate(f: SampledFunction, beta: MultiIndex, x) -> np.ndarray:
    """Checked single-point derivative evaluation (the public contract)."""
    beta = tuple(int(b) for b in beta)
    if mi_order(beta) > f.order:
        raise OrderError(f"|beta|={mi_order(beta)} exceeds function order {f.order}")
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    if not bool(f.domain.contains(pt)[0]):
        raise DomainError(f"point {x} outside the gridded domain")
    return f.deriv(beta, pt)[0]


def fd_derivative_oracle(f: SampledFunction, beta: MultiIndex, x, h: float) -> np.ndarray:
    """Nested central differences, independent of any analytic provider."""
    beta = tuple(int(b) for b in beta)
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    margin = mi_order(beta) * h
    stencil_box = Box(tuple(pt[0] - margin), tuple(pt[0] + margin))
    if not f.domain.covers(Region((stencil_box,), f.domain.points_per_axis)):
        raise DomainError("finite-difference stencil leaves the domain")
    return _nested_central(f.eval, beta, pt, h)[0]


def product_rule_apply(g: SampledFunction, f: SampledFunction, beta: MultiIndex, points) -> np.ndarray:
    """derivative of (g f) via the binomial sum over gamma <= beta."""
    beta = tuple(int(b) for b in beta)
    if mi_order(beta) > min(g.order, f.order):
        raise OrderError("product-rule order exceeds a factor's order")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    acc = np.zeros((len(pts), f.value_dim))
    for gamma in submultiindices(beta):
        coeff = multiindex_binom(beta, gamma)
        gv = g.deriv(mi_sub(beta, gamma), pts)[:, 0]
        fv = f.deriv(gamma, pts)
        acc += coeff * gv[:, None] * fv
    return acc


def support_estimate(f: SampledFunction, threshold: float = 1e-12) -> Region:
    """Grid-aligned box union covering all points with |f| above threshold*max.

    One bounding box is fitted per domain box, so disjoint components
    separated by distinct domain boxes stay separate.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    step = f.domain.spacing()
    gmax = 0.0
    per_box = []
    for b in f.domain.boxes:
        pts = b.grid(f.domain.points_per_axis)
        vals = np.max(np.abs(f.eval(pts)), axis=1)
        per_box.append((pts, vals))
        if len(vals):
            gmax = max(gmax, float(np.max(vals)))
    if gmax == 0.0:
        return Region.empty(f.d)
    cut = threshold * gmax
    boxes = []
    for (pts, vals), b in zip(per_box, f.domain.boxes):
        mask = vals > cut
        if not np.any(mask):
            continue
        lo = np.maximum(np.min(pts[mask], axis=0) - step, b.lo)
        hi = np.minimum(np.max(pts[mask], axis=0) + step, b.hi)
        boxes.append(Box(tuple(lo), tuple(hi)))
    if not boxes:
        return Region.empty(f.d)
    return Region(tuple(boxes), f.domain.points_per_axis)


@dataclass
class FiniteRankFunction:
    """g = sum_i phi_i (x) e_i, an element of CV(Omega) (x) R^m.

    factors is one R^rank-valued function whose coordinate i is phi_i;
    values is the (rank, m) matrix whose row i is e_i; sampled is the sum
    itself, factors @ values, as one R^m-valued function.
    """

    factors: SampledFunction
    values: np.ndarray
    sampled: SampledFunction

    @property
    def rank(self) -> int:
        return len(self.values)


def sf_zero(domain: Region, value_dim: int, order: int = 6) -> SampledFunction:
    return SampledFunction(
        domain=domain,
        order=order,
        value_dim=value_dim,
        evaluator=lambda pts: np.zeros((len(np.atleast_2d(pts)), value_dim)),
        derivative=lambda beta, pts: np.zeros((len(np.atleast_2d(pts)), value_dim)),
        support=Region.empty(domain.d),
        name="zero",
    )


def f_multi_ext(f: SampledFunction, betas, points) -> np.ndarray:
    """Support-aware multi-beta stack, sharing work via deriv_multi."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if f.support is None:
        return f.deriv_multi(betas, pts)
    inside = f.support.contains(pts)
    out = np.zeros((len(betas), len(pts), f.value_dim))
    if np.any(inside):
        out[:, inside, :] = f.deriv_multi(betas, pts[inside])
    return out


def sf_from_expr_function(fn, domain: Region, order: int, name: str = "",
                          support: Optional[Region] = None) -> SampledFunction:
    """Wrap an expressions.ExprFunction with analytic derivatives."""
    return SampledFunction(
        domain=domain,
        order=order,
        value_dim=fn.value_dim,
        evaluator=fn.eval,
        derivative=lambda beta, pts: fn.deriv(beta, pts),
        support=support,
        name=name,
    )
