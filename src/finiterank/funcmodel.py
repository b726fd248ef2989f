"""Vector-valued C^k functions on gridded domains.

Values live in R^m (m sample coordinates). Functions carry a batch evaluator
(N, d) -> (N, m) plus an optional analytic derivative provider; without one,
a derivative request raises OrderError; no finite-difference stand-in exists
in the package (the tests keep nested central differences as their oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import OrderError
from .geometry import Region

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
        return np.asarray(self.evaluator(pts), dtype=float)

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
        return np.asarray(self.derivative(beta, pts), dtype=float)

    def deriv_multi(self, betas: Sequence[MultiIndex], points: np.ndarray) -> np.ndarray:
        """(len(betas), N, m) stack; convolution-backed functions override this."""
        return np.stack([self.deriv(b, points) for b in betas])

    def deriv_extended(self, beta: MultiIndex, points: np.ndarray) -> np.ndarray:
        return f_multi_ext(self, [tuple(beta)], points)[0]


def exp_poly(k: int, a, b) -> np.ndarray:
    """Descending coefficients of p_k in d^k/dx^k exp(h) = p_k(v) exp(h), where
    dv/dx = a(v) and dh/dx = b(v) are polynomials: p_0 = 1, p_{k+1} = a p_k' + b p_k."""
    p = np.ones(1)
    for _ in range(k):
        p = np.polyadd(np.polymul(a, np.polyder(p)), np.polymul(b, p))
    return p


def leibniz(factors, beta: MultiIndex, pts: np.ndarray) -> np.ndarray:
    """d^beta of the product of factors, each a callable (gamma, pts) -> array,
    by the Leibniz rule; the first factor's gamma runs in lexicographic order."""
    if len(factors) == 1:
        return factors[0](beta, pts)
    head, rest = factors[0], factors[1:]
    return sum(multiindex_binom(beta, gamma) * head(gamma, pts)
               * leibniz(rest, mi_sub(beta, gamma), pts)
               for gamma in submultiindices(beta))


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
