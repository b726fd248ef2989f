"""Mollifiers and the quadrature convolution engine.

The base bump exp(-1/(1-|x|^2)) has every derivative vanishing at |x|=1, so
composite midpoint rules converge superalgebraically on it; the refinement
ladder in QuadratureSpec makes that checkable. Derivatives of the bump come
from a closed-form recurrence (bump_profile) and are evaluated with a
flatness cutoff at |x|^2 >= 1 - 1e-8 to keep the rational prefactors finite.
convolve takes the Mollifier itself and integrates over its 1/n box only:
every derivative of f * rho_n falls on rho_n, whose node coefficients come
straight from Mollifier.deriv, and f is evaluated at the points shifted by
each quadrature node.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, QuadratureError
from .funcmodel import (MultiIndex, SampledFunction, SeminormIndex, exp_poly, mi_order,
                        multiindices, sf_zero)
from .geometry import Box, Region
# weighted_seminorm stays bound for perfbench/trace_layers.py, which rebinds it
from .seminorms import jet_seminorm, sample_jet, weighted_seminorm  # noqa: F401
from .weights import WeightFamily, WeightIndex

_FLAT_CUTOFF = 1e-8

# The order every smooth object (the mollifier, every convolution, the
# cut-off) declares.
SMOOTH_ORDER = 6

# The most values one convolution has f return at once (nodes x points x
# coordinates; 512 KB of float64). A 1D scan hands f several nodes per call;
# a many-coordinate f or a 2D grid stays near one node per call.
CHUNK_VALUES = 2**16


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_axis: int = 64
    refinement_levels: int = 2
    tol: float = 1e-6

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise ValueError("points_per_axis must be at least 8")
        if self.refinement_levels < 0:
            raise ValueError("refinement_levels must be at least 0")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    @property
    def finest_points(self) -> int:
        return self.points_per_axis * 2**self.refinement_levels


def box_nodes(box: Box, points_per_axis: int):
    """Tensor midpoint nodes and weights on a closed box, deterministic order."""
    axes = []
    wts = []
    for lo, hi in zip(box.lo, box.hi):
        h = (hi - lo) / points_per_axis
        axes.append(lo + (np.arange(points_per_axis) + 0.5) * h)
        wts.append(np.full(points_per_axis, h))
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*wts, indexing="ij")
    weights = np.ones(len(nodes))
    for wm in wmesh:
        weights = weights * wm.ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# the bump profile and its derivatives


def bump_profile(points: np.ndarray, beta: Optional[MultiIndex] = None) -> np.ndarray:
    """exp(-1/(1-|u|^2)) (or a derivative of it), zero for |u|^2 >= 1 - cutoff.

    With phi(t) = exp(-1/(1-t)) and s = 1/(1-t), phi^(k)(t) = q_k(s) phi(t) for
    integer polynomials q_0 = 1, q_{k+1} = s^2 (q_k' - q_k); d^beta phi(|u|^2)
    is the sum over 2 gamma <= beta of phi^(|beta| - |gamma|)(|u|^2) times
    prod_i beta_i! / (gamma_i! (beta_i - 2 gamma_i)!) (2 u_i)^(beta_i - 2 gamma_i).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    beta = (0,) * pts.shape[1] if beta is None else tuple(beta)
    t = np.sum(pts * pts, axis=1)
    mask = t < 1.0 - _FLAT_CUTOFF
    s = 1.0 / (1.0 - t[mask])
    phi = np.exp(-s)
    terms = []
    for gamma in itertools.product(*(range(b // 2 + 1) for b in beta)):
        q = exp_poly(sum(beta) - sum(gamma), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        term = phi * np.polyval(q, s) if len(q) > 1 else phi
        for i, (b, g) in enumerate(zip(beta, gamma)):
            if b:
                coeff = math.factorial(b) // (math.factorial(g) * math.factorial(b - 2 * g))
                term = term * (coeff * (2.0 * pts[mask, i]) ** (b - 2 * g))
        terms.append(term)
    out = np.zeros(len(pts))
    out[mask] = sum(terms)
    return out


@functools.cache
def _normalization(d: int, quad: QuadratureSpec) -> float:
    """1 / integral of the unnormalized bump over the unit box.

    Refines at least `refinement_levels` times and then keeps doubling until
    successive levels differ by less than tol (or a hard node cap is hit).
    """
    box = Box((-1.0,) * d, (1.0,) * d)
    cap = 4096 if d == 1 else 1024
    masses = []
    points = quad.points_per_axis
    level = 0
    while True:
        nodes, weights = box_nodes(box, points)
        masses.append(float(np.dot(weights, bump_profile(nodes))))
        converged = (level >= max(quad.refinement_levels, 1)
                     and abs(masses[-1] - masses[-2]) < quad.tol)
        if converged:
            return 1.0 / masses[-1]
        if points >= cap:
            raise QuadratureError(
                f"normalization quadrature did not converge: ladder {masses}")
        points *= 2
        level += 1


@dataclass(frozen=True)
class Mollifier:
    """The rescaled bump rho_n(x) = n^d rho(n x) with unit mass; build_mollifier shares it."""

    d: int
    n: int
    normC: float
    quad: QuadratureSpec

    def deriv(self, beta: MultiIndex, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scale = float(self.n ** (self.d + mi_order(beta)))
        return scale * self.normC * bump_profile(self.n * pts, beta)

    @property
    def radius(self) -> float:
        return 1.0 / self.n

    @functools.cached_property
    def support(self) -> Region:
        """The 1/n box [-1/n, 1/n]^d, which holds the ball supp rho_n."""
        r = self.radius
        return Region.box((-r,) * self.d, (r,) * self.d, self.quad.finest_points)

    def abs_deriv_integral(self, beta: MultiIndex) -> float:
        """integral of |d^beta rho_n| via quadrature over the support."""
        nodes, weights = box_nodes(self.support.boxes[0], self.quad.finest_points)
        return float(np.dot(weights, np.abs(self.deriv(beta, nodes))))

    @property
    def mass_check(self) -> float:
        """integral of rho_n over its support; 1 up to the quadrature's tol."""
        return self.abs_deriv_integral((0,) * self.d)


@functools.cache
def build_mollifier(d: int, n: int, quad: QuadratureSpec) -> Mollifier:
    # one rho_n per (d, n, quad): stage 2's regularize and stage 3's constants share it
    if n < 1:
        raise ValueError("scale n must be at least 1")
    moll = Mollifier(d=d, n=n, normC=_normalization(d, quad), quad=quad)
    if abs(moll.mass_check - 1.0) >= quad.tol:
        raise QuadratureError(f"mollifier mass check failed: {moll.mass_check}")
    # make sure the flatness cutoff leaves the low derivatives finite
    nodes, _ = box_nodes(moll.support.boxes[0], quad.finest_points)
    for beta in multiindices(d, 2):
        probe = moll.deriv(beta, nodes[: min(len(nodes), 128)])
        if not np.all(np.isfinite(probe)):
            raise QuadratureError("mollifier derivative evaluation overflowed")
    return moll


# ---------------------------------------------------------------------------
# convolution


def convolve(f: SampledFunction, moll: Mollifier, quad: QuadratureSpec) -> SampledFunction:
    """f * rho_n: with z = x - y, d^beta (f * rho_n)(x) is
    sum_q w_q d^beta rho_n(z_q) f(x - z_q) over midpoint nodes z_q on the
    mollifier's 1/n box. Every derivative falls on rho_n, so the result has
    the mollifier's order, and its support is f's inflated by 1/n.
    """
    nodes, weights = box_nodes(moll.support.boxes[0], quad.finest_points)
    m = f.value_dim
    base_coeff = weights * moll.deriv((0,) * f.d, nodes)             # (Q,)

    def deriv_multi(betas, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((len(betas), len(pts), m))
        coeffs = np.stack([
            base_coeff if mi_order(tuple(b)) == 0
            else weights * moll.deriv(tuple(b), nodes)
            for b in betas])                                          # (B, Q)
        live = np.flatnonzero(np.any(coeffs != 0.0, axis=0))
        # f sees the points shifted by a chunk of nodes in one call; the
        # sum still adds one node at a time, in node order
        per_chunk = max(1, CHUNK_VALUES // max(len(pts) * m, 1))
        for start in range(0, len(live), per_chunk):
            qs = live[start:start + per_chunk]
            shifted = f.eval_extended(
                (pts[None] - nodes[qs][:, None]).reshape(-1, pts.shape[1]))
            shifted = shifted.reshape(len(qs), len(pts), m)
            for k, q in enumerate(qs):
                for bi in range(len(betas)):
                    if coeffs[bi, q] != 0.0:
                        out[bi] += coeffs[bi, q] * shifted[k]
        return out

    conv = SampledFunction(
        domain=f.domain.inflate(moll.radius),
        order=SMOOTH_ORDER,
        value_dim=m,
        evaluator=lambda pts: deriv_multi([(0,) * f.d], np.atleast_2d(pts))[0],
        derivative=lambda beta, pts: deriv_multi([tuple(beta)], pts)[0],
        support=None if f.support is None else f.support.inflate(moll.radius),
        name=f"({f.name})*(rho_{moll.n})",
    )
    conv.deriv_multi = deriv_multi
    return conv


# ---------------------------------------------------------------------------
# regularization


def regularize(f: SampledFunction, n: int, quad: QuadratureSpec) -> SampledFunction:
    """f * rho_n for f with a declared compact support; support inflates by 1/n."""
    if f.support is None:
        raise ValueError(f"regularize needs a declared support; {f.name or 'f'} has none")
    if f.support.is_empty:
        return sf_zero(f.domain, f.value_dim, order=SMOOTH_ORDER)
    return convolve(f, build_mollifier(f.d, n, quad), quad)


class Smoothing(NamedTuple):
    """f * rho_n at one scale: its jet on the history's grid, its support and
    |f - f * rho_n|_{j,l,alpha} there."""

    jet: np.ndarray
    support: Optional[Region]
    error: float


class RegularizationHistory:
    """|f - f * rho_n| on f's domain grid for every scale n measured, in order.

    f's jet is sampled once; each scale keeps the jet of f * rho_n, so a
    later stage reads the smoothed values instead of convolving f again.
    """

    def __init__(self, f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                 alpha: SeminormIndex):
        self.f, self.fam, self.idx, self.alpha = f, fam, idx, alpha
        self.pts = f.domain.grid_points()
        self.f_jet = sample_jet(f, idx, self.pts)
        self.scales: dict[int, Smoothing] = {}

    def measure(self, n: int, smoothed: SampledFunction) -> float:
        """Record smoothed = f * rho_n; returns |f - f * rho_n|."""
        jet = sample_jet(smoothed, self.idx, self.pts)
        err = jet_seminorm(self.f_jet - jet, self.pts, [self.f.support, smoothed.support],
                           self.fam, self.idx, self.alpha, f"({self.f.name})-({smoothed.name})")
        self.scales[n] = Smoothing(jet, smoothed.support, err.value)
        return err.value


def find_regularization_order(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                              alpha: SeminormIndex, eps: float, n_max: int,
                              quad: QuadratureSpec) -> tuple[int, RegularizationHistory]:
    """Smallest n in {2, 4, ..., n_max} with |f - f*rho_n|_{j,l,alpha} < eps
    on f's domain grid."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    history = RegularizationHistory(f, fam, idx, alpha)
    n = 2
    while n <= n_max:
        if history.measure(n, regularize(f, n, quad)) < eps:
            return n, history
        n *= 2
    raise ConvergenceError(
        f"regularization did not reach {eps} by n={n_max}",
        best=min((s.error for s in history.scales.values()), default=None))
