"""Mollifiers and the quadrature convolution engine.

The base bump exp(-1/(1-|x|^2)) has every derivative vanishing at |x|=1, so
composite midpoint rules converge superalgebraically on it; the refinement
ladder in QuadratureSpec makes that checkable. Derivatives of the bump are
generated symbolically once per dimension and evaluated with a flatness
cutoff at |x|^2 >= 1 - 1e-8 to keep the rational prefactors finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
import sympy as sp

from .errors import ConvergenceError, QuadratureError
from .funcmodel import (MultiIndex, SampledFunction, SeminormIndex, mi_order,
                        multiindices, sf_zero)
from .geometry import Box, Region
# weighted_seminorm stays bound for perfbench/trace_layers.py, which rebinds it
from .seminorms import jet_seminorm, sample_jet, weighted_seminorm  # noqa: F401
from .weights import WeightFamily, WeightIndex

_FLAT_CUTOFF = 1e-8

# The order every smooth object (the mollifier, every convolution, the
# cut-off) declares: the symbolic bump derivatives are generated to it.
SMOOTH_ORDER = 6

# The most shifted points one convolution hands f at once: larger chunks
# save little call overhead and grow the peak memory.
CHUNK_POINTS = 2048


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_axis: int = 64
    refinement_levels: int = 2
    tol: float = 1e-6

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise ValueError("points_per_axis must be at least 8")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def level_points(self, level: int) -> int:
        return self.points_per_axis * (2**level)

    @property
    def finest_points(self) -> int:
        return self.level_points(self.refinement_levels)


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


def region_nodes(region: Region, points_per_axis: int):
    nodes = []
    weights = []
    for b in region.boxes:
        n, w = box_nodes(b, points_per_axis)
        nodes.append(n)
        weights.append(w)
    if not nodes:
        d = region.d
        return np.empty((0, d)), np.empty((0,))
    return np.concatenate(nodes), np.concatenate(weights)


# ---------------------------------------------------------------------------
# the bump profile and its symbolic derivatives

_profile_cache: dict[tuple[int, MultiIndex], object] = {}


def _profile_fn(d: int, beta: MultiIndex):
    key = (d, tuple(beta))
    if key not in _profile_cache:
        xs = sp.symbols(f"u0:{d}")
        expr = sp.exp(-1 / (1 - sum(x**2 for x in xs)))
        for x, b in zip(xs, beta):
            if b:
                expr = sp.diff(expr, x, b)
        _profile_cache[key] = sp.lambdify(xs, expr, modules=["numpy"])
    return _profile_cache[key]


def bump_profile(points: np.ndarray, beta: Optional[MultiIndex] = None) -> np.ndarray:
    """exp(-1/(1-|u|^2)) (or a derivative of it), zero for |u|^2 >= 1 - cutoff."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    if beta is None:
        beta = (0,) * d
    t = np.sum(pts * pts, axis=1)
    mask = t < 1.0 - _FLAT_CUTOFF
    out = np.zeros(len(pts))
    if np.any(mask):
        fn = _profile_fn(d, tuple(beta))
        vals = fn(*(pts[:, i][mask] for i in range(d)))
        out[mask] = np.broadcast_to(np.asarray(vals, dtype=float), (int(np.sum(mask)),))
    return out


_norm_cache: dict[tuple, float] = {}


def _normalization(d: int, quad: QuadratureSpec) -> float:
    """1 / integral of the unnormalized bump over the unit box.

    Refines at least `refinement_levels` times and then keeps doubling until
    successive levels differ by less than tol (or a hard node cap is hit).
    """
    key = (d, quad.points_per_axis, quad.refinement_levels, quad.tol)
    if key not in _norm_cache:
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
                break
            if points >= cap:
                raise QuadratureError(
                    f"normalization quadrature did not converge: ladder {masses}")
            points *= 2
            level += 1
        _norm_cache[key] = 1.0 / masses[-1]
    return _norm_cache[key]


@dataclass
class Mollifier:
    """The rescaled bump rho_n(x) = n^d rho(n x) with unit mass."""

    d: int
    n: int
    normC: float
    quad: QuadratureSpec
    mass_check: float = 0.0

    def rho_unit(self, points: np.ndarray) -> np.ndarray:
        return self.normC * bump_profile(points)

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (self.n**self.d) * self.rho_unit(self.n * pts)

    def deriv(self, beta: MultiIndex, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scale = float(self.n ** (self.d + mi_order(beta)))
        return scale * self.normC * bump_profile(self.n * pts, beta)

    @property
    def radius(self) -> float:
        return 1.0 / self.n

    def support_region(self, points_per_axis=33) -> Region:
        r = self.radius
        return Region.box((-r,) * self.d, (r,) * self.d, points_per_axis)

    def as_sampled(self) -> SampledFunction:
        support = self.support_region()

        def derivative(beta, pts):
            return self.deriv(beta, pts)[:, None]

        return SampledFunction(
            domain=support,
            order=SMOOTH_ORDER,
            value_dim=1,
            evaluator=lambda pts: self.value(pts)[:, None],
            derivative=derivative,
            support=support,
            name=f"rho_{self.n}",
        )

    def abs_deriv_integral(self, beta: MultiIndex) -> float:
        """integral of |d^beta rho_n| via quadrature over the support."""
        nodes, weights = box_nodes(
            Box((-self.radius,) * self.d, (self.radius,) * self.d),
            self.quad.finest_points)
        return float(np.dot(weights, np.abs(self.deriv(beta, nodes))))


def build_mollifier(d: int, n: int, quad: QuadratureSpec) -> Mollifier:
    if n < 1:
        raise ValueError("scale n must be at least 1")
    moll = Mollifier(d=d, n=n, normC=_normalization(d, quad), quad=quad)
    # generic-path mass check over the support of rho_n
    nodes, weights = box_nodes(Box((-moll.radius,) * d, (moll.radius,) * d),
                               quad.finest_points)
    moll.mass_check = float(np.dot(weights, moll.value(nodes)))
    if abs(moll.mass_check - 1.0) >= quad.tol:
        raise QuadratureError(f"mollifier mass check failed: {moll.mass_check}")
    # make sure the flatness cutoff leaves the low derivatives finite
    for beta in multiindices(d, 2):
        probe = moll.deriv(beta, nodes[: min(len(nodes), 128)])
        if not np.all(np.isfinite(probe)):
            raise QuadratureError("mollifier derivative evaluation overflowed")
    return moll


# ---------------------------------------------------------------------------
# convolution


def convolve(f: SampledFunction, g: SampledFunction, quad: QuadratureSpec,
             side: str = "g") -> SampledFunction:
    """f * g for a scalar g with analytic derivatives (Mollifier.as_sampled),
    the integral discretized over one factor's compact support.

    side 'f' integrates sum_q w_q f(y_q) g(x - y_q) over supp f; side 'g'
    substitutes z = x - y and integrates sum_q w_q g(z_q) f(x - z_q) over
    supp g. Both discretize the same integral; the commutativity check
    exercises the two node sets against each other. Either way every
    derivative falls on g, so the result has g's order.
    """
    if g.value_dim != 1:
        raise ValueError("the second convolution factor must be scalar")
    if g.derivative is None:
        raise ValueError("the second convolution factor needs analytic derivatives")
    if side not in ("f", "g"):
        raise ValueError("side must be 'f' or 'g'")
    nodes_region = f.support if side == "f" else g.support
    if nodes_region is None:
        raise ValueError("the integration side of a convolution must have compact support")
    if nodes_region.is_empty:
        return sf_zero(f.domain, f.value_dim, order=max(f.order, g.order))

    nodes, weights = region_nodes(nodes_region, quad.finest_points)
    m = f.value_dim

    if side == "g":
        base_coeff = weights * g.eval_extended(nodes)[:, 0]          # (Q,)

        def deriv_multi(betas, points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            out = np.zeros((len(betas), len(pts), m))
            coeffs = np.stack([
                base_coeff if mi_order(tuple(b)) == 0
                else weights * g.deriv(tuple(b), nodes)[:, 0]
                for b in betas])                                      # (B, Q)
            live = np.flatnonzero(np.any(coeffs != 0.0, axis=0))
            # f sees the points shifted by a chunk of nodes in one call; the
            # sum still adds one node at a time, in node order
            per_chunk = max(1, CHUNK_POINTS // max(len(pts), 1))
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

    else:  # side == "f"
        fvals = weights[:, None] * f.eval_extended(nodes)             # (Q, m)

        def deriv_multi(betas, points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            out = np.zeros((len(betas), len(pts), m))
            for bi, beta in enumerate(betas):
                beta = tuple(beta)
                for q in range(len(nodes)):
                    gq = g.deriv_extended(beta, pts - nodes[q])[:, 0]
                    out[bi] += gq[:, None] * fvals[q][None, :]
            return out

    support = None
    if f.support is not None and g.support is not None:
        summed = []
        for fb in f.support.boxes:
            for gb in g.support.boxes:
                summed.append(Box(tuple(np.asarray(fb.lo) + np.asarray(gb.lo)),
                                  tuple(np.asarray(fb.hi) + np.asarray(gb.hi))))
        support = Region(tuple(summed), f.domain.points_per_axis)

    bb = nodes_region.bounding_box()
    radius = np.maximum(np.abs(bb.lo), np.abs(bb.hi))
    conv = SampledFunction(
        domain=f.domain.inflate(radius),
        order=g.order,
        value_dim=m,
        evaluator=lambda pts: deriv_multi([(0,) * f.d], np.atleast_2d(pts))[0],
        derivative=lambda beta, pts: deriv_multi([tuple(beta)], pts)[0],
        support=support,
        name=f"({f.name})*({g.name})",
    )
    conv.deriv_multi = deriv_multi
    return conv


# ---------------------------------------------------------------------------
# lemma-level checks and regularization


def commutativity_check(f: SampledFunction, g: SampledFunction, quad: QuadratureSpec,
                        sample_points: np.ndarray) -> float:
    """max over sample points of p_sup((f*g)(x) - (g*f)(x)).

    The two orientations integrate over supp f and supp g respectively, so
    they share no quadrature nodes.
    """
    fg = convolve(f, g, quad, side="f")
    # g * f evaluated from its definition, nodes over supp g
    gf = convolve(f, g, quad, side="g")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    diff = fg.eval(pts) - gf.eval(pts)
    return float(np.max(np.abs(diff))) if len(pts) else 0.0


@dataclass
class TransferReport:
    """Pairwise sups between the three derivative routes of f * rho_n."""

    fd_vs_kernel: float
    fd_vs_carrier: float
    kernel_vs_carrier: float

    @property
    def max_discrepancy(self) -> float:
        return max(self.fd_vs_kernel, self.fd_vs_carrier, self.kernel_vs_carrier)


def derivative_transfer_check(f: SampledFunction, moll: Mollifier, beta: MultiIndex,
                              sample_points: np.ndarray, quad: QuadratureSpec,
                              fd_step: float = 1e-3) -> TransferReport:
    """Compare (a) finite differences of f*rho_n, (b) f*(d^beta rho_n),
    (c) (d^beta f)*rho_n at the sample points."""
    beta = tuple(int(b) for b in beta)
    if mi_order(beta) > min(f.order, SMOOTH_ORDER):
        raise ValueError("transfer check order exceeds the proven range")
    rho = moll.as_sampled()
    conv = convolve(f, rho, quad, side="g")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))

    from .funcmodel import _nested_central

    route_fd = _nested_central(conv.eval, beta, pts, fd_step)
    route_kernel = conv.deriv(beta, pts)  # f * d^beta rho by transfer

    def df_eval(points):
        return f.deriv_extended(beta, points)

    df = SampledFunction(domain=f.domain, order=max(f.order - mi_order(beta), 0),
                         value_dim=f.value_dim, evaluator=df_eval,
                         support=f.support, name="df")
    route_carrier = convolve(df, rho, quad, side="g").eval(pts)

    return TransferReport(
        fd_vs_kernel=float(np.max(np.abs(route_fd - route_kernel))),
        fd_vs_carrier=float(np.max(np.abs(route_fd - route_carrier))),
        kernel_vs_carrier=float(np.max(np.abs(route_kernel - route_carrier))),
    )


def regularize(f: SampledFunction, n: int, quad: QuadratureSpec) -> SampledFunction:
    """f * rho_n for compactly supported f; support inflates by 1/n."""
    support = f.support_region()
    if support.is_empty:
        return sf_zero(f.domain, f.value_dim, order=SMOOTH_ORDER)
    moll = build_mollifier(f.d, n, quad)
    fc = f if f.support is not None else replace(f, support=support)
    return convolve(fc, moll.as_sampled(), quad, side="g")


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
