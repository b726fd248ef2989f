"""Mollifiers and the lattice convolution engine.

The base bump exp(-1/(1-|x|^2)) has every derivative vanishing at |x|=1, so
composite midpoint and lattice rules converge superalgebraically on it; the
refinement ladder in QuadratureSpec makes that checkable for the mollifier's
mass. Derivatives of the bump come from a closed-form recurrence
(bump_profile), evaluated over a whole batch in place; the flat rim
|x|^2 >= 1 - 1e-8 keeps the rational prefactors finite and is zeroed last.

convolve takes the Mollifier itself and integrates over its 1/n box only:
every derivative of f * rho_n falls on rho_n. Its nodes z_q = q delta lie on
the lattice x_0 + delta Z^d that refines the grid of f's domain k_a times per
axis (lattice_steps: even, at least 2^(refinement_levels+1) and at least
finest_points steps per radius), and its coefficients are normalized by the
lattice mass, which must be 1 up to the quadrature's tol. A batch of points
is split by the points' offset from the lattice, grouped by one stable
lexsort of the offset keys: every scan grid and the verifier's refine=2 grid
lie on the lattice itself, and a refine=3 grid on 3^d copies of it (3
offsets per axis when 3 does not divide k_a). Each group samples f once per
lattice point of its padded window, and each point's sum is one product of
the block of samples its window reads and the coefficients. A scattered
point, whose offset no other point shares, is a group of its own and reads a
window of its own. A convolution keeps the samples of the last window it
read, read-only, keyed by the group's lattice origin, the window's corner and
its shape; a miss replaces them. So the verifier's refine=2 scan of
g * rho_N reads the window of g that the ledger's scan sampled.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, QuadratureError
from .funcmodel import (MultiIndex, SampledFunction, SeminormIndex, exp_poly, mi_order,
                        multiindices, sf_zero)
from .geometry import Box, Region
# weighted_seminorm stays bound for perfbench/trace_layers.py, which rebinds it
from .seminorms import grid_jet, jet_difference, sample_jet, weighted_seminorm  # noqa: F401
from .weights import WeightFamily, WeightIndex

_FLAT_CUTOFF = 1e-8

# The order every smooth object (the mollifier, every convolution, the
# cut-off) declares.
SMOOTH_ORDER = 6

# The most values one convolution has f return at once (points x
# coordinates; 512 KB of float64).
CHUNK_VALUES = 2**16

# The most values one lattice window holds (lattice points x coordinates;
# 16 MB of float64). A batch whose padded window is larger is cut into runs of
# consecutive points, so a many-coordinate f (the partition's factor map)
# never samples a dense lattice that is rank values wide.
WINDOW_VALUES = 2**21

# The resolution, in lattice steps, at which Lattice.split tells points'
# offsets from the lattice apart: offsets that differ by rounding only
# share a group.
_OFFSET_QUANTUM = 1e-9


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
    The whole batch is evaluated in place, with s = 1 on the flat rim (so no
    division warns) and the rim zeroed last; the terms are added to 0 in
    gamma's order. A value takes the same steps whatever else is in the batch.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    beta = (0,) * pts.shape[1] if beta is None else tuple(beta)
    t = pts[:, 0] * pts[:, 0] if pts.shape[1] == 1 else np.sum(pts * pts, axis=1)
    flat = ~(t < 1.0 - _FLAT_CUTOFF)  # a NaN point is flat too
    t[flat] = 0.0
    s = np.divide(1.0, np.subtract(1.0, t, out=t), out=t)
    phi = np.negative(s)
    np.exp(phi, out=phi)
    out = 0.0
    for gamma in itertools.product(*(range(b // 2 + 1) for b in beta)):
        q = exp_poly(sum(beta) - sum(gamma), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        term = phi * np.polyval(q, s) if len(q) > 1 else phi
        for i, (b, g) in enumerate(zip(beta, gamma)):
            if b:
                coeff = math.factorial(b) // (math.factorial(g) * math.factorial(b - 2 * g))
                term *= coeff * (2.0 * pts[:, i]) ** (b - 2 * g)
        out += term  # 0 + term is a new array, so a -0.0 term sums to +0.0
    out[flat] = 0.0
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
        masses.append(float(np.sum(weights * bump_profile(nodes))))
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
        return float(np.sum(weights * np.abs(self.deriv(beta, nodes))))

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


def lattice_steps(h: np.ndarray, radius: float, quad: QuadratureSpec) -> np.ndarray:
    """k_a, the lattice steps per scan cell on each axis: the smallest even
    integer that is at least 2^(refinement_levels + 1) and at least
    h_a finest_points / radius.

    Even, so the verifier's refine=2 grid lies on the lattice too. The second
    bound puts finest_points steps in one radius, the density of the
    midpoint ladder's next level after its finest: the finest level itself
    under-resolves what f does within one cell (the partition cut-off ramps
    over two thirds of a cell, and a support edge is a jump). The first
    refines each half cell as often as the quadrature refines its base rule.
    """
    need = np.maximum(2.0 ** (quad.refinement_levels + 1),
                      np.asarray(h, dtype=float) * quad.finest_points / radius)
    return 2 * np.ceil(need / 2.0 - 1e-9).astype(int)


@dataclass(frozen=True)
class Lattice:
    """The lattice x_0 + delta Z^d of one convolution, and the multi-indices
    q of its nodes z_q = q delta in the 1/n box, in lexicographic order."""

    origin: np.ndarray
    delta: np.ndarray
    offsets: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.offsets * self.delta

    def split(self, pts: np.ndarray):
        """Groups of the points by their offset from the lattice: yields
        (rows, lattice, J), pts[rows] = lattice.origin + J delta up to
        rounding, where lattice is this one shifted by the group's offset.
        Points on the lattice itself keep its origin exactly."""
        if not len(pts):
            return
        t = (pts - self.origin) / self.delta
        frac = t - np.rint(t)
        key = np.rint(frac / _OFFSET_QUANTUM).astype(np.int64)
        # one stable sort of the keys, first coordinate first; a group is a
        # run of equal keys, its rows in batch order
        order = np.lexsort(key.T[::-1])
        cuts = np.flatnonzero(np.any(np.diff(key[order], axis=0) != 0, axis=1)) + 1
        for rows in np.split(order, cuts):
            shift = np.where(key[rows[0]] == 0, 0.0, np.mean(frac[rows], axis=0))
            J = np.rint(t[rows] - shift).astype(np.int64)
            yield rows, replace(self, origin=self.origin + shift * self.delta), J


def scan_lattice(domain: Region, moll: Mollifier, quad: QuadratureSpec) -> Lattice:
    """The lattice through domain's first grid corner with spacing
    h_a / k_a (lattice_steps), h the domain's grid spacing."""
    r = moll.radius
    h = domain.spacing()
    h = np.where(h > 0, h, 2.0 * r / quad.finest_points)
    delta = h / lattice_steps(h, r, quad)
    reach = np.floor(r / delta).astype(int)
    axes = np.meshgrid(*(np.arange(-R, R + 1) for R in reach), indexing="ij")
    origin = np.asarray(domain.boxes[0].lo) if domain.boxes else np.zeros(domain.d)
    return Lattice(origin, delta, np.stack([a.ravel() for a in axes], axis=1))


def convolve(f: SampledFunction, moll: Mollifier, quad: QuadratureSpec) -> SampledFunction:
    """f * rho_n: with z = x - y, d^beta (f * rho_n)(x) is
    sum_q c_{beta,q} f(x - z_q) over the lattice nodes z_q in the mollifier's
    1/n box, c_{beta,q} = w d^beta rho_n(z_q) / M for the cell volume w and
    the lattice mass M = sum_q w rho_n(z_q). Every derivative falls on
    rho_n, so the result has the mollifier's order, and its support is f's
    inflated by 1/n.
    """
    lat = scan_lattice(f.domain, moll, quad)
    nodes = lat.nodes
    m = f.value_dim
    cell = float(np.prod(lat.delta))
    mass = float(np.sum(cell * moll.deriv((0,) * f.d, nodes)))
    if abs(mass - 1.0) >= quad.tol:
        raise QuadratureError(f"lattice mass check failed: {mass}")

    # the last window read, read-only, keyed by its lattice, corner and shape:
    # the verifier's refine=2 scan reads the window the ledger's scan read
    held = {}

    def window(shifted: Lattice, lo: np.ndarray, shape: tuple) -> np.ndarray:
        key = (shifted.origin.tobytes(), lo.tobytes(), shape)
        if key not in held:
            held.clear()
            held[key] = _sample_window(f, shifted, lo, shape)
            held[key].flags.writeable = False
        return held[key]

    def deriv_multi(betas, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        coeffs = np.stack([cell * moll.deriv(b, nodes) / mass for b in betas])  # (B, Q)
        live = np.flatnonzero(np.any(coeffs != 0.0, axis=0))
        offsets = lat.offsets[live]
        reach = np.max(np.abs(offsets), axis=0)
        # the live coefficients fill a dense box over [-reach, reach]^d,
        # node q at flipped position reach - q, so window position k reads
        # u[J - reach + k]; flattened to (S, B)
        box = np.zeros(tuple(int(w) for w in 2 * reach + 1) + (len(betas),))
        box[tuple((reach - offsets).T)] = coeffs[:, live].T
        C = box.reshape(-1, len(betas))
        out = np.zeros((len(betas), len(pts), m))
        for rows, shifted, J in lat.split(pts):
            out[:, rows] = _lattice_sum(window, m, shifted, J, C, reach)
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


def _lattice_sum(window, m: int, lat: Lattice, J: np.ndarray, C: np.ndarray,
                 reach: np.ndarray) -> np.ndarray:
    """sum_q c_q u[J - q] at the lattice points x_0 + J delta, u = f
    zero-extended with m coordinates, read once per window of consecutive
    points: window(lat, lo, shape) is u at the lattice points lo + [0, shape).

    C is the coefficient box over [-reach, reach]^d, flipped and flattened to
    (S, B), so the sum at a point is one product: the (m, S) block of u that
    its sliding window reads times C. Evenly spaced 1D rows read their blocks
    as one strided view of u; other rows gather them, at most WINDOW_VALUES
    values at a time.
    """
    d = J.shape[1]
    width = tuple(int(w) for w in 2 * reach + 1)
    per_gather = max(1, WINDOW_VALUES // (max(m, 1) * len(C)))
    out = np.empty((len(J), m, C.shape[1]))
    for g in _windows(J, reach, m):
        first = np.min(J[g], axis=0)
        shape = tuple(int(s) for s in np.max(J[g], axis=0) - first + 2 * reach + 1)
        u = window(lat, first - reach, shape)
        # W[T] is the (m, *width) block of u that the window of point first + T reads
        W = np.lib.stride_tricks.sliding_window_view(u, width, axis=tuple(range(d)))
        T, sums = J[g] - first, out[g]
        gap = int(T[1, 0] - T[0, 0]) if len(T) > 1 else 1
        if d == 1 and gap > 0 and np.all(np.diff(T[:, 0]) == gap):
            np.matmul(W[T[0, 0]::gap][:len(T)], C, out=sums)
            continue
        for s in range(0, len(T), per_gather):
            t = T[s:s + per_gather]
            np.matmul(W[tuple(t.T)].reshape(len(t), m, -1), C, out=sums[s:s + len(t)])
    return out.transpose(2, 0, 1)


def _windows(J: np.ndarray, reach: np.ndarray, m: int):
    """Slices of consecutive points whose padded window holds at most
    WINDOW_VALUES values, one point at least."""
    start = 0
    while start < len(J):
        span = (np.maximum.accumulate(J[start:], axis=0)
                - np.minimum.accumulate(J[start:], axis=0))
        values = np.prod(span + 2 * reach + 1, axis=1) * max(m, 1)
        stop = start + max(1, int(np.count_nonzero(values <= WINDOW_VALUES)))
        yield slice(start, stop)
        start = stop


def _sample_window(f: SampledFunction, lat: Lattice, lo: np.ndarray,
                   shape: tuple) -> np.ndarray:
    """u = f zero-extended at the lattice points lo + [0, shape), as a
    (*shape, m) array; f returns at most CHUNK_VALUES values per call. A
    call's coordinates come one axis at a time from a divmod of its row-major
    positions, column-major, so each axis that f and its support read is
    contiguous."""
    size, m = math.prod(shape), f.value_dim
    u = np.empty((size, m))
    per_call = max(1, CHUNK_VALUES // max(m, 1))
    for start in range(0, size, per_call):
        flat = np.arange(start, min(start + per_call, size))
        x = np.empty((len(shape), len(flat))).T
        for a in reversed(range(len(shape))):
            flat, q = np.divmod(flat, shape[a])
            x[:, a] = lat.origin[a] + (lo[a] + q) * lat.delta[a]
        u[start:start + len(x)] = f.eval_extended(x)
    return u.reshape(shape + (m,))


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

    f's jet there is the caller's; each scale keeps the jet of f * rho_n, so
    a later stage reads the smoothed values instead of convolving f again.
    """

    def __init__(self, f: SampledFunction, jet: np.ndarray, fam: WeightFamily,
                 idx: WeightIndex, alpha: SeminormIndex, quad: QuadratureSpec):
        self.f, self.f_jet, self.fam, self.idx, self.alpha = f, jet, fam, idx, alpha
        self.quad = quad
        self.pts = f.domain.grid_points()
        self.scales: dict[int, Smoothing] = {}

    def error(self, n: int) -> float:
        """|f - f * rho_n|, regularizing and measuring on the first ask for n."""
        if n not in self.scales:
            smoothed = regularize(self.f, n, self.quad)
            jet = sample_jet(smoothed, self.idx, self.pts)
            err = jet_difference(self.f, self.f_jet, smoothed, jet, self.pts,
                                 self.fam, self.idx, self.alpha)
            self.scales[n] = Smoothing(jet, smoothed.support, err.value)
        return self.scales[n].error


def find_regularization_order(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                              alpha: SeminormIndex, eps: float, n_max: int,
                              quad: QuadratureSpec, jet: Optional[np.ndarray] = None
                              ) -> tuple[int, RegularizationHistory]:
    """Smallest n in {2, 4, ..., n_max} with |f - f*rho_n|_{j,l,alpha} < eps
    on f's domain grid; jet is f's jet there when the caller holds it (see
    grid_jet)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    history = RegularizationHistory(f, grid_jet(f, idx, jet)[1], fam, idx, alpha, quad)
    n = 2
    while n <= n_max:
        if history.error(n) < eps:
            return n, history
        n *= 2
    raise ConvergenceError(
        f"regularization did not reach {eps} by n={n_max}",
        best=min((s.error for s in history.scales.values()), default=None))
