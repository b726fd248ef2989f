"""Smooth cut-off functions with measured derivative constants.

psi is built per box of K as a tensor product of 1D mollified indicators
(window inflated by delta/2) and joined across boxes by the smooth union
1 - prod(1 - psi_b). The kernel is the unit bump u -> exp(-1/(1-u^2)) at
scale n = ceil(4/delta), so its radius 1/n is at most delta/4, divided by
its own Gauss-Legendre window mass; psi depends on K and delta alone and no
convolution quadrature enters. This gives, exactly on the continuum:
0 <= psi <= 1, psi = 1 on K + delta/4, supp psi inside K + 3 delta/4, all
per axis. The plateau value is exactly 1 by that normalization and is set
without any quadrature. An axis profile keeps nothing between calls; a call
runs the window quadrature once per distinct ramp point (exp_strips_2d eps
0.1 asks 137,438, 1,665 distinct in their calls). The window rule is built
once per process, without LAPACK.

build_cutoff measures nothing. measure_cbeta stores delta^|beta| * max
|d^beta psi| over a fixed dense grid plus any pinned points, so the
Hoermander-style bound |d^beta psi| <= C_beta delta^-|beta| holds there by
construction and re-measurement reproduces the table. Only apply_cutoff,
whose tail bound reads C_{l,delta}, measures. It returns f~ = psi f, whose
Leibniz-rule derivatives stop at the lower order of psi and f, and f~'s jet
on f's domain grid, built from f's jet there and psi's (cutoff_jet).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mollify
from .errors import GeometryError, OrderError
from .funcmodel import (MultiIndex, SampledFunction, SeminormIndex, leibniz, mi_order,
                        mi_sub, multiindex_binom, multiindices, submultiindices)
from .geometry import Box, Region
# weighted_seminorm stays bound for perfbench/trace_layers.py, which rebinds it
from .seminorms import (SeminormValue, find_tail_compact, grid_jet,  # noqa: F401
                        jet_difference, tail_seminorm, weighted_seminorm)
from .weights import WeightFamily, WeightIndex


# ramp points per block of the window quadrature
_RAMP_ROWS = 128
# Gauss-Legendre nodes on the (flat-ended) overlap window: the ramp values
# are within ~3e-15 absolute of the exact integral (relatively worse only
# where psi itself is tiny); the plateau is exactly 1 and skips the
# quadrature, and derivatives are closed-form
_WINDOW_NODES = 128


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's iteration on the recurrence from the first guesses
    cos(pi (k - 1/4) / (n + 1/2)), weights 2 / ((1 - x^2) P_n'(x)^2), both
    made symmetric and the weights scaled to sum to 2 (Hale & Townsend,
    SIAM J. Sci. Comput. 35, 2013). numpy's leggauss takes the nodes from a
    LAPACK eigensolver instead, whose first call starts OpenBLAS's thread
    pool, and that pool then slows every later numpy step of the process.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / np.sum(w))


@functools.cache
def _window_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], built once per process."""
    u, w = _gauss_legendre(_WINDOW_NODES)
    return 0.5 * (u + 1.0), 0.5 * w


class _AxisProfile:
    """1D mollified indicator of [lo - delta/2, hi + delta/2].

    psi(t) = (R(t - a) - R(t - b)) / R(inf) with R the running integral of
    the kernel rho(u) = bump(n u), so the derivatives have the closed forms
    psi^(k)(t) = (rho^(k-1)(t - a) - rho^(k-1)(t - b)) / mass. On the ramps
    the value is a fixed-count Gauss-Legendre quadrature over the moving
    overlap window, which is smooth in t because the bump is flat at its
    support ends. On the plateau, where the window is the whole kernel
    support, the value is exactly 1 by normalization and no quadrature runs.
    """

    def __init__(self, lo: float, hi: float, delta: float, n: int):
        self.a = lo - 0.5 * delta
        self.b = hi + 0.5 * delta
        self.n = n
        self.r = 1.0 / n
        self._gl_u, self._gl_w = _window_rule()
        full_nodes = -self.r + self._gl_u * 2.0 * self.r
        self.mass = float(np.dot(self._gl_w, self.kernel(0, full_nodes)) * 2.0 * self.r)

    def kernel(self, k: int, u: np.ndarray) -> np.ndarray:
        """rho^(k)(u) = n^k bump^(k)(n u), unnormalized."""
        # looked up at call time, so a rebinding of mollify.bump_profile sees it
        vals = mollify.bump_profile(self.n * u[:, None], (k,))
        return float(self.n ** k) * vals if k else vals

    def deriv(self, k: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if k > 0:
            upper = self.kernel(k - 1, t - self.a)
            lower = self.kernel(k - 1, t - self.b)
            return (upper - lower) / self.mass
        live = np.minimum(self.r, t - self.a) - np.maximum(-self.r, t - self.b) > 0
        full = (t - self.b <= -self.r) & (t - self.a >= self.r)
        out = np.zeros(len(t))
        ramp = live & ~full
        if ramp.any():
            out[ramp] = self._ramp_values(t[ramp])
        out[full] = 1.0
        return out

    def _ramp_values(self, t: np.ndarray) -> np.ndarray:
        """Ramp values at t; the quadrature runs once per distinct point."""
        pts = np.sort(t)
        pts = pts[np.append(True, pts[1:] != pts[:-1])]  # np.unique loads numpy.ma
        # one row of window nodes per point, summed along its row, so a value
        # depends on its own point and not on the rest of the batch; rows go
        # in fixed blocks to bound the temporaries
        lo = np.maximum(-self.r, pts - self.b)
        length = np.minimum(self.r, pts - self.a) - lo
        values = np.empty(len(pts))
        for start in range(0, len(pts), _RAMP_ROWS):
            rows = slice(start, start + _RAMP_ROWS)
            nodes = lo[rows, None] + self._gl_u[None, :] * length[rows, None]
            vals = self.kernel(0, nodes.ravel()).reshape(nodes.shape)
            values[rows] = np.sum(vals * self._gl_w, axis=1) * length[rows] / self.mass
        return values[np.searchsorted(pts, t)]


class _UnionCutoff:
    """1 - prod_b (1 - psi_b) over the boxes b of K, psi_b the product of b's
    axis profiles; equals psi_b wherever the others vanish."""

    def __init__(self, K: Region, delta: float, n: int):
        self.boxes = [[_AxisProfile(lo, hi, delta, n) for lo, hi in zip(box.lo, box.hi)]
                      for box in K.boxes]

    @staticmethod
    def _box_deriv(profiles: list, beta: MultiIndex, pts: np.ndarray) -> np.ndarray:
        out = np.ones(len(pts))
        for axis, prof in enumerate(profiles):
            out = out * prof.deriv(beta[axis], pts[:, axis])
        return out

    def deriv(self, beta: MultiIndex, pts: np.ndarray) -> np.ndarray:
        if len(self.boxes) == 1:
            return self._box_deriv(self.boxes[0], beta, pts)

        def one_minus(profiles):
            def fn(b, x):
                v = self._box_deriv(profiles, b, x)
                return (1.0 - v) if mi_order(b) == 0 else -v
            return fn

        prod = leibniz([one_minus(p) for p in self.boxes], beta, pts)
        return 1.0 - prod if mi_order(beta) == 0 else -prod


def build_cutoff(K: Region, delta: float,
                 omega: Optional[Region] = None) -> SampledFunction:
    """Mollified-indicator cut-off psi: psi = 1 on K, supp psi in K + 3 delta/4."""
    if delta <= 0:
        raise GeometryError("delta must be positive")
    if K.is_empty:
        raise GeometryError("cannot build a cut-off on an empty compact")
    if omega is not None and not omega.covers(K.inflate(delta)):
        raise GeometryError("K inflated by delta leaves the domain surrogate")

    n = int(np.ceil(4.0 / delta))
    union = _UnionCutoff(K, delta, n)
    support = K.inflate(0.75 * delta)
    return SampledFunction(
        domain=omega if omega is not None else support,
        order=mollify.SMOOTH_ORDER,
        value_dim=1,
        evaluator=lambda pts: union.deriv((0,) * K.d, np.atleast_2d(pts))[:, None],
        derivative=lambda beta, pts: union.deriv(tuple(beta), np.atleast_2d(pts))[:, None],
        support=support,
        name="cutoff",
    )


def measure_cbeta(psi: SampledFunction, delta: float, l: int,
                  extra_points: Optional[np.ndarray] = None) -> dict[MultiIndex, float]:
    """{beta: delta^|beta| max |d^beta psi|} for |beta| <= l, on the dense grid
    of supp psi (801 points in 1D, 101 per axis otherwise) plus extra_points,
    e.g. the scan grid the bound will be checked on."""
    pts = psi.support.with_resolution(801 if psi.d == 1 else 101).grid_points()
    if extra_points is not None and len(extra_points):
        pts = np.concatenate([pts, extra_points])
    return {beta: float(np.max(np.abs(psi.deriv(beta, pts)))) * delta ** mi_order(beta)
            for beta in multiindices(psi.d, l)}


def cutoff_constant(Cbeta_table: dict[MultiIndex, float], delta: float, l: int) -> float:
    """sup over |beta| <= l of sum_{gamma <= beta} binom * C_{beta-gamma} delta^-|beta-gamma|."""
    d = len(next(iter(Cbeta_table)))
    best = 0.0
    for beta in multiindices(d, l):
        total = 0.0
        for gamma in submultiindices(beta):
            diff = mi_sub(beta, gamma)
            if tuple(diff) not in Cbeta_table:
                raise OrderError(f"C_beta table does not cover beta={diff}")
            total += multiindex_binom(beta, gamma) * Cbeta_table[tuple(diff)] \
                * delta ** (-mi_order(diff))
        best = max(best, total)
    return best


@dataclass
class CutoffReport:
    K: Region
    Cbeta_table: dict
    C_l_delta: float
    tail: SeminormValue
    measured: SeminormValue
    jet: np.ndarray              # f~'s jet on f's domain grid, for the later stages


def multiply_cutoff(psi: SampledFunction, f: SampledFunction) -> SampledFunction:
    """psi * f with Leibniz-rule derivatives up to the lower order, and psi's support."""
    order = min(f.order, psi.order)

    def derivative(beta, pts):
        if mi_order(beta) > order:
            raise OrderError("product-rule order exceeds a factor's order")
        return leibniz([f.deriv, lambda gamma, x: psi.deriv(gamma, x)[:, 0:1]], beta, pts)

    return SampledFunction(
        domain=f.domain,
        order=order,
        value_dim=f.value_dim,
        evaluator=lambda pts: psi.eval(pts)[:, 0:1] * f.eval(pts),
        derivative=derivative,
        support=psi.support,
        name=f"cutoff*({f.name})",
    )


def cutoff_jet(psi: SampledFunction, f_jet: np.ndarray, idx: WeightIndex,
               pts: np.ndarray) -> np.ndarray:
    """The jet of multiply_cutoff(psi, f) at pts, read from f's jet there.

    psi is sampled once, inside its support; outside it the jet is zero.
    Each derivative is multiply_cutoff's leibniz over two factors that read
    the jets, so the jet equals sample_jet of the product bit for bit (f_jet,
    like any sampled jet, is zero outside f's declared support).
    """
    betas = multiindices(pts.shape[1], idx.l)
    row = {beta: i for i, beta in enumerate(betas)}
    inside = psi.support.contains(pts)
    psi_jet = psi.deriv_multi(betas, pts[inside])[:, :, 0:1]
    f_in = f_jet[:, inside]
    factors = [lambda gamma, _: f_in[row[gamma]],
               lambda gamma, _: psi_jet[row[gamma]]]
    out = np.zeros(f_jet.shape)
    for i, beta in enumerate(betas):
        out[i, inside] = leibniz(factors, beta, None)
    return out


def apply_cutoff(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                 alpha: SeminormIndex, eps: float, delta: float,
                 omega: Optional[Region] = None,
                 jet: Optional[np.ndarray] = None) -> tuple[SampledFunction, CutoffReport]:
    """Cut f off outside a tail compact with budget eps.

    The tail target eps / (1 + C_{l,delta}) needs C_{l,delta} first, so a
    provisional cut-off on the eps-compact fixes the constant (it depends on
    delta and the construction, not on the compact), then the definitive
    compact is searched at the sharpened target. Every scan reads f's jet on
    its domain grid, jet when the caller holds it (see grid_jet), and the
    report carries f~'s jet there, built from it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    domain = f.domain
    if omega is None:
        omega = domain
    dom_pts, jet = grid_jet(f, idx, jet)
    K0 = find_tail_compact(f, fam, idx, alpha, eps, delta, omega=omega, jet=jet)
    if K0.is_empty:
        # tail already below target everywhere; cut around one central cell
        step = domain.spacing()
        b0 = domain.boxes[0]
        center = 0.5 * (np.asarray(b0.lo) + np.asarray(b0.hi))
        K0 = Region((Box(tuple(center - 0.5 * step), tuple(center + 0.5 * step)),),
                    domain.points_per_axis)
    provisional = build_cutoff(K0, delta, omega=omega)
    C = cutoff_constant(measure_cbeta(provisional, delta, idx.l), delta, idx.l)

    K = find_tail_compact(f, fam, idx, alpha, eps / (1.0 + C), delta, omega=omega,
                          jet=jet)
    if K.is_empty or K.volume() == 0.0:
        K = K0
    # pin the scan grid into the C_beta measurement so the lemma bound holds
    # at every point the seminorms will visit
    near = K.inflate(delta).contains(dom_pts)
    psi = build_cutoff(K, delta, omega=omega)
    Cbeta_table = measure_cbeta(psi, delta, idx.l, extra_points=dom_pts[near])
    C_final = cutoff_constant(Cbeta_table, delta, idx.l)

    f_tilde = multiply_cutoff(psi, f)
    f_tilde_jet = cutoff_jet(psi, jet, idx, dom_pts)
    tail = tail_seminorm(f, K, fam, idx, alpha, jet=jet)
    measured = jet_difference(f, jet, f_tilde, f_tilde_jet, dom_pts, fam, idx, alpha)
    return f_tilde, CutoffReport(K, Cbeta_table, C_final, tail, measured, f_tilde_jet)
