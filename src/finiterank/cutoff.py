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
0.1 asks 137,438, 1,665 distinct in their calls). The window rule is stored
as data, the bits of its upper half in hex, and decoded and mirrored once
per process on first use; no process rebuilds it, and none calls LAPACK.

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
from .seminorms import (SeminormValue, find_tail_compact, jet_difference,  # noqa: F401
                        tail_seminorm, weighted_seminorm)
from .weights import WeightFamily, WeightIndex


# ramp points per block of the window quadrature
_RAMP_ROWS = 128
# 128 Gauss-Legendre nodes on the (flat-ended) overlap window: the ramp
# values are within ~3e-15 absolute of the exact integral (relatively worse
# only where psi itself is tiny); the plateau is exactly 1 and skips the
# quadrature, and derivatives are closed-form. Stored as the rule's 64 nodes
# in (0, 1) on [-1, 1], ascending, then their weights, as little-endian
# float64 bytes in hex; tests/oracles.py::gauss_legendre rebuilds the rule by
# Newton's iteration, and every bit must match
_RULE_HALF = (
    "240b2d1abd08893f3df150ae98c5a23f5d6ca6cb2246af3f60c8f6f4f1e0b53fe891fb87791bbc3f83f5b412da28c13f"
    "42491f3e5741c43f34ac9204bb56c73ffd27ca9d8c68ca3fe7ed60cd5376cd3ffdfa9b7acc3fd03f4fb3e193f2c1d13f"
    "df7b1e1d6141d33f6d445c6bddbdd43fd1120c472d37d63f005deef416add73fdd5de83e611fd93fcd0ac57cd38dda3f"
    "3d53e09c35f8db3f7756bb2c505edd3fd13f7861ecbfde3f693e1e106a0ee03f82023c0369bae03f873708b9d863e13f"
    "a849b7449f0ae23f2bc0b621a3aee23f54c59437cb4fe33feb22d7ddfeede33f0f1dc1df2589e43f8b9707802821e53f"
    "91f4727cefb5e53fa71e6e116447e63f4d3282fd6fd5e63f0b3fbe84fd5fe73f6c9a0a74f7e6e73fbe426724496ae83f"
    "81d2147edee9e83fd388a7fba365e93f67ee03ad86dde93f26a2443a7451ea3f0bdc88e65ac1ea3f5e38ab92292deb3f"
    "3261e0bfcf94eb3fb82f3d923df8eb3ff1e223d36357ec3f200d98f333b2ec3f91dd780ea008ed3fb370a1ea9a5aed3f"
    "fed4eefc17a8ed3f7a782b6a0bf1ed3fc0b8df086a35ee3f235707632975ee3fb39dabb73fb0ee3f961362fca3e6ee3f"
    "60bfafde4d18ef3f703751c53545ef3f385468d1546def3f9eca91dfa490ef3fb204e98820afef3f1ba00d24c3c8ef3f"
    "370b70c688ddef3f374f1f476eedef3f28c1184b71f8ef3fa6b66ec390feef3ff5fdd1616b08993f7c980fd99604993f"
    "d12b925deefc983ff37f511b73f1983f96e007d426e2983f324eedde0bcf983fa0cd5b2825b8983f3ce85c31769d983f"
    "936a200f037f983f92785c6ad05c983ff40f977ee336983f44125919420d983f9bf94a99f2df973fc4573bedfbae973f"
    "35470f93657a973fcaf79c963742973f398370907a06973fda397ba437c7963fe49bad807884963f09357c5b473e963f"
    "53944ff2aef4953f1f9fdf87baa7953f167d7ae27557953fe762374aed03953f768015872dad943f975e07df4353943f"
    "51f5ea133ef6933fe4cd6e612a96933ff480e47a1733933f97e6008914cd923f56508a273164923fac28f5627df8913f"
    "f554efb5098a913fc3b9da06e718913fe34537a526a5903fcce7fc46da2e903f3eadcb0b286c8f3f1f3153b9cc758e3f"
    "11685248c87a8d3fadf41921417b8c3f8abca85c5e778b3fbd94b0be476f8a3ff1dc80af2563893febfad7352153883f"
    "6eb39cf0633f873fe86080101828863f5b188b51680d853f02d892f47fef833fd9fb9eb88ace823fb25739d4b4aa813f"
    "5facaeee2a84803f586f813234b67e3fd1909a905f5f7c3f7a37e09833047a3ff71255970ca5773f891151754742753f"
    "7b1bb5ac41dc723f6abeeb3c5973703f975e274ad90f6c3f65f7aeddb534673fdc1d85f30756623f76c2eb2f28e95a3f"
    "52415ad07422513fa37824875c733d3f"
)


@functools.cache
def _window_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], decoded once per process."""
    half = np.frombuffer(bytes.fromhex(_RULE_HALF), dtype="<f8").reshape(2, -1)
    u = np.concatenate((-half[0, ::-1], half[0]))
    w = np.concatenate((half[1, ::-1], half[1]))
    u, w = 0.5 * (u + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


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
        jets = [{g: self._box_deriv(p, g, pts) for g in submultiindices(beta)} for p in self.boxes]
        prod = leibniz([{g: -v if mi_order(g) else 1.0 - v for g, v in jet.items()}
                        for jet in jets], beta)
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
                  extra_jet: Optional[np.ndarray] = None) -> dict[MultiIndex, float]:
    """{beta: delta^|beta| max |d^beta psi|} for |beta| <= l, on the dense grid
    of supp psi (801 points in 1D, 101 per axis otherwise) plus the points
    of extra_jet, psi's jet over multiindices(d, l) at further points (as
    psi.deriv_multi returns it), e.g. the scan grid the bound will be
    checked on."""
    pts = psi.support.with_resolution(801 if psi.d == 1 else 101).grid_points()
    betas = multiindices(psi.d, l)
    jet = psi.deriv_multi(betas, pts)
    if extra_jet is not None:
        jet = np.concatenate([jet, extra_jet], axis=1)
    peaks = np.max(np.abs(jet), axis=(1, 2))
    return {beta: float(peak) * delta ** mi_order(beta) for beta, peak in zip(betas, peaks)}


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
        betas = submultiindices(beta)
        return leibniz([dict(zip(betas, f.deriv_multi(betas, pts))),
                        dict(zip(betas, psi.deriv_multi(betas, pts)[:, :, 0:1]))], beta)

    return SampledFunction(
        domain=f.domain,
        order=order,
        value_dim=f.value_dim,
        evaluator=lambda pts: psi.eval(pts)[:, 0:1] * f.eval(pts),
        derivative=derivative,
        support=psi.support,
        name=f"cutoff*({f.name})",
    )


def cutoff_jet(betas: list[MultiIndex], f_jet: np.ndarray, inside: np.ndarray,
               psi_jet: np.ndarray) -> np.ndarray:
    """The jet of multiply_cutoff(psi, f) over betas at some points, read
    from f's jet there (f_jet) and psi's jet (psi_jet) at the points that
    lie inside supp psi (the mask inside), in their order; outside the
    support the jet is zero. betas is multiindices(d, l), the rows of both
    jets, a lower set. Each derivative is funcmodel.leibniz over the two
    jets, with the terms of multiply_cutoff's, so the jet equals sample_jet
    of the product value for value (f_jet, like any sampled jet, is zero
    outside f's declared support); only a zero where psi vanishes may carry
    the other sign, which no seminorm reads.
    """
    jets = [dict(zip(betas, f_jet[:, inside])), dict(zip(betas, psi_jet[:, :, 0:1]))]
    out = np.zeros(f_jet.shape)
    for i, beta in enumerate(betas):
        out[i, inside] = leibniz(jets, beta)
    return out


def apply_cutoff(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                 alpha: SeminormIndex, eps: float, delta: float,
                 omega: Optional[Region] = None, *,
                 jet: np.ndarray) -> tuple[SampledFunction, CutoffReport]:
    """Cut f off outside a tail compact with budget eps.

    The tail target eps / (1 + C_{l,delta}) needs C_{l,delta} first, so a
    provisional cut-off on the eps-compact fixes the constant (it depends on
    delta and the construction, not on the compact), then the definitive
    compact is searched at the sharpened target. Every scan reads jet, f's
    jet on its domain grid (sample_jet), and the report carries f~'s jet
    there, built from it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    domain = f.domain
    if omega is None:
        omega = domain
    dom_pts = domain.grid_points()
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
    # at every point the seminorms will visit; psi's jet there is read once,
    # for the bound and for f~'s jet (each box of supp psi = K + 3 delta/4
    # lies inside its box of K + delta, so supp psi's grid points are among
    # these)
    near = K.inflate(delta).contains(dom_pts)
    psi = build_cutoff(K, delta, omega=omega)
    betas = multiindices(f.d, idx.l)
    psi_near = psi.deriv_multi(betas, dom_pts[near])
    Cbeta_table = measure_cbeta(psi, delta, idx.l, extra_jet=psi_near)
    C_final = cutoff_constant(Cbeta_table, delta, idx.l)

    f_tilde = multiply_cutoff(psi, f)
    in_supp = psi.support.contains(dom_pts[near])
    inside = near.copy()
    inside[near] = in_supp
    f_tilde_jet = cutoff_jet(betas, jet, inside, psi_near[:, in_supp])
    tail = tail_seminorm(f, K, fam, idx, alpha, jet=jet)
    measured = jet_difference(f, jet, f_tilde, f_tilde_jet, dom_pts, fam, idx, alpha)
    return f_tilde, CutoffReport(K, Cbeta_table, C_final, tail, measured, f_tilde_jet)
