"""Smooth cut-off functions with measured derivative constants.

psi is built per box of K as a tensor product of 1D mollified indicators
(window inflated by delta/2, kernel radius <= delta/4) and joined across
boxes by the smooth union 1 - prod(1 - psi_b). This gives, exactly on the
continuum: 0 <= psi <= 1, psi = 1 on K + delta/4, supp psi inside
K + 3 delta/4, all per axis. The discrete kernel is normalized to unit mass,
so the plateau value is exactly 1 and is set without any quadrature.

The C_beta table stores delta^|beta| * sup |d^beta psi| measured on a fixed
dense grid, so the Hoermander-style bound |d^beta psi| <= C_beta delta^-|beta|
holds by construction and re-measurement reproduces the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GeometryError, OrderError
from .funcmodel import (MultiIndex, SampledFunction, SeminormIndex, mi_order, mi_sub,
                        multiindex_binom, multiindices, product_rule_apply, submultiindices)
from .geometry import Box, Region
from .mollify import SMOOTH_ORDER, QuadratureSpec, build_mollifier
# weighted_seminorm stays bound for perfbench/trace_layers.py, which rebinds it
from .seminorms import (SeminormValue, difference_seminorm, find_tail_compact,  # noqa: F401
                        tail_seminorm, weighted_seminorm)
from .weights import WeightFamily, WeightIndex


# ramp points per block of the window quadrature
_RAMP_ROWS = 128


class _AxisProfile:
    """1D mollified indicator of [lo - delta/2, hi + delta/2].

    psi(t) = (R(t - a) - R(t - b)) / R(inf) with R the running integral of
    the kernel bump, so the derivatives have the closed forms
    psi^(k)(t) = (rho^(k-1)(t - a) - rho^(k-1)(t - b)) / mass. On the ramps
    the value is a fixed-count Gauss-Legendre quadrature over the moving
    overlap window, which is smooth in t because the bump is flat at its
    support ends. On the plateau, where the window is the whole kernel
    support, the value is exactly 1 by normalization and no quadrature runs.
    """

    def __init__(self, lo: float, hi: float, delta: float, moll, count: int):
        self.a = lo - 0.5 * delta
        self.b = hi + 0.5 * delta
        self.moll = moll
        self.r = moll.radius
        u, w = np.polynomial.legendre.leggauss(count)
        self._gl_u = 0.5 * (u + 1.0)
        self._gl_w = 0.5 * w
        full_nodes = -self.r + self._gl_u * 2.0 * self.r
        self.mass = float(np.dot(self._gl_w,
                                 self.moll.deriv((0,), full_nodes[:, None]))
                          * 2.0 * self.r)

    def deriv(self, k: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if k > 0:
            upper = self.moll.deriv((k - 1,), (t - self.a)[:, None])
            lower = self.moll.deriv((k - 1,), (t - self.b)[:, None])
            return (upper - lower) / self.mass
        lo = np.maximum(-self.r, t - self.b)
        hi = np.minimum(self.r, t - self.a)
        length = hi - lo
        live = length > 0
        full = (t - self.b <= -self.r) & (t - self.a >= self.r)
        ramp = live & ~full
        out = np.zeros(len(t))
        # one row of window nodes per ramp point, summed along its row, so a
        # value depends on its own point and not on the rest of the batch;
        # rows go in fixed blocks to bound the temporaries
        idx = np.flatnonzero(ramp)
        for start in range(0, len(idx), _RAMP_ROWS):
            rows = idx[start:start + _RAMP_ROWS]
            nodes = lo[rows][:, None] + self._gl_u[None, :] * length[rows][:, None]
            vals = self.moll.deriv((0,), nodes.reshape(-1, 1)).reshape(nodes.shape)
            out[rows] = np.sum(vals * self._gl_w, axis=1) * length[rows] / self.mass
        out[full] = 1.0
        return out


class _TensorCutoff:
    """Product of axis profiles over one box."""

    def __init__(self, box: Box, delta: float, moll, count: int):
        self.profiles = [_AxisProfile(lo, hi, delta, moll, count)
                         for lo, hi in zip(box.lo, box.hi)]

    def deriv(self, beta: MultiIndex, pts: np.ndarray) -> np.ndarray:
        out = np.ones(len(pts))
        for axis, prof in enumerate(self.profiles):
            out = out * prof.deriv(beta[axis], pts[:, axis])
        return out


def _product_deriv(factors, beta: MultiIndex, pts: np.ndarray) -> np.ndarray:
    """Leibniz rule for a product of smooth scalar factors."""
    if len(factors) == 1:
        return factors[0](beta, pts)
    head, rest = factors[0], factors[1:]
    acc = np.zeros(len(pts))
    for gamma in submultiindices(beta):
        acc += multiindex_binom(beta, gamma) * head(gamma, pts) \
            * _product_deriv(rest, mi_sub(beta, gamma), pts)
    return acc


class _UnionCutoff:
    """1 - prod_b (1 - psi_b); equals psi_b wherever the others vanish."""

    def __init__(self, pieces: list[_TensorCutoff], d: int):
        self.pieces = pieces
        self.d = d

    def deriv(self, beta: MultiIndex, pts: np.ndarray) -> np.ndarray:
        if len(self.pieces) == 1:
            return self.pieces[0].deriv(beta, pts)

        def one_minus(piece):
            def fn(b, x):
                v = piece.deriv(b, x)
                return (1.0 - v) if mi_order(b) == 0 else -v
            return fn

        prod = _product_deriv([one_minus(p) for p in self.pieces], beta, pts)
        if mi_order(beta) == 0:
            return 1.0 - prod
        return -prod


@dataclass
class CutoffFunction:
    K: Region
    delta: float
    psi: SampledFunction
    Cbeta_table: dict[MultiIndex, float]
    measure_region: Region = None
    extra_measure_points: np.ndarray = None
    _union: _UnionCutoff = field(default=None, repr=False)

    def measure_cbeta(self) -> dict[MultiIndex, float]:
        """Re-measure the table on the stored dense grid (plus any pinned
        extra points, e.g. the scan grid the bound will be checked on)."""
        pts = self.measure_region.grid_points()
        if self.extra_measure_points is not None and len(self.extra_measure_points):
            pts = np.concatenate([pts, self.extra_measure_points])
        out = {}
        for beta in self.Cbeta_table:
            vals = np.abs(self._union.deriv(beta, pts))
            out[beta] = float(np.max(vals)) * self.delta ** mi_order(beta)
        return out


def build_cutoff(K: Region, delta: float, l: int, quad: QuadratureSpec,
                 omega: Optional[Region] = None,
                 measure_points_per_axis: Optional[int] = None,
                 extra_measure_points: Optional[np.ndarray] = None) -> CutoffFunction:
    """Mollified-indicator cut-off: psi = 1 on K, supp psi in K + 3 delta/4.

    C_beta is measured for |beta| <= l, all that cutoff_constant(cut, l) reads."""
    if delta <= 0:
        raise GeometryError("delta must be positive")
    if K.is_empty:
        raise GeometryError("cannot build a cut-off on an empty compact")
    if omega is not None and not omega.covers(K.inflate(delta)):
        raise GeometryError("K inflated by delta leaves the domain surrogate")

    # the axis kernels are 1D and cheap; use a generous node count even when
    # the scenario's (d-dimensional) convolution quadrature is coarse
    kq = QuadratureSpec(points_per_axis=max(64, quad.points_per_axis),
                        refinement_levels=max(1, quad.refinement_levels),
                        tol=quad.tol)
    scale = int(np.ceil(4.0 / delta))
    moll = build_mollifier(1, scale, kq)
    # 128 Gauss-Legendre nodes on the (flat-ended) overlap window reach ~1e-9
    # relative accuracy for the ramp values; the plateau is exactly 1 and
    # skips the quadrature; derivatives are closed-form
    count = 128

    pieces = [_TensorCutoff(box, delta, moll, count) for box in K.boxes]
    union = _UnionCutoff(pieces, K.d)

    support = K.inflate(0.75 * delta)

    psi = SampledFunction(
        domain=omega if omega is not None else support,
        order=SMOOTH_ORDER,
        value_dim=1,
        evaluator=lambda pts: union.deriv((0,) * K.d, np.atleast_2d(pts))[:, None],
        derivative=lambda beta, pts: union.deriv(tuple(beta), np.atleast_2d(pts))[:, None],
        support=support,
        name="cutoff",
    )

    if measure_points_per_axis is None:
        measure_points_per_axis = 801 if K.d == 1 else 101
    measure_region = support.with_resolution(measure_points_per_axis)
    cut = CutoffFunction(K=K, delta=delta, psi=psi,
                         Cbeta_table=dict.fromkeys(multiindices(K.d, l), 0.0),
                         measure_region=measure_region,
                         extra_measure_points=extra_measure_points, _union=union)
    cut.Cbeta_table = cut.measure_cbeta()
    return cut


def cutoff_constant(cut: CutoffFunction, l: int) -> float:
    """sup over |beta| <= l of sum_{gamma <= beta} binom * C_{beta-gamma} delta^-|beta-gamma|."""
    d = cut.K.d
    best = 0.0
    for beta in multiindices(d, l):
        total = 0.0
        for gamma in submultiindices(beta):
            diff = mi_sub(beta, gamma)
            if tuple(diff) not in cut.Cbeta_table:
                raise OrderError(f"C_beta table does not cover beta={diff}")
            total += multiindex_binom(beta, gamma) * cut.Cbeta_table[tuple(diff)] \
                * cut.delta ** (-mi_order(diff))
        best = max(best, total)
    return best


@dataclass
class CutoffReport:
    delta: float
    K: Region
    Cbeta_table: dict
    C_l_delta: float
    tail: SeminormValue
    measured: SeminormValue
    bound: float
    target: float

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "K_boxes": [[list(b.lo), list(b.hi)] for b in self.K.boxes],
            "C_beta": {",".join(map(str, k)): v for k, v in sorted(self.Cbeta_table.items())},
            "C_l_delta": self.C_l_delta,
            "tail": self.tail.value,
            "measured_error": self.measured.value,
            "bound": self.bound,
            "target": self.target,
        }


def multiply_cutoff(cut: CutoffFunction, f: SampledFunction) -> SampledFunction:
    """psi * f with product-rule derivatives and psi's support."""
    psi = cut.psi

    def evaluator(pts):
        return psi.eval(pts)[:, 0:1] * f.eval(pts)

    def derivative(beta, pts):
        return product_rule_apply(psi, f, beta, pts)

    return SampledFunction(
        domain=f.domain,
        order=min(f.order, psi.order),
        value_dim=f.value_dim,
        evaluator=evaluator,
        derivative=derivative,
        support=psi.support,
        name=f"cutoff*({f.name})",
    )


def apply_cutoff(f: SampledFunction, fam: WeightFamily, idx: WeightIndex,
                 alpha: SeminormIndex, eps: float, delta: float, search: Region,
                 quad: QuadratureSpec,
                 omega: Optional[Region] = None) -> tuple[SampledFunction, CutoffReport]:
    """Cut f off outside a tail compact with budget eps.

    The tail target eps / (1 + C_{l,delta}) needs C_{l,delta} first, so a
    provisional cut-off on the eps-compact fixes the constant (it depends on
    delta and the construction, not on the compact), then the definitive
    compact is searched at the sharpened target.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    domain = f.domain
    if omega is None:
        omega = domain
    K0 = find_tail_compact(f, fam, idx, alpha, eps, delta, search, omega=omega)
    if K0.is_empty:
        # tail already below target everywhere; cut around one central cell
        step = domain.spacing()
        b0 = domain.boxes[0]
        center = 0.5 * (np.asarray(b0.lo) + np.asarray(b0.hi))
        K0 = Region((Box(tuple(center - 0.5 * step), tuple(center + 0.5 * step)),),
                    domain.points_per_axis)
    provisional = build_cutoff(K0, delta, idx.l, quad, omega=omega)
    C = cutoff_constant(provisional, idx.l)
    target = eps / (1.0 + C)

    K = find_tail_compact(f, fam, idx, alpha, target, delta, search, omega=omega)
    if K.is_empty or K.volume() == 0.0:
        K = K0
    # pin the scan grid into the C_beta measurement so the lemma bound holds
    # at every point the seminorms will visit
    dom_pts = domain.grid_points()
    near = K.inflate(delta).contains(dom_pts)
    cut = build_cutoff(K, delta, idx.l, quad, omega=omega,
                       extra_measure_points=dom_pts[near])
    C_final = cutoff_constant(cut, idx.l)

    f_tilde = multiply_cutoff(cut, f)
    tail = tail_seminorm(f, K, fam, idx, alpha)
    measured = difference_seminorm(f, f_tilde, fam, idx, alpha)
    report = CutoffReport(
        delta=delta, K=K, Cbeta_table=cut.Cbeta_table, C_l_delta=C_final,
        tail=tail, measured=measured,
        bound=(1.0 + C_final) * tail.value, target=target,
    )
    return f_tilde, report
