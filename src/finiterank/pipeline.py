"""End-to-end certified approximation: cut off, regularize, localize.

The run follows the eps/3 budget split. Stage constants: C1 from the weight
bounded away from zero on the localization neighbourhood, C2 from the weight
sup on the final support, C3 from the mollifier derivative masses. The tensor
stage gets eps / (12 C1 C2 C3) because the localization proposition only
certifies 4x its input tolerance, so the delivered error is eps/(3 C1 C2 C3).

Certification is by measurement: a run is certified iff the directly measured
total error is below eps. A run whose measured total misses eps returns its
ledger, uncertified. A run whose tail compact or cover cannot be built at
this grid raises a tagged error (CriterionError, ResolutionError; CLI exit
4) before any ledger exists. Grid resolution, not the mathematics, is the
usual cause of both.

Serialized ledgers and verification reports write every float rounded to
LEDGER_SIG_DIGITS significant digits, so their bytes do not depend on the
last bits of platform arithmetic (library versions, CPU). The in-memory
values, and every decision computed from them, keep full precision.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cutoff import apply_cutoff
from .errors import ConfigError, FiniteRankError, GeometryError
from .funcmodel import FiniteRankFunction, SampledFunction, SeminormIndex, multiindices
from .geometry import Region
from .mollify import (QuadratureSpec, build_mollifier, convolve,
                      find_regularization_order, regularize)
# weighted_seminorm stays bound for perfbench/trace_layers.py, which rebinds it
from .seminorms import difference_seminorm, jet_seminorm, sample_jet, weighted_seminorm  # noqa: F401
from .tensorapprox import finite_rank_c0_approx
from .weights import (WeightFamily, WeightIndex,
                      check_locally_bounded_away_from_zero)


# Significant digits of every float in ledger and verification JSON/CSV.
# Platform differences in the transcendentals and reductions sit near 1e-14
# relative; grid error near 1e-3. Ten digits sit far from both.
LEDGER_SIG_DIGITS = 10


def ledger_float(x: float) -> float:
    """x rounded to LEDGER_SIG_DIGITS significant digits, still a float."""
    return float(f"{x:.{LEDGER_SIG_DIGITS}g}")


@dataclass
class Scenario:
    """A runnable configuration: weights, domain, seminorms, knobs."""

    name: str
    family: WeightFamily
    domain: Region
    seminorms: dict[str, SeminormIndex]
    delta_rule: Callable[[WeightIndex], float]
    n_max: int = 64
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    omega: Optional[Region] = None
    config: dict = field(default_factory=dict)

    def omega_region(self) -> Region:
        return self.omega if self.omega is not None else self.domain

    def seminorm(self, name: str) -> SeminormIndex:
        if name not in self.seminorms:
            raise ConfigError(f"scenario has no seminorm named {name!r}")
        return self.seminorms[name]


@dataclass
class ErrorLedger:
    eps: float
    index: tuple[int, int]
    alpha: str
    certified: bool = False
    # stage 1
    stage1_K: Optional[Region] = None
    stage1_delta: float = 0.0
    stage1_C_l_delta: float = 0.0
    stage1_measured: float = 0.0
    stage1_tail: float = 0.0
    # stage 2
    N0: int = 0
    N1: int = 0
    N2: int = 0
    stage2_measured: float = 0.0
    # stage 3
    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0
    aux_index: int = 0
    tensor_eps: float = 0.0
    tensor_measured: float = 0.0
    rank: int = 0
    stage3_measured: float = 0.0
    # totals
    total_measured: float = 0.0
    total_bound: float = 0.0
    mollifier_normC: float = 0.0
    mollifier_mass: float = 0.0
    value_space: str = "R^m sample coordinates"

    def stage_sum(self) -> float:
        return self.stage1_measured + self.stage2_measured + self.stage3_measured

    def to_json_dict(self) -> dict:
        boxes = []
        if self.stage1_K is not None:
            boxes = [[list(map(ledger_float, b.lo)), list(map(ledger_float, b.hi))]
                     for b in self.stage1_K.boxes]
        return {
            "alpha": self.alpha,
            "aux_index": self.aux_index,
            "C1": ledger_float(self.C1),
            "C2": ledger_float(self.C2),
            "C3": ledger_float(self.C3),
            "certified": self.certified,
            "eps": ledger_float(self.eps),
            "index": list(self.index),
            "mollifier_mass": ledger_float(self.mollifier_mass),
            "mollifier_normC": ledger_float(self.mollifier_normC),
            "N0": self.N0,
            "N1": self.N1,
            "N2": self.N2,
            "rank": self.rank,
            "stage1_C_l_delta": ledger_float(self.stage1_C_l_delta),
            "stage1_delta": ledger_float(self.stage1_delta),
            "stage1_K_boxes": boxes,
            "stage1_measured": ledger_float(self.stage1_measured),
            "stage1_tail": ledger_float(self.stage1_tail),
            "stage2_measured": ledger_float(self.stage2_measured),
            "stage3_measured": ledger_float(self.stage3_measured),
            "tensor_eps": ledger_float(self.tensor_eps),
            "tensor_measured": ledger_float(self.tensor_measured),
            "total_bound": ledger_float(self.total_bound),
            "total_measured": ledger_float(self.total_measured),
            "value_space": self.value_space,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv_rows(self) -> list[list]:
        r = ledger_float
        third = r(self.eps / 3.0)
        return [
            ["stage", "budget", "measured", "constants"],
            ["cutoff", third, r(self.stage1_measured),
             f"C_l_delta={r(self.stage1_C_l_delta)};delta={r(self.stage1_delta)}"],
            ["regularize", third, r(self.stage2_measured),
             f"N0={self.N0};N1={self.N1};N2={self.N2}"],
            ["tensor", third, r(self.stage3_measured),
             f"C1={r(self.C1)};C2={r(self.C2)};C3={r(self.C3)};rank={self.rank}"],
            ["total", r(self.eps), r(self.total_measured), f"certified={self.certified}"],
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(self.to_csv_rows())
        return buf.getvalue()


def _domain_fit_scale(V: Region, domain: Region, n_max: int) -> int:
    """Smallest n with V inflated by 1/n inside the gridded domain."""
    n = 1
    while n <= n_max:
        if domain.covers(V.inflate(1.0 / n)):
            return n
        n += 1
    raise GeometryError("no mollifier scale keeps the neighbourhood inside the domain")


def approximate(f: SampledFunction, scn: Scenario, idx: WeightIndex,
                alpha_name: str, eps: float) -> tuple[FiniteRankFunction, ErrorLedger]:
    """Run the three-stage pipeline; returns the finite-rank result and ledger."""
    if not (0 < eps < np.inf):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if idx.l > f.order:
        raise FiniteRankError("weight order exceeds the function's order")
    alpha = scn.seminorm(alpha_name)
    fam = scn.family
    quad = scn.quad
    ledger = ErrorLedger(eps=eps, index=(idx.j, idx.l), alpha=alpha_name)

    # stage 1: cut off outside a tail compact with budget eps/3
    delta = scn.delta_rule(idx)
    f_tilde, cut_report = apply_cutoff(
        f, fam, idx, alpha, eps / 3.0, delta, scn.domain, quad,
        omega=scn.omega_region())
    ledger.stage1_K = cut_report.K
    ledger.stage1_delta = delta
    ledger.stage1_C_l_delta = cut_report.C_l_delta
    ledger.stage1_tail = cut_report.tail.value
    ledger.stage1_measured = cut_report.measured.value

    # stage 2: regularization scale with budget eps/3
    N0, history = find_regularization_order(
        f_tilde, fam, idx, alpha, eps / 3.0, scn.n_max, quad)
    K1 = f_tilde.support_region()
    V = K1.inflate(scn.domain.spacing())
    N1 = _domain_fit_scale(V, scn.omega_region(), scn.n_max)
    # |f_tilde - f_tilde * rho_n| is already measured for every n the search
    # tried; scan only the scales it did not reach
    def stage2_error(n: int) -> float:
        if n not in history.scales:
            history.measure(n, regularize(f_tilde, n, quad))
        return history.scales[n].error

    N2 = max(N0, N1)
    while stage2_error(N2) >= eps / 3.0 and N2 * 2 <= scn.n_max:
        N2 *= 2
    ledger.N0, ledger.N1, ledger.N2 = N0, N1, N2
    ledger.stage2_measured = stage2_error(N2)
    K2 = V.inflate(1.0 / N2)

    # stage 3 constants
    away = check_locally_bounded_away_from_zero(fam, V)
    i_aux, inf_val = away.chosen(0)
    C1 = 1.0 / inf_val
    C2 = float(np.max(fam.eval_batch(idx, K2.grid_points())))
    moll = build_mollifier(f.d, N2, quad)
    C3 = max(moll.abs_deriv_integral(tuple(b)) for b in multiindices(f.d, idx.l))
    ledger.C1, ledger.C2, ledger.C3 = C1, C2, C3
    ledger.aux_index = i_aux
    ledger.mollifier_normC = moll.normC
    ledger.mollifier_mass = moll.mass_check

    # stage 3: localization of f_tilde at the proof tolerance, then smoothing
    tensor_eps = eps / (12.0 * C1 * C2 * C3)
    ledger.tensor_eps = eps / (3.0 * C1 * C2 * C3)
    g, loc_report = finite_rank_c0_approx(
        f_tilde, fam, i_aux, alpha, tensor_eps, scn.domain, quad,
        support_constraint=V)
    ledger.tensor_measured = loc_report.measured.value
    ledger.rank = g.rank

    rho = moll.as_sampled()
    result = FiniteRankFunction(convolve(g.factors, rho, quad, side="g"), g.values,
                                convolve(g.sampled, rho, quad, side="g"))
    # by linearity (f_tilde - g) * rho = f_tilde * rho - g * rho: stage 2
    # sampled the first term on f's domain grid (scn.domain in every scenario),
    # and the total needs the second anyway
    pts = history.pts
    smoothed = history.scales[N2]
    result_jet = sample_jet(result.sampled, idx, pts)
    stage3 = jet_seminorm(smoothed.jet - result_jet, pts,
                          [smoothed.support, result.sampled.support], fam, idx, alpha,
                          f"({f_tilde.name})*({rho.name})-({result.sampled.name})")
    ledger.stage3_measured = stage3.value
    total = jet_seminorm(sample_jet(f, idx, pts) - result_jet, pts,
                         [f.support, result.sampled.support], fam, idx, alpha,
                         f"({f.name})-({result.sampled.name})")
    ledger.total_measured = total.value
    ledger.total_bound = ledger.stage_sum()
    ledger.certified = bool(total.value < eps)
    return result, ledger


@dataclass
class VerificationReport:
    refined_total: float
    ledger_total: float
    stage3_measured: float
    stage3_cap: float
    domination_ok: bool
    budget_ok: bool
    certified: bool

    def to_json_dict(self) -> dict:
        return {
            "refined_total": ledger_float(self.refined_total),
            "ledger_total": ledger_float(self.ledger_total),
            "stage3_measured": ledger_float(self.stage3_measured),
            "stage3_cap": ledger_float(self.stage3_cap),
            "domination_ok": self.domination_ok,
            "budget_ok": self.budget_ok,
            "certified": self.certified,
        }


def verify_ledger(result: FiniteRankFunction, ledger: ErrorLedger,
                  f: SampledFunction, scn: Scenario, idx: WeightIndex,
                  alpha_name: str, refine: int = 2) -> VerificationReport:
    """Independent re-measurement on a refined grid plus the stage-3 chain.

    Needs only the result and the ledger's own fields: the stage-3 cap
    C1 C2 C3 |f_tilde - g|_{aux,0} reads the tensor stage's measurement
    from the ledger. refine must be at least 1: 0 or less would collapse
    the fine grid to one point per axis.
    """
    if refine < 1:
        raise ValueError(f"refine must be at least 1, got {refine}")
    alpha = scn.seminorm(alpha_name)
    fam = scn.family
    fine = scn.domain.refine(refine)
    refined_total = difference_seminorm(f, result.sampled, fam, idx, alpha, grid=fine)
    cap = ledger.C1 * ledger.C2 * ledger.C3 * ledger.tensor_measured \
        + 10.0 * scn.quad.tol
    domination_ok = ledger.stage3_measured <= cap
    budget_ok = ledger.total_measured <= ledger.stage_sum() + 1e-10
    return VerificationReport(
        refined_total=refined_total.value,
        ledger_total=ledger.total_measured,
        stage3_measured=ledger.stage3_measured,
        stage3_cap=cap,
        domination_ok=domination_ok,
        budget_ok=budget_ok,
        certified=ledger.certified,
    )
