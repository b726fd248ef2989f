"""The benchmark's workloads and the correctness gate on their ledgers.

An operation is `approximate(f, scn, WeightIndex(j, l), "sup", eps)`
followed by `verify_ledger(..., refine=2)`, as `finiterank approximate`
runs it per eps without writing files. A pass is one fresh process that
loads the scenario once and runs the workload's operations in order.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    scenario: str
    jl: tuple[int, int]
    eps: tuple[float, ...]


# Both use configs that ship in the package and contain no randomness.
# `exp_strips_2d` is not here: one operation takes ~145 s on a 2-core box,
# longer than a whole run may take.
WORKLOADS = {
    # the CLI's eps-list usage: later operations reuse process caches
    # (mollifier normalization, symbolic profiles, region grids) while the
    # rank grows 21 -> 45 -> 125
    "schwartz1d_sweep": Workload("schwartz_1d", (1, 1), (0.2, 0.1, 0.05)),
    # 177 partition centres and sympy-compiled gauge weights: Region.contains
    # over the 177-box support and the partition basis dominate
    "omfinite1d": Workload("om_finite_1d", (1, 1), (0.1,)),
}


def eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


def reference_ledgers(name: str, workload: Workload) -> list[str] | None:
    """Ledger JSON recorded for each operation, or None if not recorded."""
    texts = []
    for eps in workload.eps:
        path = REFERENCE_DIR / name / f"ledger_{eps_tag(eps)}.json"
        if not path.exists():
            return None
        texts.append(path.read_text())
    return texts


# |a - b| / max(|a|, |b|) never exceeds 2; a field that changes type or
# shape reports that maximum
MISMATCH = 2.0


def max_rel_drift(a, b) -> float:
    """Largest relative difference between matching numbers of two JSON trees."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return MISMATCH
        return max((max_rel_drift(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return MISMATCH
        return max((max_rel_drift(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return 0.0 if a == b else MISMATCH
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return 0.0
        return abs(a - b) / max(abs(a), abs(b))
    return 0.0 if a == b else MISMATCH


def op_failure(op: dict, eps: float, reference: str | None) -> str | None:
    """Why one operation's result is wrong, or None when it passes."""
    if op.get("error"):
        return f"raised {op['error']}"
    ledger = json.loads(op["ledger"])
    verify = json.loads(op["verify"])
    if not ledger["certified"] or ledger["total_measured"] >= eps:
        return "not certified"
    if not (verify["domination_ok"] and verify["budget_ok"]):
        return "verification failed"
    if reference is not None:
        ref = json.loads(reference)
        for key in ("rank", "N2", "certified"):
            if ledger[key] != ref[key]:
                return f"{key} {ledger[key]} != reference {ref[key]}"
    return None


def check_passes(workload: Workload, passes: list[dict | None],
                 references: list[str] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every operation of every pass.

    A pass is None when its process died; its operations all count as
    attempted and failed. An operation also fails when its ledger bytes
    differ from the most common ledger of the same operation in this
    invocation.
    """
    n_ops = len(workload.eps)
    attempted = failed = 0
    reasons: list[str] = []
    ledgers_by_op = [Counter(p["ops"][k]["ledger"] for p in passes
                             if p is not None and not p["ops"][k].get("error"))
                     for k in range(n_ops)]
    for pi, p in enumerate(passes):
        for k, eps in enumerate(workload.eps):
            attempted += 1
            if p is None:
                why = "process died"
            else:
                op = p["ops"][k]
                why = op_failure(op, eps, references[k] if references else None)
                if why is None and op["ledger"] != ledgers_by_op[k].most_common(1)[0][0]:
                    why = "ledger bytes differ between passes"
            if why is not None:
                failed += 1
                reasons.append(f"pass {pi} eps {eps:g}: {why}")
    return attempted, failed, reasons
