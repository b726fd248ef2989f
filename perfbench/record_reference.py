"""Record every workload operation's ledger as the benchmark's reference.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root at the commit whose ledgers become the
reference. Writes `perfbench/reference/<workload>/ledger_<eps>.json` (the
bytes `ErrorLedger.to_json` gives) and `verify_<eps>.json`. The benchmark
pins `rank`, `N2` and `certified` to these files and reports whether each
ledger still matches them byte for byte.
"""

from __future__ import annotations

import sys

from run import run_worker, worker_args, worker_env
from workloads import REFERENCE_DIR, WORKLOADS, eps_tag


def main(argv: list[str]) -> int:
    env = worker_env()
    for name in argv or sorted(WORKLOADS):
        out, _, err = run_worker(worker_args(WORKLOADS[name]), env, 600.0)
        if out is None or any("error" in op for op in out["ops"]):
            print(f"{name}: failed\n{err}", file=sys.stderr)
            return 1
        target = REFERENCE_DIR / name
        target.mkdir(parents=True, exist_ok=True)
        for op in out["ops"]:
            tag = eps_tag(op["eps"])
            (target / f"ledger_{tag}.json").write_text(op["ledger"])
            (target / f"verify_{tag}.json").write_text(op["verify"] + "\n")
            print(f"{name} eps={op['eps']:g}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
