"""Median and quartiles of every metric over the reports in perfbench/out.

    python3 perfbench/summarize.py [OUT_DIR] > summary.json

Each `run.py` invocation writes one report; this groups them by workload
and by traced/untraced and prints, per metric, the run count, median,
quartiles (`statistics.quantiles(values, n=4)`) and the spread between
the quartiles as a share of the median. It also carries the environment
record and whether every ledger matched its reference.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(out_dir: Path) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(out_dir.glob("report_*.json")):
        report = json.loads(path.read_text())
        groups.setdefault((report["workload"], report["trace"]), []).append(report)
    summary: dict = {}
    for (workload, trace), reports in sorted(groups.items()):
        entry = summary.setdefault(workload, {})
        metrics = {}
        for key in reports[0]["metrics"]:
            values = [r["metrics"][key] for r in reports]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            metrics[key] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else None}
        entry["per_layer" if trace else "end_to_end"] = {
            "runs": len(reports),
            "failures": sum(len(r["failures"]) for r in reports),
            "ledgers_match_reference": all(all(r["ledger_matches_reference"].values())
                                           for r in reports),
            "metrics": metrics,
        }
        entry["env"] = reports[0]["env"]
        if reports[0]["fixture_max_rel_diff"]:
            entry["fixture_max_rel_diff"] = reports[0]["fixture_max_rel_diff"]
    return summary


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent / "out"
    print(json.dumps(summarize(out), indent=2, sort_keys=True))
