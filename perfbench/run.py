"""finiterank benchmark: wall time from a scenario config to a verified,
certified ledger.

    python3 perfbench/run.py --workload schwartz1d_sweep --seed 1 \
        --seconds 50 --trace 0

Run from the repository root. One closed-loop client issues one operation
at a time. Each pass is a fresh process, as one `finiterank approximate`
invocation is: it imports the package from `src/`, loads the scenario once
and runs the workload's operations in order (see `workloads.py`). Passes
repeat until `--seconds` is spent (at least two, so every ledger is
compared across processes). Each process may use two threads, numpy's
BLAS pool included.

`--trace 0` prints the end-to-end metrics, medians over the passes:
`certify_s` (all operations of a pass), its parts `approximate_s` and
`verify_s`, `setup_s` (interpreter start through `load_scenario`, with
extra set-up-only processes so that at least seven samples are taken) and
`peak_rss_mb`. `--trace 1` alternates untraced and traced passes and
prints the per-layer metrics of `trace_layers.py`, plus
`trace.overhead_s` (traced minus untraced `certify_s`), `process.cpu_s`,
`calibration.probe_s` and `pipeline.ledger_max_rel_drift` (against the
recorded reference).

The times are wall times at reference speed. On a shared host the same
pass runs up to 1.5x slower for minutes at a time, so this process times
a fixed calibration probe (`calibrate`) before the first pass and after
every pass, and divides each pass's wall times by its host speed: the
mean of the two probes around it over PROBE_REF_S. The raw wall-time
medians are in the report under `wall`.

The inputs are fixed configs; `--seed` is recorded and changes nothing.
The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it is the full report, which is
also written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (WORKLOADS, check_passes, eps_tag, max_rel_drift,
                       reference_ledgers)

HERE = Path(__file__).resolve().parent
THREADS = "2"
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 7
PROBE_REF_S = 0.45           # probe time that defines reference speed
RUN_LIMIT_S = 170.0          # every process started must have ended by then

END_TO_END = {
    "certify_s": "s",
    "approximate_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "geometry.contains_calls": "count",
    "geometry.box_tests": "count",
    "geometry.max_boxes": "count",
    "geometry.contains_s": "s",
    "funcmodel.f_points": "count",
    "funcmodel.eval_s": "s",
    "cutoff.psi_points": "count",
    "cutoff.psi_s": "s",
    "cutoff.build_s": "s",
    "cutoff.stage1_s": "s",
    "mollify.conv_nodes": "count",
    "mollify.conv_points": "count",
    "mollify.conv_s": "s",
    "mollify.bump_points": "count",
    "mollify.bump_s": "s",
    "mollify.reg_attempts": "count",
    "mollify.stage2_s": "s",
    "seminorms.scans": "count",
    "seminorms.scan_points": "count",
    "seminorms.scan_s": "s",
    "seminorms.scan_self_s": "s",
    "tensorapprox.centers": "count",
    "tensorapprox.bump_entries": "count",
    "tensorapprox.basis_calls": "count",
    "tensorapprox.basis_hits": "count",
    "tensorapprox.basis_s": "s",
    "tensorapprox.cover_s": "s",
    "tensorapprox.localize_s": "s",
    "weights.eval_points": "count",
    "weights.eval_s": "s",
    "expressions.compiles": "count",
    "expressions.symbolic_s": "s",
    "pipeline.measure_s": "s",
    "pipeline.ledger_max_rel_drift": "ratio",
    "process.cpu_s": "s",
    "calibration.probe_s": "s",
    "trace.certify_s": "s",
    "trace.layers_self_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}

# ledgers the test suite pins, compared field by field and reported
FIXTURES = {("schwartz1d_sweep", 0.2): "tests/fixtures/ledger_schwartz_j1_l1_eps0p2.json"}


def worker_args(workload) -> list[str]:
    return ["--scenario", workload.scenario, "--jl", "%d,%d" % workload.jl,
            "--eps", ",".join(repr(e) for e in workload.eps)]


def worker_env() -> dict:
    return dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
                MKL_NUM_THREADS=THREADS)


def run_worker(args: list[str], env: dict, timeout: float) -> tuple[dict | None, float, str]:
    """(output or None if the process failed, launch time, stderr tail)."""
    launch = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, launch, "timed out"
    if proc.returncode != 0:
        return None, launch, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), launch, proc.stderr[-2000:]


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of work like the
    package's own: masked numpy exp over arrays of a few MB (the size of a
    scan's point batches), then a Python loop.

    Runs in this process, not in the workers, so that the program's own
    process state (its allocator's thresholds, say) is left as a user's
    `finiterank` run would have it.
    """
    t0 = time.perf_counter()
    x = np.linspace(-1.2, 1.2, 400_000)
    for _ in range(120):
        t = x * x
        mask = t < 1.0 - 1e-8
        out = np.zeros_like(x)
        out[mask] = np.exp(-1.0 / (1.0 - t[mask]))
    acc = 0
    for i in range(2_000_000):
        acc += (i * 3) % 7
    return time.perf_counter() - t0


def pass_summary(p: dict, launch: float, traced: bool, speed: float) -> dict:
    """Times of one pass, wall and divided by the host speed around it."""
    out = {"traced": traced, "peak_rss_mb": p["peak_rss_mb"], "cpu_s": p["cpu_s"],
           "speed": speed, "wall": {}}
    for key in ("approximate_s", "verify_s"):
        out["wall"][key] = sum(op[key] for op in p["ops"])
    out["wall"]["certify_s"] = out["wall"]["approximate_s"] + out["wall"]["verify_s"]
    out["wall"]["setup_s"] = p["setup_end"] - launch
    for key, wall in out["wall"].items():
        out[key] = wall / speed
    out["ledger_sha256"] = [hashlib.sha256(op.get("ledger", "").encode()).hexdigest()
                            for op in p["ops"]]
    return out


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(untraced: list[dict], setup_samples: list[float]) -> dict:
    out = {key: _median([s[key] for s in untraced])
           for key in ("certify_s", "approximate_s", "verify_s", "peak_rss_mb")}
    out["setup_s"] = _median(setup_samples)
    return {k: out[k] for k in END_TO_END}


def per_layer_metrics(untraced: list[dict], traced: list[dict],
                      layers: list[dict], probes: list[float], drift: float) -> dict:
    out = {key: _median([lay[key] for lay in layers]) for key in layers[0]}
    out["process.cpu_s"] = _median([s["cpu_s"] for s in untraced])
    out["calibration.probe_s"] = _median(probes)
    out["trace.overhead_s"] = (_median([s["certify_s"] for s in traced])
                               - _median([s["certify_s"] for s in untraced]))
    out["pipeline.ledger_max_rel_drift"] = drift
    return {k: out[k] for k in PER_LAYER}


def environment(root: Path, worker_env: dict) -> dict:
    env = {"nproc": os.cpu_count(), "threads_allowed": int(THREADS), **worker_env}
    try:
        env["usable_cpus"] = len(os.sched_getaffinity(0))
    except AttributeError:
        env["usable_cpus"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    env["git_commit"] = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "finiterank").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "finiterank" / "__init__.py").is_file():
        print("perfbench: run from a finiterank checkout (src/finiterank not found)",
              file=sys.stderr)
        return 2
    name, workload = args.workload, WORKLOADS[args.workload]
    references = reference_ledgers(name, workload)
    if references is None:
        print(f"perfbench: no reference ledgers for {name} in {HERE / 'reference'}",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = worker_env()

    started = time.monotonic()
    deadline = started + args.seconds
    passes, summaries, setup_samples, layers, errors = [], [], [], [], []
    probes = [calibrate()]

    def speed() -> float:
        probes.append(calibrate())
        return (probes[-2] + probes[-1]) / (2.0 * PROBE_REF_S)

    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        extra = ["--trace-out", str(out_dir / f"spans_{name}.npz")] if traced else []
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        t0 = time.monotonic()
        out, launch, err = run_worker(worker_args(workload) + extra, env, remaining)
        last = time.monotonic() - t0
        passes.append(out)
        if out is None:
            errors.append(err)
        else:
            summaries.append(pass_summary(out, launch, traced, speed()))
            if traced:
                layers.append(out["layers"])
            else:
                setup_samples.append(summaries[-1]["setup_s"])
        now = time.monotonic()
        if out is None and not summaries:
            break
        if len(passes) >= MIN_PASSES and (now + 0.5 * last >= deadline
                                          or now - started + last > 0.8 * RUN_LIMIT_S):
            break
    while not args.trace and summaries and len(setup_samples) < MIN_SETUP_SAMPLES:
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        out, launch, err = run_worker(worker_args(workload) + ["--setup-only"], env,
                                      remaining)
        if out is None:
            errors.append(err)
            break
        setup_samples.append((out["setup_end"] - launch) / speed())

    untraced = [s for s in summaries if not s["traced"]]
    traced_runs = [s for s in summaries if s["traced"]]
    if not untraced or (args.trace and not layers):
        print("perfbench: no pass completed\n" + "\n".join(errors), file=sys.stderr)
        return 1

    attempted, failed, reasons = check_passes(workload, passes, references)
    first = next(p for p in passes if p is not None)
    matches, drift = {}, 0.0
    for op, ref in zip(first["ops"], references):
        tag = eps_tag(op["eps"])
        matches[tag] = op.get("ledger") == ref
        if "ledger" in op:
            drift = max(drift, max_rel_drift(json.loads(op["ledger"]), json.loads(ref)))
    fixture_diff = {}
    for op in first["ops"]:
        fixture = FIXTURES.get((name, op["eps"]))
        if fixture and (root / fixture).is_file() and "ledger" in op:
            fixture_diff[fixture] = max_rel_drift(json.loads(op["ledger"]),
                                                  json.loads((root / fixture).read_text()))
    counts = [{k: v for k, v in lay.items() if PER_LAYER.get(k) == "count"}
              for lay in layers]
    counts_repeat = all(c == counts[0] for c in counts[1:])
    if not counts_repeat:
        reasons.append("per-layer counts differ between traced passes")

    if args.trace:
        metrics = per_layer_metrics(untraced, traced_runs, layers, probes, drift)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced, setup_samples)
        units = END_TO_END
    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(root, first["env"]),
        "ledger_matches_reference": matches,
        "ledger_max_rel_drift": drift,
        "fixture_max_rel_diff": fixture_diff,
        "samples": {"passes": len(untraced), "traced_passes": len(traced_runs),
                    "setup": len(setup_samples)},
        "wall": {key: _median([s["wall"][key] for s in untraced])
                 for key in ("certify_s", "approximate_s", "verify_s", "setup_s")},
        "passes": summaries,
        "failures": reasons,
        "errors": errors,
        "metrics": metrics,
    }
    (out_dir / f"report_{name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
