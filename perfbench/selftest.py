"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/selftest.py

The failure-accounting test runs one real operation that cannot be
certified (`schwartz_1d` at eps 2e-4); the metric-name test runs the
benchmark on `omfinite1d`, traced and untraced (about 40 s in all).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from trace_layers import (Tracer, instrument, layer_metrics, outermost,  # noqa: E402
                          restore, self_times)
from workloads import WORKLOADS, Workload, check_passes  # noqa: E402


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    tracer = Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("A"):
        with tracer.span("B"):
            with tracer.span("C"):
                pass
        with tracer.span("D"):
            pass
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0, 1, 0]
    own = self_times(arr["parent"], arr["start"], arr["end"])
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    # the self times of a tree add up to the root's duration
    assert own.sum() == 10.0


def test_inclusive_time_counts_only_outermost_span_of_a_group():
    # X [0, 8] holds X [1, 3]; Y [4, 6] sits under the outer X
    tracer = Tracer(clock=_fake_clock([0, 1, 3, 4, 6, 8]))
    with tracer.span("X"):
        with tracer.span("X"):
            pass
        with tracer.span("Y"):
            pass
    arr = tracer.arrays()
    mask = outermost(arr["name_id"], arr["parent"], [tracer.name_index("X")])
    assert mask.tolist() == [True, False, False]


def test_layer_metrics_split_operation_time():
    times = [0, 1, 2, 4, 5, 10]
    tracer = Tracer(clock=_fake_clock(times))
    with tracer.span("pipeline.approximate"):          # [0, 10]
        with tracer.span("seminorms.scan"):            # [1, 5]
            with tracer.span("geometry.contains"):     # [2, 4]
                pass
    m = layer_metrics(tracer)
    assert m["trace.certify_s"] == 10.0
    assert m["trace.layers_self_s"] == 4.0
    assert m["trace.uncovered_s"] == 6.0
    assert m["seminorms.scan_s"] == 4.0
    assert m["seminorms.scan_self_s"] == 2.0
    assert m["geometry.contains_s"] == 2.0


def test_instrumentation_restores_the_package():
    from finiterank import geometry, pipeline, seminorms
    originals = (geometry.Region.contains, pipeline.weighted_seminorm,
                 seminorms.f_multi_ext)
    patches = instrument(Tracer())
    assert geometry.Region.contains is not originals[0]
    restore(patches)
    assert (geometry.Region.contains, pipeline.weighted_seminorm,
            seminorms.f_multi_ext) == originals


def _op(ledger: dict, eps: float) -> dict:
    verify = {"domination_ok": True, "budget_ok": True}
    return {"eps": eps, "ledger": json.dumps(ledger), "verify": json.dumps(verify)}


def test_ledger_mismatch_and_dead_process_count_as_failed():
    wl = Workload("schwartz_1d", (1, 1), (0.1,))
    good = {"certified": True, "total_measured": 0.01, "rank": 45, "N2": 2}
    moved = dict(good, total_measured=0.0100001)
    passes = [{"ops": [_op(good, 0.1)]}, {"ops": [_op(good, 0.1)]},
              {"ops": [_op(moved, 0.1)]}, None]
    attempted, failed, reasons = check_passes(wl, passes, [json.dumps(good)])
    assert (attempted, failed) == (4, 2)
    assert "differ" in reasons[0] and "died" in reasons[1]
    attempted, failed, reasons = check_passes(
        wl, [{"ops": [_op(dict(good, certified=False), 0.1)]}], None)
    assert (attempted, failed) == (1, 1) and "not certified" in reasons[0]
    pinned = dict(good, rank=44)
    attempted, failed, reasons = check_passes(wl, passes[:1], [json.dumps(pinned)])
    assert (attempted, failed) == (1, 1) and "rank" in reasons[0]


def test_uncertified_operation_counts_as_failed():
    wl = Workload("schwartz_1d", (1, 1), (2e-4,))
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        out, _, err = run.run_worker(run.worker_args(wl), run.worker_env(), 170.0)
    finally:
        os.chdir(cwd)
    assert out is not None, err
    assert len(out["ops"]) == 1
    attempted, failed, reasons = check_passes(wl, [out], None)
    assert (attempted, failed) == (1, 1), reasons


def _run_benchmark(workload: str, seed: int, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    try:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
    finally:
        (HERE / "out" / f"report_{workload}_seed{seed}_trace{trace}.json").unlink(
            missing_ok=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _run_benchmark("omfinite1d", 3, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[kind]}
