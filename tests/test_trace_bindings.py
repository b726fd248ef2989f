"""The benchmark tracer (perfbench/trace_layers.py) rebinds package names.

It wraps functions and methods by name in the modules that hold them, so a
renamed or deleted entry point breaks the benchmark. This test runs the
tracer read-only around one real operation, so such a change fails here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from finiterank import approximate, load_scenario, verify_ledger
from finiterank.weights import WeightIndex

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def _trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _operation(f, scn, eps):
    idx = WeightIndex(1, 1)
    result, ledger = approximate(f, scn, idx, "sup", eps)
    report = verify_ledger(result, ledger, f, scn, idx, "sup", refine=2)
    return ledger.to_json(), json.dumps(report.to_json_dict(), sort_keys=True)


# an operation of each benchmark workload
@pytest.mark.parametrize("name, eps", [("schwartz_1d", 0.2), ("om_finite_1d", 0.1)])
def test_traced_operation_matches_untraced(name, eps):
    tl = _trace_layers()
    scn, f = load_scenario(name)
    untraced = _operation(f, scn, eps)

    tracer = tl.Tracer()
    patches = tl.instrument(tracer)
    try:
        tl.instrument_function(tracer, f, patches)
        traced = _operation(f, scn, eps)
    finally:
        tl.restore(patches)

    assert traced == untraced
    assert tracer.counts["seminorms.scans"] > 0
    assert tracer.counts["mollify.conv_points"] > 0
