"""One pass: a fresh process that loads a scenario and runs its operations.

    python3 perfbench/worker.py --scenario schwartz_1d --jl 1,1 \
        --eps 0.2,0.1,0.05 [--trace-out spans.npz] [--setup-only]

Run from the repository root; the package is imported from `src/`. Prints
one JSON object: the monotonic clock reading when set-up ended, each
operation's times, ledger and verification JSON (or the error it raised),
CPU time and peak RSS, and with `--trace-out` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, when it can be asked."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--scenario", required=True)
    p.add_argument("--jl", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--trace-out", default="")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    j, l = (int(t) for t in args.jl.split(","))
    eps_list = [float(t) for t in args.eps.split(",")]

    sys.path.insert(0, str(Path.cwd() / "src"))
    tracer = patches = None
    if args.trace_out:
        from trace_layers import Tracer, instrument, instrument_function, layer_metrics
    from finiterank import approximate, load_scenario, verify_ledger
    from finiterank.weights import WeightIndex
    if args.trace_out:
        tracer = Tracer()
        patches = instrument(tracer)
        with tracer.span("scenarios.load"):
            scn, f = load_scenario(args.scenario)
        instrument_function(tracer, f, patches)
    else:
        scn, f = load_scenario(args.scenario)
    setup_end = time.monotonic()
    out = {"setup_end": setup_end}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    idx = WeightIndex(j, l)
    cpu = 0.0
    ops = []
    for eps in eps_list:
        cpu0 = _cpu_seconds()
        op = {"eps": eps, "approximate_s": 0.0, "verify_s": 0.0}
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("pipeline.approximate"):
                    result, ledger = approximate(f, scn, idx, "sup", eps)
            else:
                result, ledger = approximate(f, scn, idx, "sup", eps)
            t1 = time.perf_counter()
            op["approximate_s"] = t1 - t0
            if tracer is not None:
                with tracer.span("pipeline.verify"):
                    report = verify_ledger(result, ledger, f, scn, idx, "sup", refine=2)
            else:
                report = verify_ledger(result, ledger, f, scn, idx, "sup", refine=2)
            op["verify_s"] = time.perf_counter() - t1
            op["ledger"] = ledger.to_json()
            op["verify"] = json.dumps(report.to_json_dict(), sort_keys=True)
        except Exception as exc:  # an operation that raises counts as failed
            op["error"] = f"{type(exc).__name__}: {exc}"
            op["approximate_s"] = op["approximate_s"] or time.perf_counter() - t0
        cpu += _cpu_seconds() - cpu0
        ops.append(op)
    out["ops"] = ops
    out["cpu_s"] = cpu
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import sympy
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        from trace_layers import restore
        restore(patches)
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.start)
        tracer.save(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
