"""Batch front-end: weight audits, certified runs, convergence curves.

Exit codes: 0 pass/certified, 1 uncertified, 2 usage or config error,
3 numeric failure (a quadrature that did not converge, a non-finite
integrand, or another FiniteRankError such as a missing derivative order),
4 criterion failure (tail compact or cover unreachable at this resolution).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (ConfigError, ConvergenceError, CoverDefectError,
                     CriterionError, FiniteRankError, GeometryError,
                     QuadratureError, ResolutionError)
from .mollify import RegularizationHistory, regularize
from .pipeline import approximate, ledger_float, verify_ledger
from .scenarios import load_scenario, _region_from_cfg
from .tensorapprox import finite_rank_c0_approx
from .weights import (WeightIndex, check_directed, check_locally_bounded,
                      check_locally_bounded_away_from_zero, check_vanishing_ratio)

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CRITERION = 4


def _refine_factor(text: str) -> int:
    factor = int(text)
    if factor < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {factor}")
    return factor


def _eps_list(text: str) -> list[float]:
    try:
        eps_list = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    bad = [eps for eps in eps_list if not (0 < eps < math.inf)]
    if bad:
        raise argparse.ArgumentTypeError(f"every tolerance must be finite and > 0, got {bad}")
    return eps_list


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="finiterank")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("check-weights", "approximate", "convergence"):
        c = sub.add_parser(name)
        c.add_argument("--scenario", required=True,
                       help="config path or registry name")
        c.add_argument("--eps", type=_eps_list, default="0.1",
                       help="comma-separated tolerance list (each finite, > 0)")
        c.add_argument("--j", type=int, default=1)
        c.add_argument("--l", type=int, default=0)
        c.add_argument("--alpha", default="sup")
        c.add_argument("--grid", type=int, default=0,
                       help="override points per axis")
        c.add_argument("--out", default="out")
        c.add_argument("--refine", type=_refine_factor, default=2,
                       help="verification grid refinement factor (>= 1)")
    return p


def _rounded(obj):
    """obj with every float rounded through ledger_float, containers rebuilt."""
    if isinstance(obj, float):
        return ledger_float(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_rounded(payload), sort_keys=True, indent=2) + "\n")


def cmd_check_weights(args) -> int:
    scn, _ = load_scenario(args.scenario, args.grid or None)
    fam = scn.family
    audit_cfg = scn.config.get("audit", {})
    compact = (_region_from_cfg(audit_cfg["compact"])
               if "compact" in audit_cfg else scn.domain)

    directed = check_directed(fam, scn.domain)
    bounded = check_locally_bounded(fam, compact)
    away = check_locally_bounded_away_from_zero(fam, compact)
    report = {
        "scenario": scn.name,
        "scanned_region": [[list(b.lo), list(b.hi)] for b in scn.domain.boxes],
        "directed": directed.to_json_dict(),
        "locally_bounded": bounded.to_json_dict(),
        "bounded_away_from_zero": away.to_json_dict(),
        "ratio": [],
    }
    ok = directed.passed and bounded.passed and away.passed
    ratio_cfg = audit_cfg.get("ratio")
    if ratio_cfg:
        search = _region_from_cfg(ratio_cfg["search"])
        for (jl, im) in ratio_cfg["pairs"]:
            K = check_vanishing_ratio(fam, WeightIndex(*jl), WeightIndex(*im),
                                      float(ratio_cfg["eps"]), search)
            entry = {"pair": [jl, im], "eps": ratio_cfg["eps"],
                     "K_boxes": None if K is None else
                     [[list(b.lo), list(b.hi)] for b in K.boxes]}
            report["ratio"].append(entry)
            ok = ok and K is not None
    out = Path(args.out)
    _write_json(out / "weights_report.json", report)
    for line in ("directed", "locally_bounded", "bounded_away_from_zero"):
        print(f"{line}: {'pass' if report[line]['passed'] else 'FAIL'}")
    for entry in report["ratio"]:
        print(f"ratio {entry['pair']}: {'pass' if entry['K_boxes'] is not None else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CRITERION


def cmd_approximate(args) -> int:
    scn, f = load_scenario(args.scenario, args.grid or None)
    if f is None:
        raise ConfigError("scenario declares no function")
    idx = WeightIndex(args.j, args.l)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_certified = True
    for eps in args.eps:
        result, ledger = approximate(f, scn, idx, args.alpha, eps)
        verification = verify_ledger(result, ledger, f, scn, idx, args.alpha,
                                     refine=args.refine)
        tag = f"{eps:g}".replace(".", "p")
        (out / f"ledger_{tag}.json").write_text(ledger.to_json())
        (out / f"ledger_{tag}.csv").write_text(ledger.to_csv())
        _write_json(out / f"verify_{tag}.json", verification.to_json_dict())
        _dump_factors(out / f"factors_{tag}.csv", result, scn)
        print(f"eps={eps:g} rank={ledger.rank} total={ledger.total_measured:.3e} "
              f"certified={ledger.certified}")
        all_certified = all_certified and ledger.certified
    return EXIT_OK if all_certified else EXIT_UNCERTIFIED


def _dump_factors(path: Path, result, scn) -> None:
    lines = ["factor,point,value"]
    pts = scn.domain.grid_points()
    stride = max(1, len(pts) // 512)
    sample = pts[::stride]
    factors = result.factors.eval_extended(sample)
    for i in range(result.rank):
        for p, v in zip(sample, factors[:, i]):
            coords = ";".join(repr(float(c)) for c in p)
            lines.append(f"{i},{coords},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


def cmd_convergence(args) -> int:
    scn, f = load_scenario(args.scenario, args.grid or None)
    if f is None:
        raise ConfigError("scenario declares no function")
    idx = WeightIndex(args.j, args.l)
    alpha = scn.seminorm(args.alpha)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # regularization curve needs a compactly supported start: cut f off first
    from .cutoff import apply_cutoff
    delta = scn.delta_rule(idx)
    f_c, _ = apply_cutoff(f, scn.family, idx, alpha, 1e-3, delta,
                          scn.domain, scn.quad)
    history = RegularizationHistory(f_c, scn.family, idx, alpha)
    rows = ["n,seminorm_error"]
    n = 2
    while n <= min(scn.n_max, 32):
        err = history.measure(n, regularize(f_c, n, scn.quad))
        rows.append(f"{n},{ledger_float(err)!r}")
        n *= 2
    (out / "convergence.csv").write_text("\n".join(rows) + "\n")

    rank_rows = ["eps,rank"]
    for eps in sorted(args.eps, reverse=True):
        _, report = finite_rank_c0_approx(
            f, scn.family, args.j, alpha, eps, scn.domain, scn.quad)
        rank_rows.append(f"{eps!r},{report.rank}")
    (out / "rank_vs_eps.csv").write_text("\n".join(rank_rows) + "\n")
    print("convergence data written")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "check-weights":
            return cmd_check_weights(args)
        if args.command == "approximate":
            return cmd_approximate(args)
        if args.command == "convergence":
            return cmd_convergence(args)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError,) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CriterionError, ConvergenceError, ResolutionError,
            CoverDefectError, GeometryError) as exc:
        print(f"criterion failure: {exc}", file=sys.stderr)
        return EXIT_CRITERION
    except FiniteRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
