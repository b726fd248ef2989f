"""Batch front-end: weight audits and certified runs.

Exit codes: 0 pass/certified, 1 uncertified (a check of the verdict failed),
2 usage or config error, 3 numeric failure (a quadrature that did not
converge, a non-finite integrand, or another FiniteRankError such as a
missing derivative order), 4 criterion failure (tail compact or cover
unreachable at this resolution).
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
from .pipeline import approximate, ledger_float, rounded, verify_ledger
from .scenarios import load_scenario
from .weights import (WeightIndex, check_directed, check_locally_bounded,
                      check_locally_bounded_away_from_zero, check_vanishing_ratio)

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CRITERION = 4


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _eps_list(text: str) -> list[float]:
    try:
        eps_list = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    bad = [eps for eps in eps_list if not (0 < eps < math.inf)]
    if bad:
        raise argparse.ArgumentTypeError(f"every tolerance must be finite and > 0, got {bad}")
    if len({f"{eps:g}" for eps in eps_list}) < len(eps_list):
        raise argparse.ArgumentTypeError(f"two tolerances share an output tag (eps:g): {text}")
    return eps_list


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="finiterank")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("check-weights", "approximate"):
        c = sub.add_parser(name)
        c.add_argument("--scenario", required=True,
                       help="config path or registry name")
        c.add_argument("--grid", type=_int_at_least(2), default=None,
                       help="override points per axis (>= 2)")
        c.add_argument("--out", default="out")
        if name == "check-weights":
            continue
        c.add_argument("--eps", type=_eps_list, default="0.1",
                       help="comma-separated tolerance list (each finite, > 0)")
        c.add_argument("--j", type=int, default=1)
        c.add_argument("--l", type=int, default=0)
        c.add_argument("--alpha", default="sup")
        c.add_argument("--refine", type=_int_at_least(1), default=2,
                       help="verification grid refinement factor (>= 1)")
    return p


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rounded(payload), sort_keys=True, indent=2) + "\n")


def _out_dir(text: str) -> Path:
    """--out as a directory, refused before anything runs when it, or the
    nearest of its ancestors that exists, is not a directory."""
    out = Path(text)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {text!r}: {str(existing)!r} is not a directory")
    return out


def cmd_check_weights(args) -> int:
    out = _out_dir(args.out)
    scn, _ = load_scenario(args.scenario, args.grid)
    fam = scn.family

    directed = check_directed(fam, scn.domain)
    bounded = check_locally_bounded(fam, scn.audit_compact)
    away = check_locally_bounded_away_from_zero(fam, scn.audit_compact)
    report = {
        "scenario": scn.name,
        "scanned_region": [[list(b.lo), list(b.hi)] for b in scn.domain.boxes],
        "directed": directed.to_json_dict(),
        "locally_bounded": bounded.to_json_dict(),
        "bounded_away_from_zero": away.to_json_dict(),
        "ratio": [],
    }
    ok = directed.passed and bounded.passed and away.passed
    for jl, im, eps, search in scn.audit_ratios:
        K = check_vanishing_ratio(fam, jl, im, eps, search)
        entry = {"pair": [[jl.j, jl.l], [im.j, im.l]], "eps": eps,
                 "K_boxes": None if K is None else
                 [[list(b.lo), list(b.hi)] for b in K.boxes]}
        report["ratio"].append(entry)
        ok = ok and K is not None
    _write_json(out / "weights_report.json", report)
    for line in ("directed", "locally_bounded", "bounded_away_from_zero"):
        print(f"{line}: {'pass' if report[line]['passed'] else 'FAIL'}")
    for entry in report["ratio"]:
        print(f"ratio {entry['pair']}: {'pass' if entry['K_boxes'] is not None else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CRITERION


def _weight_index(args, scn, f) -> WeightIndex:
    """--j and --l as a weight index, checked before anything runs."""
    if f is None:
        raise ConfigError("scenario declares no function")
    fam = scn.family
    if args.j not in fam.js:
        raise ConfigError(f"--j {args.j} is not a weight index of the family; it has {fam.js}")
    top = min(f.order, fam.k_max)
    if not 0 <= args.l <= top:
        raise ConfigError(f"--l must be between 0 and {top} (the function's order and "
                          f"the family's k_max), got {args.l}")
    return WeightIndex(args.j, args.l)


def cmd_approximate(args) -> int:
    out = _out_dir(args.out)
    scn, f = load_scenario(args.scenario, args.grid)
    idx = _weight_index(args, scn, f)
    out.mkdir(parents=True, exist_ok=True)
    all_certified = True
    rank_rows = ["eps,rank,N2,total_measured"]
    for eps in args.eps:
        result, ledger = approximate(f, scn, idx, args.alpha, eps)
        verification = verify_ledger(result, ledger, f, scn, idx, args.alpha,
                                     refine=args.refine)
        tag = f"{eps:g}".replace(".", "p")
        (out / f"ledger_{tag}.json").write_text(ledger.to_json())
        (out / f"ledger_{tag}.csv").write_text(ledger.to_csv())
        _write_json(out / f"verify_{tag}.json", verification.to_json_dict())
        rank_rows.append(f"{eps!r},{ledger.rank},{ledger.N2},"
                         f"{ledger_float(ledger.total_measured)!r}")
        (out / "rank_vs_eps.csv").write_text("\n".join(rank_rows) + "\n")
        failed = ",".join(verification.failed_checks)
        print(f"eps={eps:g} rank={ledger.rank} total={ledger.total_measured:.3e} "
              f"certified={verification.certified}" + (f" failed={failed}" if failed else ""))
        all_certified = all_certified and verification.certified
    return EXIT_OK if all_certified else EXIT_UNCERTIFIED


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
