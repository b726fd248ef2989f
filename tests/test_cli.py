import json
from pathlib import Path

import pytest

from finiterank.cli import main
from finiterank.scenarios import load_scenario

FIXTURES = Path(__file__).parent / "fixtures"


def run(args):
    return main(args)


def _floats(obj):
    """Every float in a parsed JSON document."""
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [v for item in obj for v in _floats(item)]
    return []


def _at_ledger_digits(values):
    return all(v == float(f"{v:.10g}") for v in values)


def test_check_weights_schwartz(tmp_path):
    code = run(["check-weights", "--scenario", "schwartz_1d",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "weights_report.json").read_text())
    assert report["directed"]["passed"]
    assert report["bounded_away_from_zero"]["passed"]
    assert report["ratio"][0]["K_boxes"] is not None
    floats = _floats(report)
    assert floats and _at_ledger_digits(floats)


def test_check_weights_om_finite(tmp_path):
    assert run(["check-weights", "--scenario", "om_finite_1d",
                "--out", str(tmp_path)]) == 0


def test_check_weights_broken_family(tmp_path):
    cfg = {
        "name": "broken",
        "order": 1,
        "family": {"kind": "custom", "k_max": 0,
                   "entries": {"1,0": "indicator(0, 1)", "2,0": "indicator(2, 3)"}},
        "domain": {"boxes": [[[-1.0], [4.0]]], "points_per_axis": 251},
        "seminorms": {"sup": {"kind": "sup_all"}},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    code = run(["check-weights", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 4
    report = json.loads((tmp_path / "weights_report.json").read_text())
    assert not report["directed"]["passed"]
    bad = [p for p in report["directed"]["pairs"] if p["dominating"] is None]
    assert bad and bad[0]["witness"] is not None


def test_usage_error_exit_code(tmp_path):
    assert run(["check-weights", "--scenario", "no_such_scenario",
                "--out", str(tmp_path)]) == 2
    assert run(["bogus-command"]) == 2


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_approximate_rejects_refine_below_one(tmp_path, refine):
    # a factor below 1 collapses the verification grid to one point, which
    # would verify vacuously
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(tmp_path), "--refine", refine])
    assert code == 2
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("eps", ["-0.1", "abc", ",", "inf", "nan", "0"])
def test_approximate_rejects_bad_eps(tmp_path, eps):
    # each used to crash with exit 1 ("uncertified"), exit 4, or exit 0
    # with nothing written or an infinite tolerance "certified"
    code = run(["approximate", "--scenario", "schwartz_1d", f"--eps={eps}",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 2
    assert not list(tmp_path.glob("*"))


def test_approximate_rejects_unknown_alpha(tmp_path, capsys):
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2",
                "--j", "1", "--l", "1", "--alpha", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def _schwartz_cfg(tmp_path, **changes):
    """schwartz_1d's config (8 value coordinates) with entries replaced."""
    scn, _ = load_scenario("schwartz_1d")
    cfg = dict(scn.config, **changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("spec", [
    {"kind": "weighted_sup", "coord_weights": [0.0]},
    {"kind": "weighted_sup", "coord_weights": [-1.0]},
    {"kind": "weighted_sup", "coord_weights": [1.0, 1.0]},
    {"kind": "weighted_sup", "coord_weights": [1.0] * 7 + [float("inf")]},
    {"kind": "sup_subset", "subset": []},
    {"kind": "sup_subset", "subset": [8]},
    {"kind": "sup_subset", "subset": [-1]},
    {"kind": "sup_max"},
], ids=["weight0", "weight-1", "two_weights", "weight_inf", "empty_subset",
        "subset8", "subset-1", "unknown_kind"])
def test_approximate_rejects_bad_seminorm(tmp_path, capsys, spec):
    # a zero or negative weight used to certify anything (total 0 or -0);
    # the others crashed inside numpy with exit 1
    path = _schwartz_cfg(tmp_path, seminorms={"sup": spec})
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.1",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("ledger_*"))


def test_quadrature_rule_must_be_midpoint(tmp_path, capsys):
    scn, _ = load_scenario("schwartz_1d")
    assert scn.config["quad"]["rule"] == "midpoint"
    path = _schwartz_cfg(tmp_path, quad=dict(scn.config["quad"], rule="gauss"))
    code = run(["check-weights", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown quadrature rule 'gauss'" in capsys.readouterr().err


def test_approximate_certified_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2",
                    "--j", "1", "--l", "1", "--alpha", "sup",
                    "--out", str(out), "--refine", "2"])
        assert code == 0
    first = (out1 / "ledger_0p2.json").read_bytes()
    second = (out2 / "ledger_0p2.json").read_bytes()
    assert first == second
    pinned = (Path(__file__).parent / "fixtures"
              / "ledger_schwartz_j1_l1_eps0p2.json").read_bytes()
    assert first == pinned
    ledger = json.loads(first)
    assert ledger["certified"] is True
    assert (out1 / "ledger_0p2.csv").exists()
    assert (out1 / "factors_0p2.csv").exists()
    verify_bytes = (out1 / "verify_0p2.json").read_bytes()
    assert verify_bytes == (out2 / "verify_0p2.json").read_bytes()
    assert verify_bytes == (Path(__file__).parent / "fixtures"
                            / "verify_schwartz_j1_l1_eps0p2.json").read_bytes()
    verify = json.loads(verify_bytes)
    assert verify["domination_ok"] and verify["budget_ok"]


def test_approximate_unreachable_budget(tmp_path):
    # far below what the coarse grid can certify: uncertified (1) or a tagged
    # criterion failure (4), never a crash
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "5e-05",
                "--j", "1", "--l", "1", "--grid", "301", "--out", str(tmp_path)])
    assert code in (1, 4)


def test_convergence_outputs(tmp_path):
    code = run(["convergence", "--scenario", "schwartz_1d", "--eps", "0.4,0.2",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert rows[0] == "n,seminorm_error"
    errs = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert (tmp_path / "convergence.csv").read_bytes() == (
        FIXTURES / "convergence_schwartz_j1_l1_eps0p4_0p2.csv").read_bytes()
    rank_rows = (tmp_path / "rank_vs_eps.csv").read_text().splitlines()
    pairs = [(float(r.split(",")[0]), int(r.split(",")[1])) for r in rank_rows[1:]]
    assert _at_ledger_digits(errs + [eps for eps, _ in pairs])
    eps_sorted = sorted(pairs, key=lambda t: -t[0])
    ranks = [rank for _, rank in eps_sorted]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
