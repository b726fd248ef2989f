import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from finiterank import cli, cutoff, mollify
from finiterank.cli import main
from finiterank.funcmodel import exp_poly
from finiterank.pipeline import approximate
from finiterank.scenarios import load_scenario, scenario_from_dict
from oracles import scaled_result
from test_expressions import STRING_FUNCTION

FIXTURES = Path(__file__).parent / "fixtures"
# weights_report.json of the other shipped scenarios; schwartz_1d's is the
# fixture weights_report_schwartz.json
WEIGHTS_REPORT_SHA256 = {
    "om_finite_1d": "2b637d811cefe6f7b6e7f9a1ff812e4f8440c2f2cf1522ceaa63988a7dc4639e",
    "exhaustion_1d": "5abb5934b4d139551d112ce00c7da5541d8c6dcb6ed4bb343df682806a259596",
    "exp_strips_2d": "07d6432b7cf5c4a870a431ac1c5fcc367ce9b1b97dfa7a89509c0af916184a9e",
}


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


@pytest.mark.parametrize("name", ["schwartz_1d", *WEIGHTS_REPORT_SHA256])
def test_check_weights_report_pinned(tmp_path, name):
    assert run(["check-weights", "--scenario", name, "--out", str(tmp_path)]) == 0
    report = (tmp_path / "weights_report.json").read_bytes()
    if name == "schwartz_1d":
        assert report == (FIXTURES / "weights_report_schwartz.json").read_bytes()
    else:
        assert hashlib.sha256(report).hexdigest() == WEIGHTS_REPORT_SHA256[name]


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
    assert run(["convergence", "--scenario", "schwartz_1d"]) == 2


def test_registry_name_shadowed_by_a_directory(tmp_path, monkeypatch):
    # a first --out schwartz_1d makes a directory of that name; the second
    # run used to read it as the config file and crash with exit 1
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert run(["check-weights", "--scenario", "schwartz_1d", "--out", "schwartz_1d"]) == 0
    assert (tmp_path / "schwartz_1d" / "weights_report.json").read_bytes() == (
        FIXTURES / "weights_report_schwartz.json").read_bytes()


@pytest.mark.parametrize("content, message", [
    (b"", "Expecting value"),
    (b'{"name": "x",', "Expecting property name"),
    (b"\xff\xfe{}", "can't decode"),
    (None, "neither a file nor a registry name"),
], ids=["empty", "truncated", "not_utf8", "directory"])
def test_unreadable_scenario_is_a_config_error(tmp_path, capsys, content, message):
    # each used to crash with a traceback and exit 1, read as "uncertified"
    path = tmp_path / "scenario.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for command in ("check-weights", "approximate"):
        assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check-weights", "approximate"])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command, out):
    # --out naming a file used to crash with FileExistsError and exit 1; it is
    # refused before the scenario loads, and nothing is written
    def refuse(*args, **kwargs):
        raise AssertionError("scenario loaded")

    monkeypatch.setattr(cli, "load_scenario", refuse)
    (tmp_path / "taken").write_text("kept\n")
    assert run([command, "--scenario", "schwartz_1d", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == "kept\n"


@pytest.mark.parametrize("args", [
    ["check-weights", "--scenario", "schwartz_1d", "--eps", "0.1"]])
def test_subcommand_refuses_flags_it_does_not_read(tmp_path, args):
    # a flag that is accepted and then ignored reads as if it took effect
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*"))


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_approximate_rejects_refine_below_one(tmp_path, refine):
    # a factor below 1 collapses the verification grid to one point, which
    # would verify vacuously
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(tmp_path), "--refine", refine])
    assert code == 2
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("grid", ["1", "-3"])
def test_approximate_rejects_grid_below_two(tmp_path, grid):
    # a one-point grid used to reach the tail-compact search and exit 4
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(tmp_path), "--grid", grid])
    assert code == 2
    assert not list(tmp_path.glob("*"))


@pytest.mark.parametrize("region", ["domain", "omega"])
def test_config_rejects_grid_below_two(tmp_path, capsys, region):
    scn, _ = load_scenario("schwartz_1d")
    path = _scenario_cfg(tmp_path, **{region: dict(scn.config[region], points_per_axis=1)})
    code = run(["check-weights", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "at least 2 points per axis" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [
    {"family": {"kind": "custom", "k_max": 0, "entries": {"1,0": 1}}},
    {"family": {"kind": "om_finite", "k_max": 2, "gauge_sets": [[1.0]]}},
    {"function": {"expressions": ["x", 2]}},
], ids=["custom_weight", "om_finite_gauge", "function_expression"])
def test_rejects_non_string_expression(tmp_path, capsys, changes):
    # a number where a string belongs used to end in an AttributeError, exit 1
    path = _scenario_cfg(tmp_path, **changes)
    code = run(["check-weights", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["-0.1", "abc", ",", "inf", "nan", "0",
                                 "0.1,0.1000001", "0.2,0.2"])
def test_approximate_rejects_bad_eps(tmp_path, eps):
    # each used to crash with exit 1 ("uncertified"), exit 4, or exit 0
    # with nothing written or an infinite tolerance "certified"; the last
    # two wrote one ledger file twice, the second run over the first
    code = run(["approximate", "--scenario", "schwartz_1d", f"--eps={eps}",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 2
    assert not list(tmp_path.glob("*"))


def test_approximate_rejects_unknown_alpha(tmp_path, capsys):
    # refused before the output directory is made, as an unknown --j is
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2",
                "--j", "1", "--l", "1", "--alpha", "nope", "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["approximate"])
@pytest.mark.parametrize("flags", [["--l", "-1"], ["--j", "0"], ["--j", "99"], ["--l", "5"]],
                         ids=["l-1", "j0", "j99", "l5"])
def test_rejects_weight_index_outside_the_scenario(tmp_path, capsys, command, flags):
    # schwartz_1d has j in 1..3 and l up to 2; these used to exit 1 with a
    # traceback (--l -1) or 3 ("numeric failure") after the run had started
    out = tmp_path / "out"
    code = run([command, "--scenario", "schwartz_1d", "--eps", "0.2", *flags,
                "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def _scenario_cfg(tmp_path, name="schwartz_1d", **changes):
    """A shipped scenario's config (schwartz_1d's has 8 value coordinates)
    with entries replaced."""
    scn, _ = load_scenario(name)
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
    path = _scenario_cfg(tmp_path, seminorms={"sup": spec})
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.1",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("ledger_*"))


@pytest.mark.parametrize("section,key,value", [
    ("quad", "refinement_levels", -1),
    ("quad", "tol", "nan"),
    ("delta", "value", 0),
    ("delta", "value", -1),
    ("delta", "value", "nan"),
    ("domain", "boxes", [[[6.0], [-6.0]]]),
    ("domain", "boxes", [[[-6.0, 0.0], [6.0]]]),
    ("domain", "boxes", []),
    ("function", "nodes", 3),
], ids=["levels-1", "tol_nan", "delta0", "delta-1", "delta_nan", "box_lo_above_hi",
        "box_corner_lengths", "no_boxes", "scalar_nodes"])
def test_approximate_rejects_malformed_config(tmp_path, capsys, section, key, value):
    # each used to end in a traceback (exit 1), a "numeric failure" (3) or a
    # "criterion failure" (4) instead of a config error
    scn, _ = load_scenario("schwartz_1d")
    path = _scenario_cfg(tmp_path, **{section: dict(scn.config[section], **{key: value})})
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("region", ["compact", "search"])
def test_check_weights_rejects_malformed_audit_region(tmp_path, capsys, region):
    # a box with lo > hi in the audit section used to exit 4
    scn, _ = load_scenario("schwartz_1d")
    audit = json.loads(json.dumps(scn.config["audit"]))
    target = audit if region == "compact" else audit["ratio"]
    target[region]["boxes"] = [[[3.0], [-3.0]]]
    path = _scenario_cfg(tmp_path, audit=audit)
    code = run(["check-weights", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "negative extent" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("ratio", "eps", "x"),
    ("ratio", "eps", -1),
    ("ratio", "pairs", 3),
    ("ratio", "pairs", [[[9, 0], [1, 0]]]),
    (None, "compact", {"points_per_axis": 301}),
], ids=["eps_text", "eps-1", "scalar_pairs", "pair_j9", "compact_without_boxes"])
def test_check_weights_rejects_malformed_audit(tmp_path, capsys, section, key, value):
    # each used to exit 1 with a traceback (ValueError, TypeError, KeyError)
    # or 3 ("no weight with index j=9") once the audits had started
    scn, _ = load_scenario("schwartz_1d")
    audit = json.loads(json.dumps(scn.config["audit"]))
    (audit if section is None else audit[section])[key] = value
    path = _scenario_cfg(tmp_path, audit=audit)
    out = tmp_path / "out"
    code = run(["check-weights", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("changes", [
    {"function": {"expressions": []}},
    {"function": {"builtin": "gaussian", "e": []}},
    {"n_max": 0},
    {"n_max": 1},
], ids=["no_expressions", "empty_builtin", "n_max0", "n_max1"])
def test_approximate_rejects_degenerate_config(tmp_path, capsys, changes):
    # a function without value coordinates used to exit 1 inside numpy; an
    # n_max below 2 exited 4, a criterion failure, as if the search had run
    path = _scenario_cfg(tmp_path, **changes)
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, field", [
    ("domain", "points_per_axis", 1200.9, "points_per_axis"),
    ("omega", "points_per_axis", [2.5], "points_per_axis"),
    (None, "order", 2.9, "order"),
    (None, "order", True, "order"),
    (None, "n_max", 63.9, "n_max"),
    ("family", "j_max", 2.5, "family.j_max"),
    ("family", "k_max", "2", "family.k_max"),
    ("quad", "points_per_axis", 8.7, "quad.points_per_axis"),
    ("quad", "refinement_levels", 1.5, "quad.refinement_levels"),
    ("seminorms", "first", {"kind": "sup_subset", "subset": [0.9]}, "seminorms.first.subset"),
], ids=["domain_grid", "omega_grid", "order_float", "order_bool", "n_max", "j_max",
        "k_max_text", "quad_points", "quad_levels", "subset_index"])
def test_approximate_refuses_a_non_integer_count(tmp_path, capsys, section, key, value, field):
    # int() used to truncate each: 1,200 grid points, order 2 (or 1 for
    # true), n_max 63, js = [1, 2], the subset (0,); quad points 8 failed
    # the mollifier mass check (exit 3)
    scn, _ = load_scenario("schwartz_1d")
    changes = {key: value} if section is None else {section: dict(scn.config[section],
                                                                  **{key: value})}
    path = _scenario_cfg(tmp_path, **changes)
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 2
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_counts_are_read_as_integers():
    scn, f = load_scenario("schwartz_1d")
    cfg = dict(scn.config, order=2.0, n_max=64.0,
               domain=dict(scn.config["domain"], points_per_axis=1201.0))
    got, g = scenario_from_dict(cfg)
    assert (got.n_max, got.domain, g.order) == (scn.n_max, scn.domain, f.order)
    assert type(got.n_max) is type(g.order) is int


@pytest.mark.parametrize("texts", ["xx", "exp(-x^2)"])
def test_approximate_refuses_a_bare_expression_string(tmp_path, capsys, texts):
    # a string was walked one character at a time: "xx" ran as the function
    # (x, x), and "exp(-x^2)" failed on "unknown symbols {e}"
    path = _scenario_cfg(tmp_path, function={"expressions": texts})
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 2
    assert "function.expressions must be a list" in capsys.readouterr().err
    assert not out.exists()


def test_quadrature_rule_must_be_midpoint(tmp_path, capsys):
    scn, _ = load_scenario("schwartz_1d")
    assert scn.config["quad"]["rule"] == "midpoint"
    path = _scenario_cfg(tmp_path, quad=dict(scn.config["quad"], rule="gauss"))
    code = run(["check-weights", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown quadrature rule 'gauss'" in capsys.readouterr().err


def test_exhaustion_gap_must_cover_every_j(tmp_path, capsys):
    # a gap table without j = 2 used to end in a KeyError traceback once the
    # run had made --out, with exit 1, the code of an uncertified result
    scn, _ = load_scenario("exhaustion_1d")
    delta = scn.config["delta"]
    values = {j: gap for j, gap in delta["values"].items() if j != "2"}
    path = _scenario_cfg(tmp_path, "exhaustion_1d", delta=dict(delta, values=values))
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.1",
                "--j", "2", "--l", "1", "--out", str(out)])
    assert code == 2
    assert "exhaustion_gap delta has no value for j = 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [("check-weights", []),
                                            ("approximate", ["--l", "1"])],
                         ids=["check-weights", "approximate"])
def test_custom_family_must_declare_every_order(tmp_path, capsys, command, flags):
    # entries up to l = 1 under k_max = 2 used to pass as a config and fail
    # inside the run, "no weight with index j=1, l=2", as a numeric failure
    # (exit 3); approximate had made --out by then
    family = {"kind": "custom", "k_max": 2,
              "entries": {"1,0": "1", "1,1": "(1 + x^2)^0.5"}}
    path = _scenario_cfg(tmp_path, family=family, audit={})
    out = tmp_path / "out"
    code = run([command, "--scenario", str(path), *flags, "--out", str(out)])
    assert code == 2
    assert "no entry for (j, l) = (1, 2)" in capsys.readouterr().err
    assert not out.exists()


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
    assert sorted(p.name for p in out1.iterdir()) == [
        "ledger_0p2.csv", "ledger_0p2.json", "rank_vs_eps.csv", "verify_0p2.json"]
    verify_bytes = (out1 / "verify_0p2.json").read_bytes()
    assert verify_bytes == (out2 / "verify_0p2.json").read_bytes()
    assert verify_bytes == (Path(__file__).parent / "fixtures"
                            / "verify_schwartz_j1_l1_eps0p2.json").read_bytes()
    verify = json.loads(verify_bytes)
    assert verify["domination_ok"] and verify["budget_ok"]


def test_approximate_refine3_pinned(tmp_path):
    # the refine=3 verification grid lies off the scan lattice, on shifted
    # copies of it; the ledger is refine's to leave alone
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2", "--j", "1",
                "--l", "1", "--refine", "3", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ledger_0p2.json").read_bytes() == (
        FIXTURES / "ledger_schwartz_j1_l1_eps0p2.json").read_bytes()
    assert (tmp_path / "verify_0p2.json").read_bytes() == (
        FIXTURES / "verify_schwartz_j1_l1_eps0p2_refine3.json").read_bytes()


def test_approximate_om_finite_pinned(tmp_path):
    # the first pinned om_finite output: its gauge weights are config strings
    code = run(["approximate", "--scenario", "om_finite_1d", "--eps", "0.1",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 0
    for kind in ("ledger", "verify"):
        assert (tmp_path / f"{kind}_0p1.json").read_bytes() == (
            FIXTURES / f"{kind}_om_finite_j1_l1_eps0p1.json").read_bytes()


def test_approximate_exhaustion_pinned(tmp_path):
    # the one shipped scenario whose tail search clips the compact to the
    # weight's structure region
    code = run(["approximate", "--scenario", "exhaustion_1d", "--eps", "0.1",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 0
    for kind in ("ledger", "verify"):
        assert (tmp_path / f"{kind}_0p1.json").read_bytes() == (
            FIXTURES / f"{kind}_exhaustion_j1_l1_eps0p1.json").read_bytes()
    ledger = json.loads((tmp_path / "ledger_0p1.json").read_text())
    assert (ledger["rank"], ledger["N2"], ledger["certified"]) == (11, 2, True)


@pytest.mark.parametrize("name, eps, fixture", [("schwartz_1d", "0.2", "schwartz"),
                                                ("om_finite_1d", "0.1", "om_finite")])
def test_approximate_calls_no_lapack(tmp_path, monkeypatch, name, eps, fixture):
    # LAPACK's first call starts OpenBLAS's thread pool, which slows every
    # later numpy step of the process; approximate and verify_ledger(refine=2)
    # must reach none, the window rule included
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for routine in ("eigvalsh", "eigh", "eig", "eigvals", "svd", "solve", "inv", "lstsq",
                    "qr", "cholesky"):
        monkeypatch.setattr(np.linalg, routine, refuse)
    cutoff._window_rule.cache_clear()
    code = run(["approximate", "--scenario", name, "--eps", eps, "--j", "1", "--l", "1",
                "--out", str(tmp_path)])
    assert code == 0
    tag = eps.replace(".", "p")
    for kind in ("ledger", "verify"):
        assert (tmp_path / f"{kind}_{tag}.json").read_bytes() == (
            FIXTURES / f"{kind}_{fixture}_j1_l1_eps{tag}.json").read_bytes()


@pytest.mark.parametrize("name, eps, fixture", [("schwartz_1d", "0.2", "schwartz"),
                                                ("om_finite_1d", "0.1", "om_finite")])
def test_approximate_builds_no_polynomial(tmp_path, monkeypatch, name, eps, fixture):
    # the window rule is stored and the bump's q_k are built on coefficient
    # lists, so a fresh process runs none of numpy's polynomial helpers
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial built with numpy")

    for helper in ("polyadd", "polymul", "polyder"):
        monkeypatch.setattr(np, helper, refuse)
    for cached in (cutoff._window_rule, exp_poly, mollify._normalization,
                   mollify.build_mollifier):
        cached.cache_clear()
    code = run(["approximate", "--scenario", name, "--eps", eps, "--j", "1", "--l", "1",
                "--out", str(tmp_path)])
    assert code == 0
    tag = eps.replace(".", "p")
    for kind in ("ledger", "verify"):
        assert (tmp_path / f"{kind}_{tag}.json").read_bytes() == (
            FIXTURES / f"{kind}_{fixture}_j1_l1_eps{tag}.json").read_bytes()


@pytest.mark.parametrize("name, fixture", [("schwartz_1d", "schwartz"),
                                           ("om_finite_1d", "om_finite")])
def test_string_function_pinned(tmp_path, name, fixture):
    # the first pinned output of a string function, whose derivatives the
    # package computes itself
    path = _scenario_cfg(tmp_path, name, function=STRING_FUNCTION)
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.1",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 0
    for kind in ("ledger", "verify"):
        assert (out / f"{kind}_0p1.json").read_bytes() == (
            FIXTURES / f"{kind}_{fixture}_string_j1_l1_eps0p1.json").read_bytes()


def test_string_function_with_abs_has_no_derivative(tmp_path, capsys):
    # abs has values only; its derivative used to crash inside sympy's
    # printer with exit 1, the code of an uncertified result
    path = _scenario_cfg(tmp_path, function={"expressions": ["0.01 * abs(x) * exp(-normsq)"]})
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.1",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 3
    assert "error: abs has no derivatives" in capsys.readouterr().err


def test_warm_caches_keep_the_eps_0p2_ledger(tmp_path):
    # eps 0.1 first warms every process cache; eps 0.2 must still give the
    # pinned bytes, so no cached state leaks from one operation to the next
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.1,0.2",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ledger_0p2.json").read_bytes() == (
        FIXTURES / "ledger_schwartz_j1_l1_eps0p2.json").read_bytes()


def _shrink_tensor_stage(result, ledger, f):
    return result, replace(ledger, tensor_measured=ledger.tensor_measured * 1e-3)


def _replace_result(result, ledger, f):
    return scaled_result(result, f, 100.0), ledger


@pytest.mark.parametrize("tamper,check", [(_shrink_tensor_stage, "domination"),
                                          (_replace_result, "refined_total")])
def test_approximate_exits_1_when_a_check_fails(tmp_path, monkeypatch, capsys,
                                                tamper, check):
    # the ledger stays certified; the verdict reads every check and fails
    def tampered(f, scn, idx, alpha, eps):
        return tamper(*approximate(f, scn, idx, alpha, eps), f)

    monkeypatch.setattr(cli, "approximate", tampered)
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 1
    assert json.loads((tmp_path / "ledger_0p2.json").read_text())["certified"] is True
    verify = json.loads((tmp_path / "verify_0p2.json").read_text())
    assert verify["certified"] is False
    assert verify["failed_checks"] == [check]
    assert f"certified=False failed={check}" in capsys.readouterr().out


def test_approximate_unreachable_budget(tmp_path):
    # far below what the coarse grid can certify: uncertified (1) or a tagged
    # criterion failure (4), never a crash
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "5e-05",
                "--j", "1", "--l", "1", "--grid", "301", "--out", str(tmp_path)])
    assert code in (1, 4)


def test_rank_vs_eps_reads_the_ledgers(tmp_path):
    # one row per eps in --eps order, each the rank, N2 and total of that
    # eps's certified ledger
    code = run(["approximate", "--scenario", "schwartz_1d", "--eps", "0.2,0.1,0.05",
                "--j", "1", "--l", "1", "--out", str(tmp_path)])
    assert code == 0
    table = tmp_path / "rank_vs_eps.csv"
    assert table.read_bytes() == (
        FIXTURES / "rank_vs_eps_schwartz_j1_l1_eps0p2_0p1_0p05.csv").read_bytes()
    rows = table.read_text().splitlines()
    assert rows[0] == "eps,rank,N2,total_measured"
    for row, tag in zip(rows[1:], ("0p2", "0p1", "0p05"), strict=True):
        eps, rank, n2, total = row.split(",")
        ledger = json.loads((tmp_path / f"ledger_{tag}.json").read_text())
        assert (float(eps), int(rank), int(n2), float(total)) == (
            ledger["eps"], ledger["rank"], ledger["N2"], ledger["total_measured"])


def test_approximate_cuts_off_against_omega(tmp_path):
    # the domain ends 0.23 past the tail compact [-2.57, 2.57], less than
    # delta = 1; omega is the boundary surrogate, so f is cut off against it
    # and the run certifies
    path = _scenario_cfg(tmp_path, domain={"boxes": [[[-2.8], [2.8]]],
                                            "points_per_axis": 561})
    out = tmp_path / "out"
    code = run(["approximate", "--scenario", str(path), "--eps", "0.2",
                "--j", "1", "--l", "1", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "ledger_0p2.json").read_text())["certified"] is True
    assert (out / "rank_vs_eps.csv").read_text().startswith("eps,rank,N2,total_measured\n0.2,")
