import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finiterank
from finiterank import expressions
from finiterank.errors import ConfigError, OrderError
from finiterank.expressions import builtin_function, compile_scalar, expr_function_from_strings
from finiterank.funcmodel import multiindices
from finiterank.geometry import Region
from finiterank.mollify import SMOOTH_ORDER
from finiterank.scenarios import REGISTRY, load_scenario, scenario_from_dict
from oracles import sympy_builtin, sympy_scalar, sympy_strings


def test_compile_scalar_grammar():
    f = compile_scalar("exp(-normsq) * (1 + normsq)^2", 1)
    x = np.array([[0.0], [1.0]])
    expected = np.exp(-x[:, 0] ** 2) * (1 + x[:, 0] ** 2) ** 2
    assert np.allclose(f(x), expected)


def test_compile_scalar_abs_and_x_alias():
    f = compile_scalar("abs(x) / (1 + x^2)", 1)
    assert f(np.array([[-2.0]]))[0] == pytest.approx(2.0 / 5.0)


def test_indicator_weight():
    f = compile_scalar("indicator(-1, 1) * exp(-x^2)", 1)
    vals = f(np.array([[-2.0], [0.5], [1.0]]))
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(np.exp(-0.25))
    assert vals[2] == pytest.approx(np.exp(-1.0))  # closed box: boundary inside


def test_unknown_function_rejected():
    # weights and string functions read one grammar
    for text in ["sin(x)", "exp(y)", "x.real", "__import__('os')", "lambda: 1", "x < 1",
                 "exp(x, 2)", "indicator(0)", "indicator(a, 1)", "x +", "True"]:
        with pytest.raises(ConfigError):
            compile_scalar(text, 1)
        with pytest.raises(ConfigError):
            expr_function_from_strings([text], 1)


@pytest.mark.parametrize("name", REGISTRY)
def test_shipped_gauges_are_the_sympy_bits(name):
    scn, _ = load_scenario(name)
    grid, d = scn.domain.grid_points(), scn.domain.d
    for text in (t for texts in scn.config["family"].get("gauge_sets", []) for t in texts):
        assert np.array_equal(compile_scalar(text, d)(grid), sympy_scalar(text, d)(grid))


# every weight string the tests compile
TEST_WEIGHTS = ["exp(-normsq) * (1 + normsq)^2", "abs(x) / (1 + x^2)",
                "indicator(-1, 1) * exp(-x^2)", "indicator(0, 1)", "indicator(2, 3)",
                "indicator(-1, 4.5)", "indicator(-3, 1)", "1", "(1 + normsq)^1"]


@pytest.mark.parametrize("text", TEST_WEIGHTS)
def test_weights_in_tests_are_the_sympy_bits(text):
    grid = load_scenario("om_finite_1d")[0].domain.grid_points()
    assert np.array_equal(compile_scalar(text, 1)(grid), sympy_scalar(text, 1)(grid))


@pytest.mark.parametrize("text, d", [
    ("x/3 + 2", 1),
    ("exp(-normsq/4) * abs(x)^1.5", 1),
    ("-x^3 + 4.5 * x^2 + 10", 1),
    ("exp(-normsq) * (1 + normsq)^3 / 7", 2),
    ("indicator(-1, 1, 0, 2.5) * (2 + x1) * exp(-x2^2)", 2),
    ("abs(x1 - 7) / (1 + 0.1 * x2^2)", 2),
])
def test_other_strings_agree_with_sympy(text, d):
    # sympy rewrites x/3 as (1/3)*x; the compiler evaluates what is written
    grid = Region.box([-3.0] * d, [3.0] * d, 601 if d == 1 else 61).grid_points()
    want = sympy_scalar(text, d)(grid)
    assert np.any(want != 0.0)
    np.testing.assert_allclose(compile_scalar(text, d)(grid), want, rtol=1e-15, atol=0.0)


def test_indicator_rejected_in_functions():
    with pytest.raises(ConfigError):
        expr_function_from_strings(["indicator(0, 1) * x"], 1)


def test_expr_function_derivatives():
    fn = expr_function_from_strings(["exp(-x^2)"], 1)
    x = np.array([[0.3], [1.1]])
    d1 = fn.deriv((1,), x)[:, 0]
    assert np.allclose(d1, -2 * x[:, 0] * np.exp(-x[:, 0] ** 2))
    d2 = fn.deriv((2,), x)[:, 0]
    assert np.allclose(d2, (4 * x[:, 0] ** 2 - 2) * np.exp(-x[:, 0] ** 2))


def test_builtin_plane_waves_coords():
    fn = builtin_function({"builtin": "plane_waves", "amplitude": 2.0, "sigma": 1.0,
                           "nodes": [0.0, 1.5]}, 1)
    assert fn.value_dim == 2
    x = np.array([[0.7]])
    vals = fn.eval(x)[0]
    env = 2.0 * np.exp(-0.49)
    assert vals[0] == pytest.approx(env)
    assert vals[1] == pytest.approx(env * np.cos(1.5 * 0.7))


def test_builtin_twin_gaussians_symmetric():
    fn = builtin_function({"builtin": "twin_gaussian_waves", "amplitude": 1.0,
                           "sigma": 0.5, "center": 1.2, "nodes": [0.0]}, 2)
    up = fn.eval(np.array([[0.3, 1.0]]))[0, 0]
    down = fn.eval(np.array([[0.3, -1.0]]))[0, 0]
    assert up == pytest.approx(down)


def test_builtin_strip_waves_flat_in_x2():
    fn = builtin_function({"builtin": "strip_waves", "amplitude": 1.0,
                           "nodes": [0.4]}, 2)
    a = fn.eval(np.array([[0.5, 1.0]]))[0, 0]
    b = fn.eval(np.array([[0.5, -2.0]]))[0, 0]
    assert a == b == pytest.approx(np.cos(0.2))


def _count_calls(monkeypatch, name):
    """The argument tuples of every expressions.<name> call, recorded as it runs."""
    calls, real = [], getattr(expressions, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(expressions, name, counted)
    return calls


def test_one_compile_per_beta(monkeypatch):
    # each string is walked once, when the function is built; no beta and no
    # call walks it again
    parses, walks = _count_calls(monkeypatch, "_parse"), _count_calls(monkeypatch, "_walk")
    fn = expr_function_from_strings([f"exp(-{s} * x^2) * (1 + x)" for s in
                                     (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)], 1)
    assert fn.value_dim == 8
    assert len(parses) == 8 and len(walks) > 8
    walked = len(walks)
    x = np.array([[0.3], [1.1]])
    for beta in [(0,), (1,), (2,)]:
        first = fn.deriv(beta, x)
        assert first.shape == (2, 8)
        assert np.array_equal(fn.deriv(beta, x), first)
    assert len(parses) == 8 and len(walks) == walked


# one string function of normsq, legal in every dimension
STRING_FUNCTION = {"expressions": ["0.01 * exp(-normsq)", "0.01 * (1 + normsq) * exp(-normsq)"]}


def _scenario_values(name):
    """f at every beta up to its order, every weight and every gauge
    expression, each on the scenario grid, from a fresh load of the scenario
    with its function given as the string expressions STRING_FUNCTION."""
    scn, _ = load_scenario(name)
    scn, f = scenario_from_dict({**scn.config, "function": STRING_FUNCTION})
    grid = scn.domain.grid_points()
    values = [f.deriv(beta, grid) for beta in multiindices(f.d, f.order)]
    values += [scn.family.eval_batch(idx, grid) for idx in scn.family.indices()]
    values += [compile_scalar(text, f.d)(grid)
               for texts in scn.config["family"].get("gauge_sets", []) for text in texts]
    return values


@pytest.mark.parametrize("name", REGISTRY)
def test_module_namespace_compiles_the_same_bits(name):
    # two fresh loads compile every string and closed form to the same bits
    first, second = _scenario_values(name), _scenario_values(name)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def _run_script(script, **env_vars):
    """stdout lines of a fresh interpreter that imports finiterank from src/,
    with env_vars added to its environment."""
    src = str(Path(finiterank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env_vars}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()


def test_compiling_loads_no_numpy_test_tools():
    # the package uses the numpy module object, which needs none of
    # numpy.f2py, numpy.testing or numpy.ma; np.unique imports numpy.ma,
    # which the cut-off's ramp dedupe avoids
    script = """
import sys
from finiterank.pipeline import approximate, verify_ledger
from finiterank.scenarios import load_scenario
from finiterank.weights import WeightIndex
for name, eps in (("om_finite_1d", 0.1), ("schwartz_1d", 0.2)):
    scn, f = load_scenario(name)
    result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup")
print(sorted(m for m in ("numpy.f2py", "numpy.testing", "numpy.ma") if m in sys.modules))
"""
    assert _run_script(script)[-1] == "[]"


def test_builtin_scenario_never_loads_sympy():
    # a builtin function, numpy weights, the bump and the om_finite_1d gauge
    # strings, which compile by their syntax tree, need no algebra system
    script = """
import sys
from finiterank.pipeline import approximate, verify_ledger
from finiterank.scenarios import load_scenario
from finiterank.weights import WeightIndex
for name, eps in (("schwartz_1d", 0.2), ("om_finite_1d", 0.1)):
    scn, f = load_scenario(name)
    result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup")
    print(name, ledger.certified, "sympy" in sys.modules)
"""
    assert _run_script(script)[-2:] == ["schwartz_1d True False", "om_finite_1d True False"]


def test_string_function_never_loads_sympy():
    # a string function differentiates on its syntax tree, with numpy only
    script = f"""
import sys
from finiterank.pipeline import approximate, verify_ledger
from finiterank.scenarios import load_scenario, scenario_from_dict
from finiterank.weights import WeightIndex
scn, _ = load_scenario("schwartz_1d")
scn, f = scenario_from_dict(dict(scn.config, function={STRING_FUNCTION!r}))
result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", 0.1)
verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup")
print(ledger.certified, "sympy" in sys.modules)
"""
    assert _run_script(script)[-1] == "True False"


def test_om_finite_compiles_its_gauges(monkeypatch):
    # loading walks each of the three gauge strings once
    parses = _count_calls(monkeypatch, "_parse")
    scn, _ = load_scenario("om_finite_1d")
    gauges = [text for texts in scn.config["family"]["gauge_sets"] for text in texts]
    assert len(gauges) == 3 and [args[0] for args in parses] == gauges
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    assert np.allclose(compile_scalar(gauges[1], 1)(x),
                       np.exp(-x[:, 0] ** 2) * (1 + x[:, 0] ** 2), rtol=1e-14, atol=0.0)


def _sup_relative_gap(fn, oracle, grid, d):
    """Largest |fn - oracle| over the grid, relative to the oracle's sup, over
    every coordinate and every |beta| <= SMOOTH_ORDER. Relative to each value
    it would blow up near the zeros of a derivative."""
    gaps = []
    for beta in multiindices(d, SMOOTH_ORDER):
        got, want = fn.deriv(beta, grid), oracle.deriv(beta, grid)
        assert got.shape == want.shape == (len(grid), oracle.value_dim)
        sup = np.max(np.abs(want), axis=0)
        gaps.append(np.max(np.abs(got - want), axis=0) / np.where(sup > 0, sup, 1.0))
    return float(np.max(gaps))


@pytest.mark.parametrize("name", REGISTRY)
def test_builtin_matches_sympy_oracle(name):
    scn, _ = load_scenario(name)
    cfg, d, grid = scn.config["function"], scn.domain.d, scn.domain.grid_points()
    fn, oracle = builtin_function(cfg, d), sympy_builtin(cfg, d)
    assert _sup_relative_gap(fn, oracle, grid, d) <= 1e-13
    # the values, which every convolution reads, are the oracle's bits in 1D
    if d == 1:
        assert np.array_equal(fn.eval(grid), oracle.eval(grid))


@pytest.mark.parametrize("cfg, d", [
    ({"builtin": "gaussian", "amplitude": 0.5, "sigma": 0.7, "e": [1.0, -2.0]}, 1),
    ({"builtin": "gaussian", "amplitude": 0.5, "sigma": 0.7, "e": [1.0, -2.0]}, 2),
    ({"builtin": "poly_gaussian", "coeffs": [1.0, 0.5, 0.25], "e": [1.0, 3.0]}, 1),
    ({"builtin": "strip_waves", "amplitude": 2.0, "nodes": [0.0, 0.4, 1.3]}, 2),
])
def test_other_builtins_match_sympy_oracle(cfg, d):
    grid = Region.box([-3.0] * d, [3.0] * d, 601 if d == 1 else 61).grid_points()
    assert _sup_relative_gap(builtin_function(cfg, d), sympy_builtin(cfg, d), grid, d) <= 1e-13


def _acceptance_triples():
    """The string functions of test_acceptance's criterion 4, trial by trial."""
    rng = np.random.default_rng(42)
    triples = []
    for _ in range(5):
        a, b, c = rng.uniform(0.3, 2.0), rng.uniform(0.4, 1.5), rng.uniform(-1.5, 1.5)
        triples.append([f"{a} * exp(-{b} * x^2)", f"{c} * x * exp(-{b} * x^2)",
                        f"{a * c} * x^2 * exp(-{b} * x^2)"])
    return triples


@pytest.mark.parametrize("texts, d, lo", [
    (STRING_FUNCTION["expressions"], 1, -3.0),
    (STRING_FUNCTION["expressions"], 2, -3.0),
    *((triple, 1, -3.0) for triple in _acceptance_triples()),
    (["x1 / (2 + x2^2)"], 2, -3.0),
    (["(1 + normsq)^1.5 * exp(-normsq)"], 1, -3.0),
    (["(1 + normsq)^1.5 * exp(-normsq)"], 2, -3.0),
    (["x^2", "x^3"], 1, -3.0),
    (["2^x"], 1, -3.0),
    (["(x + 20)^x"], 1, -19.5),
    (["abs(-2) * x / 3 + 2"], 1, -3.0),
])
def test_string_functions_match_sympy_oracle(texts, d, lo):
    # every grid runs through 0, where the derivatives of x^2 and x^3 are exact
    grid = Region.box([lo] * d, [3.0] * d, 601 if d == 1 else 61).grid_points()
    fn, oracle = expr_function_from_strings(texts, d), sympy_strings(texts, d)
    assert _sup_relative_gap(fn, oracle, grid, d) <= 1e-13


def test_abs_has_values_only():
    fn = expr_function_from_strings(["abs(x) * exp(-x^2)"], 1)
    assert fn.eval(np.array([[-1.0]]))[0, 0] == np.exp(-1.0)
    with pytest.raises(OrderError, match="abs"):
        fn.deriv((1,), np.array([[-1.0]]))
