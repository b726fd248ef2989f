import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

import finiterank
from finiterank import mollify
from finiterank.errors import ConfigError
from finiterank.expressions import (builtin_function, compile_scalar,
                                    expr_function_from_strings, parse_scalar_expr)
from finiterank.funcmodel import multiindices
from finiterank.geometry import Region
from finiterank.scenarios import REGISTRY, load_scenario


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
    with pytest.raises(ConfigError):
        parse_scalar_expr("sin(x)", 1)
    with pytest.raises(ConfigError):
        parse_scalar_expr("exp(y)", 1)


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


def test_one_compile_per_beta(monkeypatch):
    fn = builtin_function({"builtin": "plane_waves", "amplitude": 1.0, "sigma": 1.0,
                           "nodes": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]}, 1)
    assert fn.value_dim == 8
    calls = []
    lambdify = sympy.lambdify

    def counted(*args, **kwargs):
        calls.append(args)
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sympy, "lambdify", counted)
    x = np.array([[0.3], [1.1]])
    for beta in [(0,), (1,), (2,)]:
        before = len(calls)
        first = fn.deriv(beta, x)
        assert len(calls) - before == 1
        assert first.shape == (2, 8)
        assert np.array_equal(fn.deriv(beta, x), first)
        assert len(calls) - before == 1


def _compile_by_name(monkeypatch):
    """Make every sympy.lambdify the package calls compile against the name
    "numpy" (sympy's star import) instead of the numpy module it passes."""
    lambdify = sympy.lambdify
    calls = []

    def by_name(*args, **kwargs):
        assert kwargs["modules"] == [np]
        calls.append(args)
        return lambdify(*args, **{**kwargs, "modules": ["numpy"]})

    monkeypatch.setattr(sympy, "lambdify", by_name)
    return calls


def _scenario_values(name):
    """f at every beta up to its order, every weight and every gauge
    expression, each on the scenario grid, from a fresh load."""
    scn, f = load_scenario(name)
    grid = scn.domain.grid_points()
    values = [f.deriv(beta, grid) for beta in multiindices(f.d, f.order)]
    values += [scn.family.eval_batch(idx, grid) for idx in scn.family.indices()]
    values += [compile_scalar(text, f.d)(grid)
               for texts in scn.config["family"].get("gauge_sets", []) for text in texts]
    return values


@pytest.mark.parametrize("name", REGISTRY)
def test_module_namespace_compiles_the_same_bits(name, monkeypatch):
    by_module = _scenario_values(name)
    calls = _compile_by_name(monkeypatch)
    by_name = _scenario_values(name)
    assert calls
    assert len(by_module) == len(by_name)
    for a, b in zip(by_module, by_name):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [1, 2])
def test_bump_profile_module_namespace_same_bits(d, monkeypatch):
    grid = Region.box([-1.0] * d, [1.0] * d, 2401 if d == 1 else 121).grid_points()
    betas = multiindices(d, 2)
    monkeypatch.setattr(mollify, "_profile_cache", {})
    by_module = [mollify.bump_profile(grid, beta) for beta in betas]
    calls = _compile_by_name(monkeypatch)
    monkeypatch.setattr(mollify, "_profile_cache", {})
    by_name = [mollify.bump_profile(grid, beta) for beta in betas]
    assert len(calls) == len(betas)
    for a, b in zip(by_module, by_name):
        assert np.array_equal(a, b)


def test_compiling_loads_no_numpy_test_tools():
    # sympy's modules=["numpy"] star-imports numpy, which loads numpy.f2py,
    # numpy.testing and more; the numpy module object needs none of them
    script = """
import sys
from finiterank.pipeline import approximate, verify_ledger
from finiterank.scenarios import load_scenario
from finiterank.weights import WeightIndex
for name, eps in (("om_finite_1d", 0.1), ("schwartz_1d", 0.2)):
    scn, f = load_scenario(name)
    result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup")
print(sorted(m for m in ("numpy.f2py", "numpy.testing") if m in sys.modules))
"""
    src = str(Path(finiterank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
