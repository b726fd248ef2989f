import numpy as np
import pytest

from finiterank.errors import ConfigError
from finiterank.expressions import (builtin_function, compile_scalar,
                                    expr_function_from_strings, parse_scalar_expr)


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
    import sympy

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
