"""Expression-string evaluators for weights and sample functions.

The config grammar supports +, -, *, /, ^ plus exp, abs, the squared
Euclidean norm (symbol ``normsq``) and ``indicator(lo1, hi1, ..., lod, hid)``
for closed-box membership. Parsing and differentiation are delegated to
sympy; compiled callables operate on (N, d) point batches.
"""

from __future__ import annotations

import numpy as np
import sympy as sp
from sympy.parsing.sympy_parser import parse_expr, standard_transformations, convert_xor

from .errors import ConfigError, OrderError

_TRANSFORMS = standard_transformations + (convert_xor,)

#: closed-box membership gate; only legal in weight expressions
indicator = sp.Function("indicator")


def _symbols(d: int):
    return sp.symbols(f"x1:{d + 1}")


def parse_scalar_expr(text: str, d: int) -> sp.Expr:
    xs = _symbols(d)
    local = {f"x{i + 1}": xs[i] for i in range(d)}
    if d == 1:
        local["x"] = xs[0]
    local["normsq"] = sum(x**2 for x in xs)
    local["exp"] = sp.exp
    local["abs"] = sp.Abs
    local["indicator"] = indicator
    try:
        expr = parse_expr(text, local_dict=local, transformations=_TRANSFORMS)
    except Exception as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    for fn in expr.atoms(sp.Function):
        if fn.func not in (sp.exp, sp.Abs, indicator):
            raise ConfigError(f"function {fn.func} not in the expression grammar")
    free = expr.free_symbols - set(xs)
    if free:
        raise ConfigError(f"unknown symbols {free} in expression {text!r}")
    return expr


def _rewrite_indicators(expr: sp.Expr, xs) -> sp.Expr:
    """Replace indicator(lo1,hi1,...) with a product of Heaviside gates."""
    replacements = {}
    for node in expr.atoms(sp.Function):
        if node.func == indicator:
            args = [sp.Float(a) for a in node.args]
            if len(args) != 2 * len(xs):
                raise ConfigError("indicator needs lo/hi per axis")
            gate = sp.Integer(1)
            for i, x in enumerate(xs):
                lo, hi = args[2 * i], args[2 * i + 1]
                gate *= sp.Heaviside(x - lo, 1) * sp.Heaviside(hi - x, 1)
            replacements[node] = gate
    return expr.xreplace(replacements) if replacements else expr


def compile_scalar(expr: sp.Expr | str, d: int):
    """Compile one scalar expression to a batch callable (N, d) -> (N,)."""
    if isinstance(expr, str):
        expr = parse_scalar_expr(expr, d)
    xs = _symbols(d)
    expr = _rewrite_indicators(expr, xs)
    fn = sp.lambdify(xs, expr, modules=[np])

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = fn(*(pts[:, i] for i in range(d)))
        return np.broadcast_to(np.asarray(vals, dtype=float), (len(pts),)).copy()

    return evaluate


class ExprFunction:
    """Vector of scalar sympy expressions with lazily compiled derivatives."""

    def __init__(self, exprs: list[sp.Expr], d: int):
        self.d = d
        self.xs = _symbols(d)
        self.exprs = [sp.sympify(e) for e in exprs]
        for e in self.exprs:
            if e.atoms(indicator):
                raise ConfigError("indicator() is not differentiable; not allowed in functions")
        self._compiled: dict[tuple[int, ...], object] = {}

    @property
    def value_dim(self) -> int:
        return len(self.exprs)

    def _fn(self, beta: tuple[int, ...]):
        """One callable returning d^beta of every coordinate, compiled once."""
        if beta not in self._compiled:
            derivs = []
            for expr in self.exprs:
                for x, b in zip(self.xs, beta):
                    if b:
                        expr = sp.diff(expr, x, b)
                derivs.append(expr)
            self._compiled[beta] = sp.lambdify(self.xs, derivs, modules=[np])
        return self._compiled[beta]

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self.deriv((0,) * self.d, points)

    def deriv(self, beta: tuple[int, ...], points: np.ndarray) -> np.ndarray:
        if len(beta) != self.d:
            raise OrderError(f"multi-index {beta} has wrong dimension for d={self.d}")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = self._fn(tuple(beta))(*(pts[:, i] for i in range(self.d)))
        return np.stack([np.broadcast_to(np.asarray(v, dtype=float), (len(pts),))
                         for v in vals], axis=1)


def builtin_function(cfg: dict, d: int) -> ExprFunction:
    """Named sample functions used by the shipped scenarios."""
    kind = cfg.get("builtin")
    xs = _symbols(d)
    normsq = sum(x**2 for x in xs)
    amp = sp.Float(cfg.get("amplitude", 1.0))
    if kind == "gaussian":
        sigma = sp.Float(cfg.get("sigma", 1.0))
        e = cfg.get("e", [1.0])
        base = amp * sp.exp(-normsq / sigma**2)
        return ExprFunction([sp.Float(c) * base for c in e], d)
    if kind == "poly_gaussian":
        coeffs = cfg.get("coeffs", [1.0])
        e = cfg.get("e", [1.0])
        poly = sum(sp.Float(c) * xs[0] ** k for k, c in enumerate(coeffs))
        base = amp * poly * sp.exp(-normsq)
        return ExprFunction([sp.Float(c) * base for c in e], d)
    if kind == "plane_waves":
        sigma = sp.Float(cfg.get("sigma", 1.0))
        nodes = cfg.get("nodes")
        if not nodes:
            raise ConfigError("plane_waves needs sample nodes")
        env = amp * sp.exp(-normsq / sigma**2)
        return ExprFunction([env * sp.cos(sp.Float(s) * xs[0]) for s in nodes], d)
    if kind == "strip_waves":
        # bounded, no decay of its own: the strip weights supply the decay
        nodes = cfg.get("nodes", [0.0])
        return ExprFunction([amp * sp.cos(sp.Float(s) * xs[0]) for s in nodes], d)
    if kind == "twin_gaussian_waves":
        if d != 2:
            raise ConfigError("twin_gaussian_waves is a d=2 builtin")
        sigma = sp.Float(cfg.get("sigma", 0.5))
        center = sp.Float(cfg.get("center", 1.2))
        nodes = cfg.get("nodes", [0.0])
        x1, x2 = xs
        env = amp * (
            sp.exp(-(x1**2 + (x2 - center) ** 2) / (2 * sigma**2))
            + sp.exp(-(x1**2 + (x2 + center) ** 2) / (2 * sigma**2))
        )
        return ExprFunction([env * sp.cos(sp.Float(s) * x1) for s in nodes], d)
    raise ConfigError(f"unknown builtin function {kind!r}")


def expr_function_from_strings(texts: list[str], d: int) -> ExprFunction:
    return ExprFunction([parse_scalar_expr(t, d) for t in texts], d)
