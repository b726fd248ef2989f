"""Expression-string evaluators for weights and sample functions.

The config grammar supports +, -, *, /, ^ plus exp, abs, the squared
Euclidean norm (symbol ``normsq``) and ``indicator(lo1, hi1, ..., lod, hid)``
for closed-box membership. A weight string needs only its values, so
compile_scalar walks its Python syntax tree into a numpy closure. A string
function needs derivatives: sympy parses and differentiates it, and loads
only when the first one is built. The builtin functions are numpy closed
forms. Callables operate on (N, d) point batches.
"""

from __future__ import annotations

import ast
import operator

import numpy as np

from .errors import ConfigError, OrderError
from .funcmodel import exp_poly, leibniz


_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_CALLS = {"exp": np.exp, "abs": np.abs}


def _number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _walk(node, d: int, text: str):
    """Closure xs -> value of one grammar node, xs the coordinate columns."""
    if _number(node):
        return lambda xs: node.value
    if isinstance(node, ast.Name):
        axes = {f"x{i + 1}": i for i in range(d)} | ({"x": 0} if d == 1 else {})
        if node.id in axes:
            return lambda xs, i=axes[node.id]: xs[i]
        if node.id == "normsq":
            return lambda xs: sum(x**2 for x in xs)
        raise ConfigError(f"unknown symbols {{{node.id}}} in expression {text!r}")
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op, arg = _UNARY[type(node.op)], _walk(node.operand, d, text)
        return lambda xs: op(arg(xs))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op, a, b = _BINARY[type(node.op)], _walk(node.left, d, text), _walk(node.right, d, text)
        return lambda xs: op(a(xs), b(xs))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        name, args = node.func.id, node.args
        if name in _CALLS and len(args) == 1:
            fn, arg = _CALLS[name], _walk(args[0], d, text)
            return lambda xs: fn(arg(xs))
        if name == "indicator":
            if len(args) != 2 * d:
                raise ConfigError("indicator needs lo/hi per axis")
            if not all(_number(a.operand if isinstance(a, ast.UnaryOp) else a) for a in args):
                raise ConfigError(f"indicator bounds must be numbers in {text!r}")
            bounds = [float(_walk(a, d, text)(())) for a in args]
            return lambda xs: np.all([(x >= lo) & (x <= hi) for x, lo, hi in
                                      zip(xs, bounds[::2], bounds[1::2])], axis=0).astype(float)
        raise ConfigError(f"function {name} of {len(args)} arguments not in the grammar")
    raise ConfigError(f"cannot parse expression {text!r}: {type(node).__name__} not in the grammar")


def compile_scalar(text: str, d: int):
    """Compile one grammar string to a batch callable (N, d) -> (N,): its
    syntax tree walked into a numpy closure, evaluated as written."""
    if not isinstance(text, str):
        raise ConfigError(f"an expression must be a string, got {text!r}")
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    fn = _walk(tree.body, d, text)

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = fn([pts[:, i] for i in range(d)])
        return np.broadcast_to(np.asarray(vals, dtype=float), (len(pts),)).copy()

    return evaluate


def parse_scalar_expr(text: str, d: int):
    """One grammar string as a sympy expression, for the string functions,
    which need derivatives; compile_scalar checks the grammar first."""
    compile_scalar(text, d)
    import sympy as sp
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations
    xs = sp.symbols(f"x1:{d + 1}")
    local = {f"x{i + 1}": x for i, x in enumerate(xs)} | ({"x": xs[0]} if d == 1 else {})
    local.update(normsq=sum(x**2 for x in xs), exp=sp.exp, abs=sp.Abs,
                 indicator=sp.Function("indicator"))
    try:
        return parse_expr(text, local_dict=local,
                          transformations=standard_transformations + (convert_xor,))
    except Exception as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc


class ExprFunction:
    """Vector of scalar sympy expressions with lazily compiled derivatives."""

    def __init__(self, exprs: list, d: int):
        import sympy as sp
        self.d = d
        self.xs = sp.symbols(f"x1:{d + 1}")
        self.exprs = [sp.sympify(e) for e in exprs]
        for e in self.exprs:
            if e.atoms(sp.Function("indicator")):
                raise ConfigError("indicator() is not differentiable; not allowed in functions")
        self._derivs = {(0,) * d: self.exprs}
        self._compiled: dict[tuple[int, ...], object] = {}

    @property
    def value_dim(self) -> int:
        return len(self.exprs)

    def _exprs(self, beta: tuple[int, ...]) -> list:
        """d^beta of every coordinate: one sp.diff of the cached beta - e_k,
        k the last axis that beta differentiates."""
        import sympy as sp
        if beta not in self._derivs:
            k = max(i for i, b in enumerate(beta) if b)
            lower = tuple(b - (i == k) for i, b in enumerate(beta))
            self._derivs[beta] = [sp.diff(e, self.xs[k]) for e in self._exprs(lower)]
        return self._derivs[beta]

    def _fn(self, beta: tuple[int, ...]):
        """One callable returning d^beta of every coordinate, compiled once."""
        import sympy as sp
        if beta not in self._compiled:
            self._compiled[beta] = sp.lambdify(self.xs, self._exprs(beta), modules=[np])
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


def _gaussians(centers, width: float, scale: float = 1.0):
    """(beta, pts) -> d^beta scale sum_c exp(-|x - c|^2 / width^2) as an (N, 1)
    column: per axis width^-k p_k(y_i), with y = (x - c) / width and
    p_k = (-1)^k H_k, H_k the Hermite polynomial."""
    def one(beta, y):
        out = scale * np.exp(-np.sum(y * y, axis=1))
        for i, k in enumerate(beta):
            if k:
                out = out * (np.polyval(exp_poly(k, (1.0,), (-2.0, 0.0)), y[:, i]) / width**k)
        return out
    return lambda beta, pts: sum(one(beta, (pts - c) / width) for c in centers)[:, None]


def _along_x1(deriv, width: int):
    """(beta, pts) -> d^beta of a factor of x1 alone, (N, width); deriv maps
    (k, x1 as an (N, 1) column) to the k-th derivative."""
    return lambda beta, pts: (np.zeros((len(pts), width)) if any(beta[1:])
                              else deriv(beta[0], pts[:, :1]))


def _waves(freqs):
    """d^beta cos(s x1) for every frequency s at once, as (N, m) columns:
    s^k {cos, -sin, -cos, sin}[k mod 4](s x1) for beta = (k, 0, ..., 0)."""
    s = np.asarray(freqs, dtype=float)
    return _along_x1(lambda k, x1: ((1.0, -1.0, -1.0, 1.0)[k % 4] * s**k)
                     * (np.cos, np.sin)[k % 2](x1 * s), len(s))


class BuiltinFunction:
    """x -> coeffs * prod(factors)(x), each factor a closed form
    (beta, pts) -> (N, 1) or (N, m); derivatives by the Leibniz rule."""

    def __init__(self, factors: list, coeffs: np.ndarray, d: int):
        self.factors, self.coeffs, self.d, self.value_dim = factors, coeffs, d, len(coeffs)

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self.deriv((0,) * self.d, points)

    def deriv(self, beta: tuple[int, ...], points: np.ndarray) -> np.ndarray:
        if len(beta) != self.d:
            raise OrderError(f"multi-index {beta} has wrong dimension for d={self.d}")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return leibniz(self.factors, tuple(beta), pts) * self.coeffs


def builtin_function(cfg: dict, d: int) -> BuiltinFunction:
    """Named sample functions used by the shipped scenarios."""
    kind = cfg.get("builtin")
    amp = float(cfg.get("amplitude", 1.0))
    origin = [np.zeros(d)]
    e = amp * np.asarray(cfg.get("e", [1.0]), dtype=float)
    nodes = cfg.get("nodes", [0.0])
    if kind == "gaussian":
        return BuiltinFunction([_gaussians(origin, float(cfg.get("sigma", 1.0)))], e, d)
    if kind == "poly_gaussian":
        poly = np.asarray(cfg.get("coeffs", [1.0]), dtype=float)[::-1]
        factors = [_along_x1(lambda k, x1: np.polyval(np.polyder(poly, k), x1), 1),
                   _gaussians(origin, 1.0)]
        return BuiltinFunction(factors, e, d)
    if kind == "plane_waves":
        if not cfg.get("nodes"):
            raise ConfigError("plane_waves needs sample nodes")
        env = _gaussians(origin, float(cfg.get("sigma", 1.0)), amp)
        return BuiltinFunction([env, _waves(nodes)], np.ones(len(nodes)), d)
    if kind == "strip_waves":
        # bounded, no decay of its own: the strip weights supply the decay
        return BuiltinFunction([_waves(nodes)], np.full(len(nodes), amp), d)
    if kind == "twin_gaussian_waves":
        if d != 2:
            raise ConfigError("twin_gaussian_waves is a d=2 builtin")
        center = float(cfg.get("center", 1.2))
        env = _gaussians([np.array([0.0, center]), np.array([0.0, -center])],
                         float(cfg.get("sigma", 0.5)) * np.sqrt(2.0), amp)
        return BuiltinFunction([env, _waves(nodes)], np.ones(len(nodes)), d)
    raise ConfigError(f"unknown builtin function {kind!r}")


def expr_function_from_strings(texts: list[str], d: int) -> ExprFunction:
    return ExprFunction([parse_scalar_expr(t, d) for t in texts], d)
