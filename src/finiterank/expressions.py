"""Expression-string evaluators for weights and sample functions.

The config grammar supports +, -, *, /, ^ plus exp, abs, the squared
Euclidean norm (symbol ``normsq``) and ``indicator(lo1, hi1, ..., lod, hid)``
for closed-box membership. One walker reads a string's Python syntax tree,
once, into a closure (xs, betas) -> {beta: d^beta value}, xs the coordinate
columns and betas a lower set of multi-indices, each after those below it.
Derivatives are forward-mode Taylor arithmetic on the tree (Griewank and
Walther, Evaluating Derivatives, 2nd ed., ch. 13); the beta = 0 value is
the string evaluated as written. A weight (compile_scalar) reads beta = 0
only; a string function (ExprFunction) reads d^beta over the multi-indices
below beta. abs and indicator have values only. The builtin functions are
numpy closed forms. Callables operate on (N, d) point batches.
"""

from __future__ import annotations

import ast
import operator

import numpy as np

from .errors import ConfigError, OrderError
from .funcmodel import exp_poly, leibniz, mi_sub, multiindex_binom, submultiindices


def _number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _jet(value, betas, term) -> dict:
    """{beta: d^beta} over betas: value at beta = 0, then term(jet so far,
    beta) for each beta in order."""
    out = {betas[0]: value}
    for beta in betas[1:]:
        out[beta] = term(out, beta)
    return out


def _binomial_sum(a, b, beta, upto):
    """sum over gamma <= upto of C(upto, gamma) d^gamma a d^(beta - gamma) b:
    d^beta (a b) by the Leibniz rule for upto = beta, and for upto = beta - e_k,
    d^beta of a node whose d_k is a d_k b."""
    return sum(multiindex_binom(upto, g) * a[g] * b[mi_sub(beta, g)]
               for g in submultiindices(upto))


def _chain(outer, inner, beta):
    """d^beta of a node whose d_k is outer * d_k inner, k the last axis that
    beta differentiates; outer is read below beta only."""
    k = max(i for i, b in enumerate(beta) if b)
    return _binomial_sum(outer, inner, beta, tuple(b - (i == k) for i, b in enumerate(beta)))


def _linear(op):
    return lambda u, v, betas: {beta: op(u[beta], v[beta]) for beta in betas}


def _times(u, v, betas) -> dict:
    return _jet(u[betas[0]] * v[betas[0]], betas, lambda _, beta: _binomial_sum(u, v, beta, beta))


def _quotient(u, v, betas) -> dict:
    """u / v as written; its derivatives are those of u v^-1."""
    inverse = _power(v, -1, betas) if len(betas) > 1 else None
    return _jet(u[betas[0]] / v[betas[0]], betas,
                lambda _, beta: _binomial_sum(u, inverse, beta, beta))


def _power(u, p, betas) -> dict:
    """u^p for a number p: d_k u^p = p u^(p-1) d_k u, with u^(p-1) over
    betas without their top order. An integer p ends at u^0, whose
    derivatives vanish, so x^2 stays exact at x = 0."""
    if p == 0 or len(betas) == 1:
        return _jet(u[betas[0]] ** p, betas, lambda _, beta: 0.0)
    top = max(map(sum, betas))
    lowered = _power(u, p - 1, [b for b in betas if sum(b) < top])
    return _jet(u[betas[0]] ** p, betas, lambda _, beta: p * _chain(lowered, u, beta))


def _pow(u, v, betas) -> dict:
    """u^v: the power rule for a number v; for a coordinate in v,
    exp(v log u), with d_k log u = u^-1 d_k u."""
    if np.ndim(v[betas[0]]) == 0:
        return _power(u, v[betas[0]], betas)
    value = u[betas[0]] ** v[betas[0]]
    if len(betas) == 1:
        return {betas[0]: value}
    inverse = _power(u, -1, betas)
    log_u = _jet(np.log(u[betas[0]]), betas, lambda _, beta: _chain(inverse, u, beta))
    return _exp(_times(v, log_u, betas), betas, value)


def _exp(u, betas, value) -> dict:
    """e^u from its value: d_k e^u = e^u d_k u."""
    return _jet(value, betas, lambda out, beta: _chain(out, u, beta))


def _abs(u, betas) -> dict:
    """|u| has values only, unless no coordinate moves u."""
    if len(betas) > 1 and np.ndim(u[betas[0]]):
        raise OrderError(f"abs has no derivatives; d^{betas[-1]} was asked for")
    return _jet(np.abs(u[betas[0]]), betas, lambda _, beta: 0.0)


_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: _linear(operator.add), ast.Sub: _linear(operator.sub),
           ast.Mult: _times, ast.Div: _quotient, ast.Pow: _pow}
_CALLS = {"exp": lambda u, betas: _exp(u, betas, np.exp(u[betas[0]])), "abs": _abs}


def _walk(node, d: int, text: str):
    """Closure (xs, betas) -> {beta: d^beta of one grammar node}."""
    if _number(node):
        return lambda xs, betas: _jet(node.value, betas, lambda _, beta: 0.0)
    if isinstance(node, ast.Name):
        axes = {f"x{i + 1}": i for i in range(d)} | ({"x": 0} if d == 1 else {})
        if node.id in axes:
            i = axes[node.id]
            unit = tuple(int(k == i) for k in range(d))
            return lambda xs, betas: _jet(xs[i], betas, lambda _, beta: float(beta == unit))
        if node.id == "normsq":
            squares = " + ".join(f"x{i + 1}**2" for i in range(d))
            return _walk(ast.parse(squares, mode="eval").body, d, text)
        raise ConfigError(f"unknown symbols {{{node.id}}} in expression {text!r}")
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op, arg = _UNARY[type(node.op)], _walk(node.operand, d, text)
        return lambda xs, betas: {beta: op(v) for beta, v in arg(xs, betas).items()}
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        rule, a, b = _BINARY[type(node.op)], _walk(node.left, d, text), _walk(node.right, d, text)
        return lambda xs, betas: rule(a(xs, betas), b(xs, betas), betas)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        name, args = node.func.id, node.args
        if name in _CALLS and len(args) == 1:
            rule, arg = _CALLS[name], _walk(args[0], d, text)
            return lambda xs, betas: rule(arg(xs, betas), betas)
        if name == "indicator":
            if len(args) != 2 * d:
                raise ConfigError("indicator needs lo/hi per axis")
            if not all(_number(a.operand if isinstance(a, ast.UnaryOp) else a) for a in args):
                raise ConfigError(f"indicator bounds must be numbers in {text!r}")
            bounds = [float(_walk(a, d, text)((), [()])[()]) for a in args]
            # values only: ExprFunction refuses indicator, so betas is [0]
            return lambda xs, betas: {betas[0]: np.all(
                [(x >= lo) & (x <= hi) for x, lo, hi in zip(xs, bounds[::2], bounds[1::2])],
                axis=0).astype(float)}
        raise ConfigError(f"function {name} of {len(args)} arguments not in the grammar")
    raise ConfigError(f"cannot parse expression {text!r}: {type(node).__name__} not in the grammar")


def _parse(text: str, d: int):
    """(syntax tree, jet closure) of one grammar string."""
    if not isinstance(text, str):
        raise ConfigError(f"an expression must be a string, got {text!r}")
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    return tree.body, _walk(tree.body, d, text)


def compile_scalar(text: str, d: int):
    """Compile one grammar string to a batch callable (N, d) -> (N,): its
    value, beta = 0 of the walked closure, evaluated as written."""
    jet, zero = _parse(text, d)[1], (0,) * d

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = jet([pts[:, i] for i in range(d)], [zero])[zero]
        return np.broadcast_to(np.asarray(vals, dtype=float), (len(pts),)).copy()

    return evaluate


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


class ExprFunction(BuiltinFunction):
    """Vector of grammar strings, each walked once into a jet closure: one
    factor, whose d^beta reads every closure over the multi-indices below beta."""

    def __init__(self, texts: list[str], d: int):
        parsed = [_parse(t, d) for t in texts]
        if any(isinstance(n, ast.Name) and n.id == "indicator"
               for tree, _ in parsed for n in ast.walk(tree)):
            raise ConfigError("indicator() is not differentiable; not allowed in functions")
        jets = [jet for _, jet in parsed]

        def factor(beta, pts):
            xs, betas = [pts[:, i] for i in range(d)], submultiindices(beta)
            return np.stack([np.broadcast_to(np.asarray(jet(xs, betas)[beta], dtype=float),
                                             (len(pts),)) for jet in jets], axis=1)

        super().__init__([factor], np.ones(len(jets)), d)


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
    return ExprFunction(texts, d)
