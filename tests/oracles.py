"""Independent oracles for fixture values.

These stay deliberately separate from the package's own numerics: adaptive
Simpson instead of tensor midpoint, bisection on closed forms instead of box
scans, and Richardson-checked central differences instead of the analytic
providers. The dense partition formulas are the all-pairs reference for
the package's sparse bump evaluation, and oscillation_cover_allpoints,
which reads every ball's radius and update off every certification point,
is the reference for the cover's windowed search. The per-node
convolution loop over the lattice nodes is the reference for the package's
lattice sum, on the lattice, on its shifted copies and at scattered points
(each of which reads a window of its own), and convolve_midpoint, the midpoint
rule the package convolved with before, is the reference for the lattice
rule's accuracy. split_by_unique groups a batch by its offset from the
lattice with np.unique, as the package did before it grouped by one lexsort:
the reference for Lattice.split's groups, rows, shifted origins and J. The
package measures differences as one sampled jet minus another;
difference_function builds f - g as one function instead, for the tests
that need to convolve it; bump_function
is rho_n as a function, for the tests that use it as the f of a
convolution or a cut-off. scaled_result
swaps a result's sum for k f, a wrong answer for the verdict tests.
support_estimate reads a support off the grid, for the tests that build a
function without declaring one. The lemma checks live here too:
commutativity_check sets the package's convolution over supp rho_n against
a per-node sum over supp f, and derivative_transfer_check sets nested central
differences of f * rho_n against both routes of the derivative transfer.
evaluate and eval_weight are checked single-point evaluations of a function
and a weight. bump_profile_masked is the bump's closed form as the package
evaluated it before it worked on the whole batch in place: it gathers the
points inside the rim and evaluates only those, so it is the bit-for-bit
reference for the in-place kernel. sympy_bump and sympy_builtin are the
symbolic forms of the bump's derivatives and of the builtin functions, the
reference for the package's closed forms. sympy_parse reads the config
grammar with sympy: sympy_scalar compiles a weight string with it and
sympy_strings differentiates a string function with it, the references for
the package's syntax-tree walker. cutoff_resampling and
localization_scans_resampling are the cut-off stage and the tensor stage's
order-0 scans as they ran before the stages shared one jet of f: every scan
samples its function on the domain grid itself. They are the reference for
the shared jets, which must give the same bits.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import sympy as sp

from finiterank.cutoff import (CutoffReport, build_cutoff, cutoff_constant, measure_cbeta,
                               multiply_cutoff)
from finiterank.errors import DomainError, GeometryError, OrderError, ResolutionError
from finiterank.funcmodel import FiniteRankFunction, SampledFunction, exp_poly, mi_order
from finiterank.geometry import Box, Region
from finiterank.mollify import (_FLAT_CUTOFF, _OFFSET_QUANTUM, SMOOTH_ORDER, box_nodes,
                                convolve, scan_lattice)
from finiterank.seminorms import (difference_seminorm, find_tail_compact, jet_seminorm,
                                  sample_jet, weighted_seminorm)
from finiterank.tensorapprox import Cover
from finiterank.weights import WeightIndex


def adaptive_simpson(f, a, b, tol=1e-9, max_depth=50):
    def simp(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simp(a, m, fa, flm, fm)
        right = simp(m, b, fm, frm, fb)
        if depth <= 0 or abs(left + right - whole) < 15 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, tol / 2, depth - 1)
                + rec(m, b, fm, frm, fb, right, tol / 2, depth - 1))

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    return rec(a, b, fa, fm, fb, simp(a, b, fa, fm, fb), tol, max_depth)


def bisect_root(g, lo, hi, iters=80):
    """Root of a decreasing g with g(lo) > 0 > g(hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_rescan(f, fam, idx, alpha, factor=10):
    """Seminorm re-scan on a grid refined by the given factor."""
    return weighted_seminorm(f, fam, idx, alpha, grid=f.domain.refine(factor))


def difference_function(f, g):
    """f - g, both zero-extended outside their supports: an evaluator only,
    supported on both supports' boxes."""
    return SampledFunction(
        domain=f.domain, order=0, value_dim=f.value_dim,
        evaluator=lambda pts: f.eval_extended(pts) - g.eval_extended(pts),
        support=Region(f.support.boxes + g.support.boxes, f.domain.points_per_axis),
        name=f"({f.name})-({g.name})")


def scaled_result(result, f, k):
    """result with its sum replaced by k f, so |f - result| is |1 - k| |f|."""
    return FiniteRankFunction(result.factors, result.values, replace(
        f, evaluator=lambda p: k * f.eval(p), derivative=lambda b, p: k * f.deriv(b, p),
        name=f"{k}*({f.name})"))


def richardson_central(f, x, h):
    """First derivative with one Richardson step and an error estimate."""
    def central(h):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    d1, d2 = central(h), central(h / 2.0)
    extrap = (4.0 * d2 - d1) / 3.0
    return extrap, abs(d2 - d1)


def fd_step_sweep(f, x, steps):
    """Central-difference estimates across a step ladder; returns the pair
    with the best mutual agreement (the oracle's final answer and error bar)."""
    vals = [(h, (f(x + h) - f(x - h)) / (2.0 * h)) for h in steps]
    best = None
    for (h1, v1), (h2, v2) in zip(vals, vals[1:]):
        gap = abs(v1 - v2)
        if best is None or gap < best[1]:
            best = (v2, gap)
    return best


def dense_bump_matrix(points, centers, radii):
    """(n_centers, N) bumps exp(-1/(1-|u|^2)), every centre at every point."""
    diffs = (points[None, :, :] - centers[:, None, :]) / radii[:, None, None]
    t = np.einsum("rnd,rnd->rn", diffs, diffs)
    out = np.zeros_like(t)
    mask = t < 1.0 - 1e-8
    out[mask] = np.exp(-1.0 / (1.0 - t[mask]))
    return out


def dense_partition(theta, bumps):
    """theta * b_i / sum(b) on every column whose bump sum is positive."""
    total = np.sum(bumps, axis=0)
    live = total > 0.0
    phis = np.zeros_like(bumps)
    phis[:, live] = theta[live] * bumps[:, live] / total[live]
    return phis


def oscillation_cover_allpoints(f, K, fam, j, alpha, eps, cover_margin=0.0,
                                extra_points=None):
    """The greedy cover with every ball's radius, and every update of the
    distances to the nearest centre, read off every point.

    tensorapprox.oscillation_cover reads one strip of points per centre for
    both; this is the scan it replaced, kept as its reference.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if K.is_empty:
        raise GeometryError("cannot cover an empty compact")
    step = np.max(K.spacing())
    W = K.inflate(f.domain.spacing())
    n_const = 1.0 + float(np.max(fam.eval_batch(WeightIndex(j, 0), W.grid_points())))
    target = eps / n_const

    kpts = K.grid_points()
    pts = kpts if extra_points is None else np.concatenate(
        [kpts, np.atleast_2d(extra_points)])
    vals = f.eval(pts)
    center_ok = K.contains(pts)

    def ball_radius(ci):
        dev = alpha.apply(vals - vals[ci])
        dist = np.linalg.norm(pts - pts[ci], axis=1)
        violating = dev >= target
        if not np.any(violating):
            r = float(np.max(dist)) + step
        else:
            d_viol = float(np.min(dist[violating]))
            d_ok = float(np.max(dist[dist < d_viol]))
            r = 0.5 * (d_ok + d_viol)
        if r < 0.5 * step:
            raise ResolutionError(
                f"oscillation target {target:.3g} needs balls below the grid "
                f"resolution {step:.3g}")
        return r

    first = int(np.argmax(center_ok))
    center_idx = [first]
    radii = [ball_radius(first)]
    dist_to_centers = np.linalg.norm(pts - pts[first], axis=1)
    covered = dist_to_centers + cover_margin < radii[0]
    taken = {first}
    while not np.all(covered):
        cand = np.where(~covered)[0]
        far = int(cand[int(np.argmax(dist_to_centers[cand]))])
        if center_ok[far]:
            pick = far
        else:
            d = np.linalg.norm(pts[center_ok] - pts[far], axis=1)
            pick = int(np.where(center_ok)[0][int(np.argmin(d))])
        if pick in taken:
            raise ResolutionError(
                "cover cannot close: a certification point stays uncovered at "
                f"{pts[far]}; refine the grid or relax the tolerance")
        taken.add(pick)
        center_idx.append(pick)
        r = ball_radius(pick)
        radii.append(r)
        d_new = np.linalg.norm(pts - pts[pick], axis=1)
        covered |= d_new + cover_margin < r
        dist_to_centers = np.minimum(dist_to_centers, d_new)

    return Cover(centers=pts[center_idx], radii=np.asarray(radii),
                 values=vals[center_idx], N_const=n_const, target_osc=target)


def bump_function(moll):
    """rho_n as a scalar function on its 1/n box, with analytic derivatives."""
    r = moll.radius
    support = Region.box((-r,) * moll.d, (r,) * moll.d, 33)

    def derivative(beta, pts):
        return moll.deriv(beta, pts)[:, None]

    return SampledFunction(
        domain=support,
        order=SMOOTH_ORDER,
        value_dim=1,
        evaluator=lambda pts: derivative((0,) * moll.d, pts),
        derivative=derivative,
        support=support,
        name=f"rho_{moll.n}",
    )


def lattice_coefficients(f, moll, quad, betas):
    """(nodes, (len(betas), Q) coefficients) of the lattice rule convolve
    uses for f: w d^beta rho_n(z_q) over the lattice mass, re-derived here."""
    lat = scan_lattice(f.domain, moll, quad)
    nodes = lat.nodes
    cell = float(np.prod(lat.delta))
    mass = float(np.sum(cell * moll.deriv((0,) * f.d, nodes)))
    return nodes, np.stack([cell * moll.deriv(tuple(b), nodes) / mass for b in betas])


def convolve_per_node(f, moll, quad, betas, points):
    """(len(betas), N, m) stack of d^beta (f * rho_n) over the lattice nodes
    in the mollifier's 1/n box.

    One call of f per chunk of live nodes, at the points shifted by each node
    of the chunk (at most 2**16 shifted points, or one node's), and each
    node's term added in node order. f reads each point on its own, so its
    values are those of one call per node.
    """
    nodes, coeffs = lattice_coefficients(f, moll, quad, betas)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(betas), len(pts), f.value_dim))
    live = np.flatnonzero(np.any(coeffs != 0.0, axis=0))
    per_call = max(1, 2**16 // len(pts))
    for start in range(0, len(live), per_call):
        chunk = live[start:start + per_call]
        shifted = f.eval_extended((pts[None] - nodes[chunk, None]).reshape(-1, pts.shape[1]))
        for q, values in zip(chunk, shifted.reshape(len(chunk), len(pts), -1)):
            for bi in range(len(betas)):
                if coeffs[bi, q] != 0.0:
                    out[bi] += coeffs[bi, q] * values
    return out


def split_by_unique(lattice, pts):
    """Lattice.split as np.unique over the offset keys and a stable argsort of
    the group labels: (rows, shifted lattice, J) per group, groups in key
    order, rows in batch order."""
    t = (pts - lattice.origin) / lattice.delta
    frac = t - np.rint(t)
    key = np.rint(frac / _OFFSET_QUANTUM).astype(np.int64)
    _, group = np.unique(key, axis=0, return_inverse=True)
    order = np.argsort(group.ravel(), kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(group.ravel()[order])) + 1):
        shift = np.where(key[rows[0]] == 0, 0.0, np.mean(frac[rows], axis=0))
        J = np.rint(t[rows] - shift).astype(np.int64)
        yield rows, replace(lattice, origin=lattice.origin + shift * lattice.delta), J


def convolve_midpoint(f, moll, quad):
    """f * rho_n by the midpoint rule on the mollifier's 1/n box at
    quad.finest_points nodes per axis, the rule convolve used before its
    nodes moved onto the scan lattice: sum_q w_q d^beta rho_n(z_q) f(x - z_q),
    one node at a time in node order, with the mass that _normalization
    fixes and no lattice renormalization."""
    nodes, weights = box_nodes(moll.support.boxes[0], quad.finest_points)

    def deriv_multi(betas, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((len(betas), len(pts), f.value_dim))
        coeffs = np.stack([weights * moll.deriv(tuple(b), nodes) for b in betas])
        for q in np.flatnonzero(np.any(coeffs != 0.0, axis=0)):
            shifted = f.eval_extended(pts - nodes[q])
            for bi in range(len(betas)):
                if coeffs[bi, q] != 0.0:
                    out[bi] += coeffs[bi, q] * shifted
        return out

    conv = SampledFunction(
        domain=f.domain.inflate(moll.radius), order=SMOOTH_ORDER, value_dim=f.value_dim,
        evaluator=lambda pts: deriv_multi([(0,) * f.d], pts)[0],
        derivative=lambda beta, pts: deriv_multi([tuple(beta)], pts)[0],
        support=None if f.support is None else f.support.inflate(moll.radius),
        name=f"({f.name})*(rho_{moll.n})")
    conv.deriv_multi = deriv_multi
    return conv


def _nested_central(evaluate, beta, points, h):
    axis = next((i for i, b in enumerate(beta) if b > 0), None)
    if axis is None:
        return evaluate(points)
    lower = tuple(b - 1 if i == axis else b for i, b in enumerate(beta))
    shift = np.zeros(points.shape[1])
    shift[axis] = h
    plus = _nested_central(evaluate, lower, points + shift, h)
    minus = _nested_central(evaluate, lower, points - shift, h)
    return (plus - minus) / (2.0 * h)


def fd_derivative_oracle(f, beta, x, h):
    """Nested central differences, independent of any analytic provider."""
    beta = tuple(int(b) for b in beta)
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    margin = mi_order(beta) * h
    stencil_box = Box(tuple(pt[0] - margin), tuple(pt[0] + margin))
    if not f.domain.covers(Region((stencil_box,), f.domain.points_per_axis)):
        raise DomainError("finite-difference stencil leaves the domain")
    return _nested_central(f.eval, beta, pt, h)[0]


def evaluate(f, beta, x):
    """Checked single-point derivative evaluation: the order and the domain."""
    beta = tuple(int(b) for b in beta)
    if mi_order(beta) > f.order:
        raise OrderError(f"|beta|={mi_order(beta)} exceeds function order {f.order}")
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    if not bool(f.domain.contains(pt)[0]):
        raise DomainError(f"point {x} outside the gridded domain")
    return f.deriv(beta, pt)[0]


def eval_weight(fam, idx, x, domain=None):
    """Checked single-point evaluation nu_{j,l}(x)."""
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    if domain is not None and not bool(domain.contains(pt)[0]):
        raise DomainError(f"point {x} outside the declared domain")
    return float(fam.eval_batch(idx, pt)[0])


def region_nodes(region, points_per_axis):
    """Midpoint nodes and weights of every box of a region, in box order."""
    parts = [box_nodes(b, points_per_axis) for b in region.boxes]
    if not parts:
        return np.empty((0, region.d)), np.empty((0,))
    return np.concatenate([n for n, _ in parts]), np.concatenate([w for _, w in parts])


def convolve_over_f(f, moll, quad, points):
    """(f * rho_n)(x) integrated over supp f: sum_q w_q f(y_q) rho_n(x - y_q),
    one node at a time in node order."""
    nodes, weights = region_nodes(f.support, quad.finest_points)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fvals = weights[:, None] * f.eval_extended(nodes)
    out = np.zeros((len(pts), f.value_dim))
    for q in range(len(nodes)):
        gq = moll.deriv((0,) * f.d, pts - nodes[q])
        out += gq[:, None] * fvals[q][None, :]
    return out


def commutativity_check(f, moll, quad, sample_points):
    """max over sample points of p_sup((f*rho_n)(x) - (rho_n*f)(x)).

    The two orientations integrate over supp f and the mollifier's box
    respectively, so they share no quadrature nodes.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    diff = convolve_over_f(f, moll, quad, pts) - convolve(f, moll, quad).eval(pts)
    return float(np.max(np.abs(diff))) if len(pts) else 0.0


@dataclass
class TransferReport:
    """Pairwise sups between the three derivative routes of f * rho_n."""

    fd_vs_kernel: float
    fd_vs_carrier: float
    kernel_vs_carrier: float

    @property
    def max_discrepancy(self):
        return max(self.fd_vs_kernel, self.fd_vs_carrier, self.kernel_vs_carrier)


def derivative_transfer_check(f, moll, beta, sample_points, quad, fd_step=1e-3):
    """Compare (a) finite differences of f*rho_n, (b) f*(d^beta rho_n),
    (c) (d^beta f)*rho_n at the sample points."""
    beta = tuple(int(b) for b in beta)
    if mi_order(beta) > min(f.order, SMOOTH_ORDER):
        raise ValueError("transfer check order exceeds the proven range")
    conv = convolve(f, moll, quad)
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))

    route_fd = _nested_central(conv.eval, beta, pts, fd_step)
    route_kernel = conv.deriv(beta, pts)  # f * d^beta rho by transfer
    df = SampledFunction(domain=f.domain, order=max(f.order - mi_order(beta), 0),
                         value_dim=f.value_dim,
                         evaluator=lambda points: f.deriv_extended(beta, points),
                         support=f.support, name="df")
    route_carrier = convolve(df, moll, quad).eval(pts)

    return TransferReport(
        fd_vs_kernel=float(np.max(np.abs(route_fd - route_kernel))),
        fd_vs_carrier=float(np.max(np.abs(route_fd - route_carrier))),
        kernel_vs_carrier=float(np.max(np.abs(route_kernel - route_carrier))),
    )


def support_estimate(f: SampledFunction, threshold: float = 1e-12) -> Region:
    """Grid-aligned box union covering all points with |f| above threshold*max.

    One bounding box is fitted per domain box, so disjoint components
    separated by distinct domain boxes stay separate.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    step = f.domain.spacing()
    gmax = 0.0
    per_box = []
    for b in f.domain.boxes:
        pts = b.grid(f.domain.points_per_axis)
        vals = np.max(np.abs(f.eval(pts)), axis=1)
        per_box.append((pts, vals))
        if len(vals):
            gmax = max(gmax, float(np.max(vals)))
    if gmax == 0.0:
        return Region.empty(f.d)
    cut = threshold * gmax
    boxes = []
    for (pts, vals), b in zip(per_box, f.domain.boxes):
        mask = vals > cut
        if not np.any(mask):
            continue
        lo = np.maximum(np.min(pts[mask], axis=0) - step, b.lo)
        hi = np.minimum(np.max(pts[mask], axis=0) + step, b.hi)
        boxes.append(Box(tuple(lo), tuple(hi)))
    if not boxes:
        return Region.empty(f.d)
    return Region(tuple(boxes), f.domain.points_per_axis)



class SympyJet:
    """A vector of sympy expressions. d^beta is one sympy.diff of a cached
    lower derivative, compiled with lambdify against numpy."""

    def __init__(self, exprs, xs):
        self.xs = xs
        self.value_dim = len(exprs)
        self._derivs = {(0,) * len(xs): list(exprs)}

    def exprs(self, beta):
        beta = tuple(beta)
        if beta not in self._derivs:
            axis = max(i for i, b in enumerate(beta) if b)
            lower = tuple(b - (i == axis) for i, b in enumerate(beta))
            self._derivs[beta] = [sp.diff(e, self.xs[axis]) for e in self.exprs(lower)]
        return self._derivs[beta]

    def deriv(self, beta, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = sp.lambdify(self.xs, self.exprs(beta), modules=[np])(*pts.T)
        return np.stack([np.broadcast_to(np.asarray(v, dtype=float), (len(pts),))
                         for v in vals], axis=1)

    def eval(self, points):
        return self.deriv((0,) * len(self.xs), points)


def bump_profile_masked(points, beta=None):
    """d^beta exp(-1/(1-|u|^2)) by the recurrence of mollify.bump_profile,
    evaluated on the gathered points with |u|^2 < 1 - cutoff only; the terms
    go through sum() and every other point is 0."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    beta = (0,) * pts.shape[1] if beta is None else tuple(beta)
    t = np.sum(pts * pts, axis=1)
    mask = t < 1.0 - _FLAT_CUTOFF
    s = 1.0 / (1.0 - t[mask])
    phi = np.exp(-s)
    terms = []
    for gamma in itertools.product(*(range(b // 2 + 1) for b in beta)):
        q = exp_poly(sum(beta) - sum(gamma), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        term = phi * np.polyval(q, s) if len(q) > 1 else phi
        for i, (b, g) in enumerate(zip(beta, gamma)):
            if b:
                coeff = math.factorial(b) // (math.factorial(g) * math.factorial(b - 2 * g))
                term = term * (coeff * (2.0 * pts[mask, i]) ** (b - 2 * g))
        terms.append(term)
    out = np.zeros(len(pts))
    out[mask] = sum(terms)
    return out


@functools.cache
def _bump_jet(d):
    xs = sp.symbols(f"u0:{d}")
    return SympyJet([sp.exp(-1 / (1 - sum(x**2 for x in xs)))], xs)


def sympy_bump(points, beta):
    """d^beta exp(-1/(1-|u|^2)) by sympy.diff, zero for |u|^2 >= 1 - 1e-8."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.sum(pts * pts, axis=1) < 1.0 - 1e-8
    out = np.zeros(len(pts))
    out[inside] = _bump_jet(pts.shape[1]).deriv(beta, pts[inside])[:, 0]
    return out


def sympy_builtin(cfg, d):
    """The builtin function of cfg as sympy expressions, differentiated by
    sympy.diff."""
    kind = cfg.get("builtin")
    xs = sp.symbols(f"x1:{d + 1}")
    normsq = sum(x**2 for x in xs)
    amp = sp.Float(cfg.get("amplitude", 1.0))
    if kind == "gaussian":
        base = amp * sp.exp(-normsq / sp.Float(cfg.get("sigma", 1.0))**2)
        return SympyJet([sp.Float(c) * base for c in cfg.get("e", [1.0])], xs)
    if kind == "poly_gaussian":
        poly = sum(sp.Float(c) * xs[0] ** k for k, c in enumerate(cfg.get("coeffs", [1.0])))
        base = amp * poly * sp.exp(-normsq)
        return SympyJet([sp.Float(c) * base for c in cfg.get("e", [1.0])], xs)
    waves = [sp.cos(sp.Float(s) * xs[0]) for s in cfg.get("nodes", [0.0])]
    if kind == "plane_waves":
        env = amp * sp.exp(-normsq / sp.Float(cfg.get("sigma", 1.0))**2)
    elif kind == "strip_waves":
        env = amp
    elif kind == "twin_gaussian_waves":
        sigma, center = sp.Float(cfg.get("sigma", 0.5)), sp.Float(cfg.get("center", 1.2))
        x1, x2 = xs
        env = amp * (sp.exp(-(x1**2 + (x2 - center) ** 2) / (2 * sigma**2))
                     + sp.exp(-(x1**2 + (x2 + center) ** 2) / (2 * sigma**2)))
    else:
        raise ValueError(f"no oracle for builtin {kind!r}")
    return SympyJet([env * w for w in waves], xs)


def sympy_parse(text, xs):
    """A grammar string as a sympy expression in the symbols xs, each
    indicator(lo1, hi1, ...) a product of closed Heaviside gates."""
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    def indicator(*bounds):
        return sp.Mul(*(sp.Heaviside(x - sp.Float(lo), 1) * sp.Heaviside(sp.Float(hi) - x, 1)
                        for x, lo, hi in zip(xs, bounds[::2], bounds[1::2])))

    local = {f"x{i + 1}": x for i, x in enumerate(xs)} | ({"x": xs[0]} if len(xs) == 1 else {})
    local.update(normsq=sum(x**2 for x in xs), exp=sp.exp, abs=sp.Abs, indicator=indicator)
    return parse_expr(text, local_dict=local,
                      transformations=standard_transformations + (convert_xor,))


def sympy_scalar(text, d):
    """A grammar string parsed by sympy and lambdified against numpy: a batch
    callable (N, d) -> (N,)."""
    xs = sp.symbols(f"x1:{d + 1}")
    fn = sp.lambdify(xs, sympy_parse(text, xs), modules=[np])
    return lambda pts: np.broadcast_to(np.asarray(fn(*pts.T), dtype=float), (len(pts),))


def sympy_strings(texts, d):
    """A string function parsed by sympy and differentiated by sympy.diff."""
    xs = sp.symbols(f"x1:{d + 1}")
    return SympyJet([sympy_parse(t, xs) for t in texts], xs)


def cutoff_resampling(f, fam, idx, alpha, eps, delta, omega=None):
    """cutoff.apply_cutoff with every scan sampling f or f~ itself; the
    report's jet is sample_jet of f~ on f's domain grid."""
    domain = f.domain
    if omega is None:
        omega = domain
    K0 = find_tail_compact(f, fam, idx, alpha, eps, delta, omega=omega)
    if K0.is_empty:
        step = domain.spacing()
        b0 = domain.boxes[0]
        center = 0.5 * (np.asarray(b0.lo) + np.asarray(b0.hi))
        K0 = Region((Box(tuple(center - 0.5 * step), tuple(center + 0.5 * step)),),
                    domain.points_per_axis)
    provisional = build_cutoff(K0, delta, omega=omega)
    C = cutoff_constant(measure_cbeta(provisional, delta, idx.l), delta, idx.l)

    K = find_tail_compact(f, fam, idx, alpha, eps / (1.0 + C), delta, omega=omega)
    if K.is_empty or K.volume() == 0.0:
        K = K0
    dom_pts = domain.grid_points()
    near = K.inflate(delta).contains(dom_pts)
    psi = build_cutoff(K, delta, omega=omega)
    Cbeta_table = measure_cbeta(psi, delta, idx.l, extra_points=dom_pts[near])
    C_final = cutoff_constant(Cbeta_table, delta, idx.l)

    f_tilde = multiply_cutoff(psi, f)
    outside = dom_pts[~K.contains(dom_pts)]
    tail = jet_seminorm(sample_jet(f, idx, outside), outside, [f.support], fam, idx, alpha,
                        f.name)
    measured = difference_seminorm(f, f_tilde, fam, idx, alpha)
    return f_tilde, CutoffReport(K, Cbeta_table, C_final, tail, measured,
                                 sample_jet(f_tilde, idx, dom_pts))


def localization_scans_resampling(f, g, fam, j, alpha, eps):
    """The tensor stage's order-0 scans of f, each sampling f itself: the
    tail compact searched at eps and the measured |f - g|."""
    idx = WeightIndex(j, 0)
    step = float(np.min(f.domain.spacing()))
    return (find_tail_compact(f, fam, idx, alpha, eps, delta=step),
            difference_seminorm(f, g.sampled, fam, idx, alpha))
