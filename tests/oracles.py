"""Independent oracles for fixture values.

These stay deliberately separate from the package's own numerics: adaptive
Simpson instead of tensor midpoint, bisection on closed forms instead of box
scans, and Richardson-checked central differences instead of the analytic
providers. The dense partition formulas are the all-pairs reference for
the package's sparse bump evaluation, and the per-node convolution loop is
the reference for the node-batched one. The package measures differences
as one sampled jet minus another; difference_function builds f - g as one
function instead, for the tests that need to convolve it.
"""

import numpy as np

from finiterank.funcmodel import SampledFunction
from finiterank.geometry import Region
from finiterank.mollify import region_nodes
from finiterank.seminorms import weighted_seminorm


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


def convolve_per_node(f, g, quad, betas, points):
    """(len(betas), N, m) stack of d^beta (f * g) integrated over supp g.

    One call of f per live quadrature node at the points shifted by it, each
    node's term added in node order.
    """
    nodes, weights = region_nodes(g.support, quad.finest_points)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coeffs = np.stack([
        weights * (g.eval_extended(nodes) if sum(b) == 0
                   else g.deriv(tuple(b), nodes))[:, 0]
        for b in betas])
    out = np.zeros((len(betas), len(pts), f.value_dim))
    for q in range(len(nodes)):
        if not np.any(coeffs[:, q] != 0.0):
            continue
        shifted = f.eval_extended(pts - nodes[q])
        for bi in range(len(betas)):
            if coeffs[bi, q] != 0.0:
                out[bi] += coeffs[bi, q] * shifted
    return out
