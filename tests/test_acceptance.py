"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is stated inline; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

import finiterank as fr
from finiterank.cutoff import apply_cutoff
from finiterank.expressions import builtin_function, expr_function_from_strings
from finiterank.funcmodel import sf_from_expr_function, support_estimate
from finiterank.geometry import Region
from finiterank.mollify import (QuadratureSpec, build_mollifier,
                                commutativity_check, convolve,
                                derivative_transfer_check, regularize)
from finiterank.pipeline import approximate, verify_ledger
from finiterank.scenarios import load_scenario, _region_from_cfg
from finiterank.seminorms import difference_seminorm, weighted_seminorm
from finiterank.tensorapprox import (build_partition, finite_rank_c0_approx,
                                     oscillation_cover)
from finiterank.weights import (WeightIndex, check_directed, check_locally_bounded,
                                check_locally_bounded_away_from_zero,
                                check_vanishing_ratio)
from oracles import adaptive_simpson, bisect_root, dense_rescan, fd_step_sweep
import expected


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_mollifier_mass():
    start = time.monotonic()
    worst = 0.0
    for d in (1, 2):
        quad = QuadratureSpec(points_per_axis=64 if d == 1 else 32,
                              refinement_levels=2, tol=1e-6)
        for n in (2, 4, 8):
            moll = build_mollifier(d, n, quad)
            worst = max(worst, abs(moll.mass_check - 1.0))
    elapsed = time.monotonic() - start
    report(1, worst < 1e-6 and elapsed < 10.0,
           f"max |mass - 1| = {worst:.2e} (tol 1e-6), runtime {elapsed:.1f}s < 10s")


def test_criterion_2_convolution_suite():
    quad = QuadratureSpec(points_per_axis=512, refinement_levels=2, tol=1e-6)
    dom = Region.box([-8.0], [8.0], 1601)
    step = dom.spacing()[0]
    moll4 = build_mollifier(1, 4, quad)
    moll1 = build_mollifier(1, 1, quad)

    gauss = sf_from_expr_function(
        builtin_function({"builtin": "gaussian", "amplitude": 1.0, "sigma": 1.0,
                          "e": [1.0, 0.5]}, 1), dom, 6)
    gauss.support = support_estimate(gauss)
    polyg = sf_from_expr_function(
        builtin_function({"builtin": "poly_gaussian", "coeffs": [1.0, 0.5, 0.25],
                          "e": [1.0]}, 1), dom, 6)
    polyg.support = support_estimate(polyg)
    bump = moll1.as_sampled()
    bump.domain = dom

    pairs = [(gauss, moll4), (polyg, moll4), (bump, moll4)]
    sample = np.linspace(-3, 3, 41)[:, None]
    ok = True
    details = []
    for f, moll in pairs:
        rho = moll.as_sampled()
        disc = commutativity_check(f, rho, quad, sample)
        ok &= disc < 10 * quad.tol
        conv = convolve(f, rho, quad, side="g")
        est = support_estimate(conv)
        lo_ok = est.boxes[0].lo[0] >= conv.support.boxes[0].lo[0] - step - 1e-12
        hi_ok = est.boxes[0].hi[0] <= conv.support.boxes[0].hi[0] + step + 1e-12
        ok &= lo_ok and hi_ok
        worst_transfer = 0.0
        for beta in [(0,), (1,), (2,)]:
            rep = derivative_transfer_check(f, moll, beta, sample, quad, fd_step=3e-4)
            worst_transfer = max(worst_transfer, rep.max_discrepancy)
        ok &= worst_transfer < max(10 * quad.tol, 1e-4)
        details.append(f"comm {disc:.1e}, transfer {worst_transfer:.1e}")
    report(2, ok, "; ".join(details) + f" (tols: {10*quad.tol:.0e}, 1e-4)")


def test_criterion_3_regularization_convergence(domain_1d, schwartz_fam, sup_alpha,
                                                gauss_1d, quad):
    start = time.monotonic()
    ft, _ = apply_cutoff(gauss_1d, schwartz_fam, WeightIndex(1, 1), sup_alpha,
                         1e-3, 1.0, domain_1d, quad)
    ok = True
    final = {}
    for l in (0, 1):
        idx = WeightIndex(1, l)
        errors = []
        for n in (2, 4, 8, 16, 32):
            smoothed = regularize(ft, n, quad)
            errors.append(difference_seminorm(ft, smoothed, schwartz_fam,
                                              idx, sup_alpha).value)
        ok &= all(a > b for a, b in zip(errors, errors[1:]))
        ok &= errors[-1] < 1e-2
        final[l] = errors[-1]
    elapsed = time.monotonic() - start
    report(3, ok and elapsed < 60.0,
           f"strictly decreasing, final errors l=0: {final[0]:.2e}, "
           f"l=1: {final[1]:.2e} < 1e-2, runtime {elapsed:.1f}s < 60s")


def test_criterion_4_cutoff_bound(domain_1d, schwartz_fam, sup_alpha, quad):
    rng = np.random.default_rng(42)
    ok = True
    worst_slack = -np.inf
    for trial in range(5):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.4, 1.5)
        c = rng.uniform(-1.5, 1.5)
        fn = expr_function_from_strings(
            [f"{a} * exp(-{b} * x^2)", f"{c} * x * exp(-{b} * x^2)",
             f"{a * c} * x^2 * exp(-{b} * x^2)"], 1)
        f = sf_from_expr_function(fn, domain_1d, order=6)
        l = trial % 3
        idx = WeightIndex(1, l)
        ft, rep = apply_cutoff(f, schwartz_fam, idx, sup_alpha, 0.05, 1.0,
                               domain_1d, quad)
        measured = difference_seminorm(f, ft, schwartz_fam, idx, sup_alpha)
        slack = (1 + rep.C_l_delta) * rep.tail.value + 1e-10 - measured.value
        worst_slack = max(worst_slack, -slack)
        ok &= slack >= 0.0
    report(4, ok, f"measured <= (1 + C_l_delta) tail + 1e-10 on 5 randomized "
                  f"functions, l <= 2 (worst violation {max(worst_slack, 0):.1e})")


def test_criterion_5_partition_identities(domain_1d, schwartz_fam, sup_alpha,
                                          gauss_1d, plane_waves_1d, quad):
    ok = True
    details = []
    fixtures = [(gauss_1d, Region.box([-1.5], [1.5], 301), 0.3),
                (plane_waves_1d, Region.box([-2.0], [2.0], 401), 0.2),
                (plane_waves_1d, Region.box([-2.5], [2.5], 501), 0.05)]
    for f, K, eps in fixtures:
        cover = oscillation_cover(f, K, schwartz_fam, 1, sup_alpha, eps)
        factors, _ = build_partition(cover, K, quad)
        kpts = K.grid_points()
        vals = factors.eval(kpts).T
        sum_err = np.max(np.abs(np.sum(vals, axis=0) - 1.0))
        ok &= sum_err <= 1e-12
        wide = domain_1d.grid_points()
        wvals = factors.eval(wide).T
        ok &= np.all(wvals >= -1e-14)
        ok &= np.all(wvals <= 1.0 + 1e-12)
        ok &= np.all(np.sum(wvals, axis=0) <= 1.0 + 1e-12)
        support_ok = True
        for i in range(cover.n_centers):
            dist = np.linalg.norm(wide - cover.centers[i], axis=1)
            support_ok &= bool(np.all(wvals[i][dist >= cover.radii[i]] == 0.0))
        ok &= support_ok
        details.append(f"sum err {sum_err:.1e}")
    report(5, ok, "partition identities within 1e-12 / 1e-14 on "
                  f"{len(fixtures)} fixtures ({'; '.join(details)})")


def test_criterion_6_localization_bound(plane_waves_1d, schwartz_fam, sup_alpha,
                                        quad, domain_1d):
    ok = True
    details = []
    for eps in (0.2, 0.05):
        g, rep = finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha,
                                       eps, domain_1d, quad)
        ok &= rep.measured.value < 4 * eps
        details.append(f"eps={eps}: |f-g| = {rep.measured.value:.3f} < {4*eps}")
    V = Region.box([-3.5], [3.5], 701)
    g, rep = finite_rank_c0_approx(plane_waves_1d, schwartz_fam, 1, sup_alpha,
                                   0.2, domain_1d, quad, support_constraint=V)
    pts = domain_1d.grid_points()
    outside = ~V.contains(pts)
    # column i of the factor map is phi_i
    constrained = bool(np.all(g.factors.eval_extended(pts)[outside] == 0.0))
    ok &= constrained and rep.measured.value < 4 * 0.2
    report(6, ok, "; ".join(details) + "; constrained factors vanish outside V")


@pytest.mark.parametrize("name,jl", [("schwartz_1d", (1, 1)),
                                     ("exp_strips_2d", (1, 1))])
def test_criterion_7_end_to_end(name, jl):
    start = time.monotonic()
    scn, f = load_scenario(name)
    idx = WeightIndex(*jl)
    result, ledger = approximate(f, scn, idx, "sup", 0.1)
    verification = verify_ledger(result, ledger, f, scn, idx, "sup", refine=2)
    elapsed = time.monotonic() - start
    ok = (ledger.certified
          and ledger.stage_sum() < 0.1
          and verification.domination_ok
          and verification.budget_ok
          and elapsed < 300.0)
    report(7, ok,
           f"{name}: certified={ledger.certified}, stage sum "
           f"{ledger.stage_sum():.4f} < 0.1, stage-3 domination "
           f"{ledger.stage3_measured:.2e} <= {verification.stage3_cap:.2e} "
           f"(slack 10 quad.tol), rank {ledger.rank}, runtime {elapsed:.0f}s < 300s")


@pytest.mark.parametrize("name", ["schwartz_1d", "exhaustion_1d",
                                  "om_finite_1d", "exp_strips_2d"])
def test_criterion_8_weight_audits(name):
    scn, _ = load_scenario(name)
    fam = scn.family
    audit = scn.config["audit"]
    compact = _region_from_cfg(audit["compact"])
    ok = check_directed(fam, scn.domain).passed
    ok &= check_locally_bounded(fam, compact).passed
    ok &= check_locally_bounded_away_from_zero(fam, compact).passed
    detail = "directed/bounded/away-from-zero pass"
    ratio = audit.get("ratio")
    if ratio:
        search = _region_from_cfg(ratio["search"])
        step = search.spacing()[0]
        for pair, predicted in zip(
                ratio["pairs"],
                ratio.get("predicted_halfwidth",
                          ratio.get("predicted_x1_halfwidth", []))):
            K = check_vanishing_ratio(fam, WeightIndex(*pair[0]),
                                      WeightIndex(*pair[1]),
                                      float(ratio["eps"]), search)
            ok &= K is not None
            if K is not None and predicted is not None:
                halfwidth = max(b.hi[0] for b in K.boxes)
                ok &= abs(halfwidth - predicted) <= step + 1e-12
                detail += f"; ratio K x1 halfwidth {halfwidth:.4f} vs {predicted:.4f}"
    report(8, ok, f"{name}: {detail}")


def test_criterion_9_oracle_equivalence(domain_1d, schwartz_fam, sup_alpha, gauss_1d):
    # adaptive quadrature
    bump = lambda x: np.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1 else 0.0
    mass = adaptive_simpson(bump, -1.0, 1.0, tol=1e-9)
    ok = abs(mass - expected.BUMP_MASS_1D) < expected.BUMP_MASS_1D_TOL
    # bisection closed form
    radius = bisect_root(lambda r: np.exp(-r * r) - 1e-3, 0.0, 10.0)
    ok &= abs(radius - expected.GAUSS_TAIL_RADIUS_1E3) < 1e-9
    # 10x-grid seminorm rescan of a pinned value
    sv = weighted_seminorm(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha)
    dense = dense_rescan(gauss_1d, schwartz_fam, WeightIndex(1, 0), sup_alpha, 10)
    ok &= abs(sv.value - 1.0) < 1e-12 and abs(dense.value - 1.0) < 1e-12
    # FD step sweep against the analytic derivative at a fixed point
    val, gap = fd_step_sweep(lambda x: np.exp(-x * x), 0.7, [1e-2, 1e-3, 1e-4])
    analytic = -2 * 0.7 * np.exp(-0.49)
    ok &= abs(val - analytic) < 1e-7 and gap < 1e-6
    report(9, ok, "adaptive Simpson, bisection, 10x rescan and FD sweep "
                  "reproduce the frozen fixture values")
