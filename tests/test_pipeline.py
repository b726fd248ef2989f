import json
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from finiterank import mollify, pipeline
from finiterank.cutoff import apply_cutoff
from finiterank.errors import OrderError, ResolutionError
from finiterank.funcmodel import FiniteRankFunction, SampledFunction, sf_zero
from finiterank.geometry import Region
from finiterank.mollify import build_mollifier, convolve, regularize
from finiterank.pipeline import (ErrorLedger, VerificationReport, approximate,
                                 verify_ledger)
from finiterank.scenarios import load_scenario
from finiterank.seminorms import difference_seminorm, weighted_seminorm
from finiterank.weights import WeightIndex
from oracles import convolve_midpoint, difference_function, domain_jet, scaled_result
import expected


@pytest.fixture(scope="module")
def schwartz_scn():
    return load_scenario("schwartz_1d")


def test_zero_function_certified(schwartz_scn):
    scn, f = schwartz_scn
    z = sf_zero(scn.domain, f.value_dim)
    result, ledger = approximate(z, scn, WeightIndex(1, 1), "sup", 0.1)
    assert result.rank == 0
    assert ledger.certified
    assert ledger.stage1_measured == 0.0
    assert ledger.stage2_measured == 0.0
    assert ledger.stage3_measured == 0.0
    assert ledger.total_measured == 0.0


def test_weight_order_above_the_function_order_is_an_order_error(schwartz_scn):
    # sampling f's jet refuses it and names both orders; approximate used to
    # raise a plain FiniteRankError of its own first
    scn, f = schwartz_scn
    with pytest.raises(OrderError, match=rf"l={f.order + 1} exceeds function order {f.order}"):
        approximate(f, scn, WeightIndex(1, f.order + 1), "sup", 0.1)


def test_structured_input_small_stage1(schwartz_scn, quad):
    # f = phi (x) e with compactly supported smooth phi: once the tail compact
    # swallows supp phi, the cut-off stage is lossless
    scn, _ = schwartz_scn
    moll = build_mollifier(1, 1, scn.quad)
    e = np.array([0.02, -0.01, 0.005, 0.0025])
    f = SampledFunction(domain=scn.domain, order=4, value_dim=4,
                        evaluator=lambda p: moll.deriv((0,), p)[:, None] * e[None, :],
                        derivative=lambda b, p: moll.deriv(b, p)[:, None] * e[None, :],
                        support=Region.box([-1.0], [1.0], scn.domain.points_per_axis[0]),
                        name="bump_tensor_e")
    result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", 0.1)
    assert ledger.stage1_measured <= 1e-12
    assert ledger.certified


def _cut_off(f, scn, idx, eps):
    """f_tilde as stage 1 of approximate(f, scn, idx, "sup", eps) builds it."""
    f_tilde, _ = apply_cutoff(f, scn.family, idx, scn.seminorm("sup"), eps / 3.0,
                              scn.delta_rule(idx), omega=scn.omega_region(),
                              jet=domain_jet(f, idx))
    return f_tilde


def test_schwartz_pinned_run(schwartz_scn):
    scn, f = schwartz_scn
    idx = WeightIndex(1, 1)
    result, ledger = approximate(f, scn, idx, "sup", 0.1)
    assert ledger.certified == expected.PIPELINE_SCHWARTZ["certified"]
    assert ledger.rank == expected.PIPELINE_SCHWARTZ["rank"]
    assert ledger.N2 == expected.PIPELINE_SCHWARTZ["N2"]
    assert ledger.total_measured < 0.1
    assert ledger.total_measured <= ledger.stage_sum() + 1e-10
    # every stage under its third of the budget on this fixture
    assert ledger.stage1_measured < 0.1 / 3
    assert ledger.stage2_measured < 0.1 / 3
    assert ledger.stage3_measured < 0.1 / 3
    # result factors: smooth, compactly supported inside K2 = V + 1/N2
    V = _cut_off(f, scn, idx, 0.1).support.inflate(scn.domain.spacing())
    K2 = V.inflate(1.0 / ledger.N2)
    pts = scn.domain.grid_points()
    outside = ~K2.contains(pts)
    assert result.factors.order >= f.order
    assert result.factors.value_dim == result.rank
    # every column is one factor phi_i * rho
    assert np.all(result.factors.eval_extended(pts)[outside] == 0.0)

    report = verify_ledger(result, ledger, f, scn, idx, "sup", refine=2)
    assert report.domination_ok
    assert report.budget_ok
    assert report.refined_total <= 1.1 * max(report.ledger_total, 1e-15)


@pytest.mark.parametrize("name, eps", [("schwartz_1d", 0.2), ("schwartz_1d", 0.1),
                                       ("schwartz_1d", 0.05), ("om_finite_1d", 0.1),
                                       ("exp_strips_2d", 0.1)])
def test_factor_map_times_values_is_the_sum(name, eps):
    # result.factors, the smoothed map x -> (phi_i * rho)(x), times the
    # values e_i is result.sampled, the smoothed sum, at scan-grid points
    # spread over the result's support
    scn, f = load_scenario(name)
    result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    assert result.rank == ledger.rank > 0
    pts = scn.domain.grid_points()
    pts = pts[result.sampled.support.contains(pts)]
    pts = pts[::max(1, len(pts) // 24)]
    summed = result.factors.eval(pts) @ result.values
    direct = result.sampled.eval(pts)
    assert np.max(np.abs(summed - direct)) <= 1e-12 * np.max(np.abs(direct))


def _counted_run(f, scn, eps):
    """approximate with counts of its convolve and regularize calls, the
    scales and errors the stage-2 search measured, and the scales its history
    holds at the end."""
    calls = {"convolve": 0, "regularize": 0}
    searches = []
    search = pipeline.find_regularization_order

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded_search(*args, **kwargs):
        # the scales the search itself measured, before approximate adds any
        n, history = search(*args, **kwargs)
        searches.append(([(k, s.error) for k, s in history.scales.items()], history))
        return n, history

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "convolve", counted("convolve", convolve))
        mp.setattr(mollify, "regularize", counted("regularize", regularize))
        mp.setattr(pipeline, "find_regularization_order", recorded_search)
        result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    (searched, history), = searches
    return result, ledger, calls, (searched, list(history.scales))


@pytest.fixture(scope="module")
def counted_runs(schwartz_scn):
    scn, f = schwartz_scn
    return {eps: _counted_run(f, scn, eps) for eps in (0.2, 0.1)}


def test_smoothing_convolutions_independent_of_rank(counted_runs):
    # the result is one factor map and one sum, each convolved once
    ranks = [counted_runs[eps][0].rank for eps in (0.2, 0.1)]
    counts = [counted_runs[eps][2]["convolve"] for eps in (0.2, 0.1)]
    assert ranks == [21, 45]
    assert counts[0] == counts[1]


def test_stage2_reuses_search_history(counted_runs):
    _, ledger, calls, (searched, held) = counted_runs[0.1]
    assert ledger.N0 == ledger.N2 == searched[-1][0]
    assert held == [n for n, _ in searched]
    assert calls["regularize"] == len(held)
    assert ledger.stage2_measured == searched[-1][1]


def test_each_mollifier_built_once_per_operation(schwartz_scn, monkeypatch):
    # stage 3 reads C3 from the rho_N2 that stage 2's regularize built, so no
    # scale's mass check and derivative probes run twice
    scn, f = schwartz_scn
    built = []

    class Counted(mollify.Mollifier):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.n)

    monkeypatch.setattr(mollify, "Mollifier", Counted)
    mollify.build_mollifier.cache_clear()
    try:
        _, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", 0.2)
    finally:
        mollify.build_mollifier.cache_clear()
    assert ledger.N2 in built
    assert len(built) == len(set(built))


def test_stage2_scans_scales_beyond_history(schwartz_scn):
    # an omega tight around V forces N1 > N0, a scale the search never tried
    scn, f = schwartz_scn
    idx, eps = WeightIndex(1, 1), 0.1
    V = _cut_off(f, scn, idx, eps).support.inflate(scn.domain.spacing())
    tight = replace(scn, omega=V.inflate(0.3))
    _, ledger, calls, (searched, held) = _counted_run(f, tight, eps)
    assert ledger.N1 == 4 > ledger.N0
    assert ledger.N2 in (max(ledger.N0, ledger.N1) * 2 ** k for k in range(6))
    tried = dict(searched)
    fresh = [n for n in (4, 8, 16, 32, 64) if n <= ledger.N2 and n not in tried]
    assert held == [*tried, *fresh] and fresh
    assert calls["regularize"] == len(held)
    f_tilde = _cut_off(f, tight, idx, eps)
    smoothed = regularize(f_tilde, ledger.N2, scn.quad)
    direct = difference_seminorm(f_tilde, smoothed, scn.family, idx, scn.seminorm("sup"))
    assert ledger.stage2_measured == direct.value


def test_no_scan_tests_a_union_of_supports(schwartz_scn):
    # each difference is measured as one sampled jet minus another, so no
    # support test sees two functions' supports joined into one region
    scn, f = schwartz_scn
    idx = WeightIndex(1, 1)
    boxes = []
    contains = Region.contains

    def counted(region, points, *args, **kwargs):
        boxes.append(len(region.boxes))
        return contains(region, points, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Region, "contains", counted)
        result, ledger = approximate(f, scn, idx, "sup", 0.2)
        verify_ledger(result, ledger, f, scn, idx, "sup", refine=2)
    assert boxes and max(boxes) == 1


def _recorded_run(f, scn, eps):
    """approximate, recording f_tilde, g, the smoothed functions regularize
    returned, the convolutions that evaluated f_tilde at shifted points and
    how often each convolution was evaluated."""
    seen = {}
    open_convs, through, evaluations, regularized = [], {}, Counter(), []
    localize = pipeline.finite_rank_c0_approx

    def cut_off(*args, **kwargs):
        f_tilde, report = apply_cutoff(*args, **kwargs)
        plain = f_tilde.deriv_multi

        def deriv_multi(betas, pts):
            if open_convs:
                through[id(open_convs[-1])] = open_convs[-1]
            return plain(betas, pts)

        f_tilde.deriv_multi = deriv_multi
        seen["f_tilde"] = f_tilde
        return f_tilde, report

    def tracked_convolve(*args, **kwargs):
        conv = convolve(*args, **kwargs)
        plain = conv.deriv_multi

        def deriv_multi(betas, pts):
            evaluations[id(conv)] += 1
            open_convs.append(conv)
            try:
                return plain(betas, pts)
            finally:
                open_convs.pop()

        conv.deriv_multi = deriv_multi
        return conv

    def tracked_regularize(*args, **kwargs):
        regularized.append(regularize(*args, **kwargs))
        return regularized[-1]

    def recorded_localize(*args, **kwargs):
        seen["g"], report = localize(*args, **kwargs)
        return seen["g"], report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "apply_cutoff", cut_off)
        mp.setattr(pipeline, "finite_rank_c0_approx", recorded_localize)
        for module in (pipeline, mollify):
            mp.setattr(module, "convolve", tracked_convolve)
            mp.setattr(module, "regularize", tracked_regularize)
        _, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    return ledger, seen, regularized, through, evaluations


@pytest.fixture(scope="module")
def recorded_runs(schwartz_scn):
    # eps 0.2 on the shipped scenario, and eps 0.1 with an omega tight around
    # V, which forces N1 > N0 so that approximate measures scales itself
    scn, f = schwartz_scn
    V = _cut_off(f, scn, WeightIndex(1, 1), 0.1).support.inflate(
        scn.domain.spacing())
    tight = replace(scn, omega=V.inflate(0.3))
    return {"shipped": (scn, _recorded_run(f, scn, 0.2)),
            "tight": (tight, _recorded_run(f, tight, 0.1))}


@pytest.mark.parametrize("run", ["shipped", "tight"])
def test_stage3_equals_direct_scan(recorded_runs, run):
    # stage 3 read by linearity from f_tilde * rho and g * rho matches the
    # scan of the convolved difference
    scn, (ledger, seen, _, _, _) = recorded_runs[run]
    moll = build_mollifier(1, ledger.N2, scn.quad)
    direct = weighted_seminorm(
        convolve(difference_function(seen["f_tilde"], seen["g"].sampled), moll, scn.quad),
        scn.family, WeightIndex(1, 1), scn.seminorm("sup"), grid=scn.domain)
    assert ledger.stage3_measured == pytest.approx(direct.value, rel=1e-12, abs=0.0)
    assert ledger.stage3_measured > 0.0


@pytest.mark.parametrize("run", ["shipped", "tight"])
def test_f_tilde_convolved_once_per_stage2_scale(recorded_runs, run):
    # f_tilde reaches shifted points only through the smoothed functions of
    # the scales stage 2 measures, each evaluated once; stage 3 convolves
    # nothing of it
    _, (ledger, _, regularized, through, evaluations) = recorded_runs[run]
    assert set(through) == {id(s) for s in regularized}
    assert all(evaluations[key] == 1 for key in through)
    assert regularized[-1].name.endswith(f"(rho_{ledger.N2})")
    if run == "tight":
        assert ledger.N1 > ledger.N0


def test_verify_rejects_refine_below_one(counted_runs, schwartz_scn):
    # refine 0 or -1 would collapse the fine grid to one point per axis
    scn, f = schwartz_scn
    result, ledger, _, _ = counted_runs[0.2]
    for refine in (0, -1):
        with pytest.raises(ValueError, match="refine"):
            verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup",
                          refine=refine)


def test_verify_refuses_another_index_or_seminorm(counted_runs, schwartz_scn):
    # a (1, 0) re-measurement of a (1, 1) ledger would compare another
    # seminorm's value with the ledger's eps
    scn, f = schwartz_scn
    result, ledger, _, _ = counted_runs[0.2]
    for idx, lg in ((WeightIndex(1, 0), ledger), (WeightIndex(2, 1), ledger),
                    (WeightIndex(1, 1), replace(ledger, alpha="l2"))):
        with pytest.raises(ValueError, match="ledger is for"):
            verify_ledger(result, lg, f, scn, idx, "sup")
    # an index read back from JSON is a list and still matches
    report = verify_ledger(result, replace(ledger, index=list(ledger.index)), f, scn,
                           WeightIndex(1, 1), "sup")
    assert report.certified


def test_verify_measures_given_result(counted_runs, schwartz_scn):
    # refined_total is |f - result|; with a zero result it is |f| itself
    scn, f = schwartz_scn
    idx = WeightIndex(1, 1)
    result, ledger, _, _ = counted_runs[0.2]
    zero = FiniteRankFunction(result.factors, result.values,
                              sf_zero(scn.domain, f.value_dim))
    report = verify_ledger(zero, ledger, f, scn, idx, "sup", refine=2)
    full = weighted_seminorm(f, scn.family, idx, scn.seminorm("sup"),
                             grid=scn.domain.refine(2))
    assert report.refined_total == full.value
    assert report.refined_total > 2 * ledger.total_measured


def test_verify_needs_only_ledger_fields(counted_runs, schwartz_scn):
    # a ledger rebuilt from the numbers alone (as if read back from disk)
    # verifies exactly like the one approximate returned
    scn, f = schwartz_scn
    idx = WeightIndex(1, 1)
    result, ledger, _, _ = counted_runs[0.2]
    numeric = {fld.name: getattr(ledger, fld.name) for fld in fields(ErrorLedger)
               if isinstance(getattr(ledger, fld.name), (int, float, str, tuple))}
    rebuilt = ErrorLedger(**numeric)
    report = verify_ledger(result, rebuilt, f, scn, idx, "sup", refine=2)
    assert report == verify_ledger(result, ledger, f, scn, idx, "sup", refine=2)
    assert report.domination_ok and report.budget_ok
    assert report.certified and report.failed_checks == []


def test_verdict_fails_when_domination_fails(counted_runs, schwartz_scn):
    # a ledger whose tensor stage claims far less than stage 3 measured
    scn, f = schwartz_scn
    result, ledger, _, _ = counted_runs[0.2]
    shrunk = replace(ledger, tensor_measured=ledger.tensor_measured * 1e-3)
    report = verify_ledger(result, shrunk, f, scn, WeightIndex(1, 1), "sup", refine=2)
    assert shrunk.certified and report.budget_ok
    assert report.stage3_measured > report.stage3_cap + report.stage3_slack
    assert not report.domination_ok
    assert not report.certified and report.failed_checks == ["domination"]
    assert report.to_json_dict()["failed_checks"] == ["domination"]


def test_verdict_fails_when_refined_total_misses_eps(counted_runs, schwartz_scn):
    # the ledger was measured on the untampered result; only the refined
    # re-measurement sees the wrong one
    scn, f = schwartz_scn
    result, ledger, _, _ = counted_runs[0.2]
    report = verify_ledger(scaled_result(result, f, 100.0), ledger, f, scn,
                           WeightIndex(1, 1), "sup", refine=2)
    assert ledger.certified and report.domination_ok and report.budget_ok
    assert report.refined_total >= ledger.eps
    assert not report.certified and report.failed_checks == ["refined_total"]


def test_monotone_budget_stage1_compact(schwartz_scn):
    scn, f = schwartz_scn
    idx = WeightIndex(1, 1)
    _, tight = approximate(f, scn, idx, "sup", 0.05)
    _, loose = approximate(f, scn, idx, "sup", 0.1)
    hi_t = tight.stage1_K.boxes[0].hi[0]
    hi_l = loose.stage1_K.boxes[0].hi[0]
    assert hi_t >= hi_l - 1e-12
    assert tight.rank >= loose.rank


def test_uncertified_run_returns_ledger(schwartz_scn):
    scn, f = schwartz_scn
    _, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", 0.1)
    assert ledger.certified  # sanity on the fine grid
    # an eps far below the grid's resolution fails with the tagged error the
    # CLI maps to exit code 4: the cover needs balls below the grid spacing
    with pytest.raises(ResolutionError, match="below the grid resolution"):
        approximate(f, scn, WeightIndex(1, 1), "sup", 2e-4)


def test_ledger_serialization_stable(schwartz_scn):
    scn, f = schwartz_scn
    _, ledger = approximate(f, scn, WeightIndex(1, 0), "sup", 0.2)
    text1 = ledger.to_json()
    data = json.loads(text1)
    assert list(data) == sorted(data)
    _, ledger2 = approximate(f, scn, WeightIndex(1, 0), "sup", 0.2)
    assert ledger2.to_json() == text1
    rows = ledger.to_csv().splitlines()
    assert rows[0] == "stage,budget,measured,constants"
    assert len(rows) == 5


LEDGER_FLOATS = {
    "C1": 1.0, "C2": 2.316916053723138, "C3": 3.3142922166240734,
    "mollifier_mass": 1.0, "mollifier_normC": 2.2522836210435586,
    "stage1_C_l_delta": 4.314275359476401, "stage1_delta": 1.0,
    "stage1_measured": 0.007958162449922273,
    "stage1_tail": 0.012523595731068225,
    "stage2_measured": 0.005749479246413475,
    "stage3_measured": 0.002863308591943674,
    "tensor_eps": 0.008681757387253535,
    "tensor_measured": 0.002000512771666282,
    "total_bound": 0.016570950288279422,
    "total_measured": 0.004081762303411737,
}


def _ledger(rel: float) -> ErrorLedger:
    # every float field scaled by (1 + rel): last-bit platform noise
    bump = lambda x: x * (1.0 + rel)
    ledger = ErrorLedger(eps=0.2, index=(1, 1), alpha="sup", certified=True,
                         N0=2, N1=1, N2=2, aux_index=1, rank=21,
                         **{k: bump(v) for k, v in LEDGER_FLOATS.items()})
    ledger.stage1_K = Region.box([bump(-0.8300000000000001)],
                                 [bump(0.8300000000000001)], 101)
    return ledger


def test_serialized_ledger_ignores_last_bit_differences():
    a, b = _ledger(0.0), _ledger(2e-14)
    assert a.stage1_C_l_delta != b.stage1_C_l_delta  # memory keeps every bit
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    data = json.loads(a.to_json())
    for key, value in LEDGER_FLOATS.items():
        assert isinstance(data[key], float)
        assert data[key] == pytest.approx(value, rel=1e-9)
    assert data["eps"] == 0.2
    assert data["stage1_K_boxes"] == [[[-0.83], [0.83]]]
    assert "C_l_delta=4.314275359;" in a.to_csv()

    def report(rel):
        return VerificationReport(
            refined_total=0.004081762303411737 * (1 + rel),
            ledger_total=0.004081762303411737 * (1 + rel),
            stage3_measured=0.002863308591943674 * (1 + rel),
            stage3_cap=0.02863308591943674 * (1 + rel),
            stage3_slack=1e-5 * (1 + rel),
            domination_ok=True, budget_ok=True, certified=True, failed_checks=[])
    ra, rb = report(0.0).to_json_dict(), report(2e-14).to_json_dict()
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert all(isinstance(ra[k], float) for k in
               ("refined_total", "ledger_total", "stage3_measured", "stage3_cap",
                "stage3_slack"))
    assert ra["domination_ok"] is True


def test_verify_off_the_lattice_certifies(counted_runs, schwartz_scn):
    # refine=3 puts the fine grid at h/3, off the convolution lattice's h/8
    # steps: its points lie on 3 shifted copies of the lattice, where the
    # refine=2 grid lies on the lattice itself
    scn, f = schwartz_scn
    result, ledger, _, _ = counted_runs[0.2]
    lattice = mollify.scan_lattice(scn.domain, build_mollifier(1, ledger.N2, scn.quad),
                                   scn.quad)
    assert len(list(lattice.split(scn.domain.refine(3).grid_points()))) == 3
    (_, on, _), = lattice.split(scn.domain.refine(2).grid_points())
    assert np.array_equal(on.origin, lattice.origin)
    report = verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup", refine=3)
    assert report.certified, report.failed_checks


@pytest.mark.parametrize("name, eps", [("schwartz_1d", 0.2), ("om_finite_1d", 0.1)])
def test_every_convolved_batch_is_one_lattice_group(name, eps, monkeypatch):
    # every scan grid and the refine=2 verification grid lie on the scan
    # lattice itself, so each batch a convolution sums is one group with the
    # lattice's own origin; scattered points, a group each, are no workload
    scn, f = load_scenario(name)
    split = mollify.Lattice.split
    calls = []

    def recorded(self, pts):
        groups = list(split(self, pts))
        calls.append((self.origin, [lattice.origin for _, lattice, _ in groups]))
        yield from groups

    monkeypatch.setattr(mollify.Lattice, "split", recorded)
    result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup", refine=2)
    assert calls
    for origin, (group_origin, *others) in calls:
        assert not others
        assert np.array_equal(group_origin, origin)


def test_verify_samples_g_on_the_ledger_window_once(monkeypatch):
    # approximate's scan of g * rho_N2 on the domain grid and the verifier's
    # refine=2 scan read one lattice window of g, 3,599 points of step
    # 0.00125 from lattice index 3001, which the convolution samples once
    scn, f = load_scenario("om_finite_1d")
    sample = mollify._sample_window
    windows = []

    def recorded(g, lattice, lo, shape):
        if g.name == "finite_rank":
            windows.append((lo.tolist(), shape))
        return sample(g, lattice, lo, shape)

    monkeypatch.setattr(mollify, "_sample_window", recorded)
    result, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", 0.1)
    assert windows == [([3001], (3599,))]
    verify_ledger(result, ledger, f, scn, WeightIndex(1, 1), "sup", refine=2)
    assert len(windows) == 1


def test_held_window_gives_the_fresh_refined_total(monkeypatch):
    # the refined total and its witness read from the result's sum, whose
    # convolution holds the window approximate read, are bit for bit those of
    # a fresh convolution of g, which holds nothing
    scn, f = load_scenario("om_finite_1d")
    idx, alpha = WeightIndex(1, 1), scn.seminorm("sup")
    convolved = {}

    def recorded(g, moll, quad):
        convolved[g.name] = (g, moll, quad)
        return convolve(g, moll, quad)

    monkeypatch.setattr(pipeline, "convolve", recorded)
    result, _ = approximate(f, scn, idx, "sup", 0.1)
    fresh = convolve(*convolved["finite_rank"])
    sample = mollify._sample_window
    windows = []
    monkeypatch.setattr(mollify, "_sample_window",
                        lambda *a: windows.append(a[3]) or sample(*a))
    fine = scn.domain.refine(2)
    held = difference_seminorm(f, result.sampled, scn.family, idx, alpha, grid=fine)
    assert not windows
    new = difference_seminorm(f, fresh, scn.family, idx, alpha, grid=fine)
    assert len(windows) == 1
    assert held.value == new.value
    assert held.witness_x.tobytes() == new.witness_x.tobytes()
    assert held.witness_beta == new.witness_beta


def _smoothing_values(name, eps, quad_points=None):
    """(stage3_measured, total_measured) of the reference operation, with the
    midpoint oracle in place of convolve at quad_points nodes when given."""
    scn, f = load_scenario(name)
    with pytest.MonkeyPatch.context() as mp:
        if quad_points is not None:
            scn = replace(scn, quad=replace(scn.quad, points_per_axis=quad_points))
            for module in (mollify, pipeline):
                mp.setattr(module, "convolve", convolve_midpoint)
        _, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", eps)
    return ledger.stage3_measured, ledger.total_measured


def test_midpoint_oracle_reproduces_pinned_smoothing():
    # the oracle behind both pinned columns, at the cheapest operation
    for points, pinned in ((64, expected.SMOOTHING_MIDPOINT_256),
                           (1024, expected.SMOOTHING_CONVERGED)):
        got = _smoothing_values("schwartz_1d", 0.2, points)
        assert got == pytest.approx(pinned[("schwartz_1d", 0.2)], rel=1e-9)


@pytest.mark.parametrize("name,eps", list(expected.SMOOTHING_CONVERGED))
def test_lattice_smoothing_closer_to_converged(name, eps):
    # the lattice rule lands nearer the converged values than the 256-node
    # midpoint rule did, in stage 3 and in the total
    got = _smoothing_values(name, eps)
    for new, converged, midpoint in zip(got, expected.SMOOTHING_CONVERGED[(name, eps)],
                                        expected.SMOOTHING_MIDPOINT_256[(name, eps)]):
        assert abs(new - converged) < abs(midpoint - converged)
