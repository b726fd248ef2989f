"""One operation samples f once on its domain grid.

approximate samples f's jet there once; stage 1 builds f~'s jet from it and
psi's, and every later scan reads one of the two. Each stage takes the jet
it reads as a required argument and samples nothing itself. The references in
oracles.py sample each scan's function themselves, as the stages did before
they shared the jets; the shared jets must give the same bits.
"""

import inspect

import numpy as np
import pytest

from finiterank import pipeline
from finiterank.cutoff import apply_cutoff
from finiterank.mollify import find_regularization_order
from finiterank.pipeline import approximate
from finiterank.scenarios import load_scenario
from finiterank.seminorms import find_tail_compact, sample_jet, tail_seminorm
from finiterank.tensorapprox import finite_rank_c0_approx
from finiterank.weights import WeightIndex
from oracles import cutoff_resampling, localization_scans_resampling


def test_f_sampled_once_on_the_scan_grid():
    # every jet call of f on the full domain grid, counting a derivative or
    # value call inside deriv_multi as part of that call
    scn, f = load_scenario("om_finite_1d")
    grid = f.domain.grid_points()
    calls, depth = [], [0]

    def counted(name, fn):
        def wrapper(*args):
            pts = np.atleast_2d(args[-1])
            if depth[0] == 0 and pts.shape == grid.shape and np.array_equal(pts, grid):
                calls.append(name)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for attr in ("deriv_multi", "derivative", "evaluator"):
        setattr(f, attr, counted(attr, getattr(f, attr)))
    _, ledger = approximate(f, scn, WeightIndex(1, 1), "sup", 0.1)
    assert ledger.certified
    assert calls == ["deriv_multi"]


@pytest.mark.parametrize("stage", [find_tail_compact, tail_seminorm, apply_cutoff,
                                   find_regularization_order, finite_rank_c0_approx],
                         ids=lambda fn: fn.__name__)
def test_stages_take_the_jet_they_read(stage):
    # no stage samples f itself: the jet is a keyword argument without a
    # default, so a call that leaves it out fails before any work
    params = inspect.signature(stage).parameters
    assert params["jet"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["jet"].default is inspect.Parameter.empty
    required = [p for p in params.values()
                if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                and p.default is inspect.Parameter.empty]
    with pytest.raises(TypeError, match="'jet'"):
        stage(*[None] * len(required))


def _same_value(a, b):
    return (a.value == b.value and a.empty == b.empty and a.witness_beta == b.witness_beta
            and (a.witness_x is None) == (b.witness_x is None)
            and (a.witness_x is None or np.array_equal(a.witness_x, b.witness_x)))


@pytest.mark.parametrize("name, grid", [("schwartz_1d", None), ("om_finite_1d", None),
                                        ("exhaustion_1d", None), ("exp_strips_2d", None)])
def test_shared_jets_match_resampling(name, grid):
    scn, f = load_scenario(name, grid)
    idx, alpha = WeightIndex(1, 1), scn.seminorm("sup")
    seen = {}

    def cut_off(*args, **kwargs):
        seen["cut"] = (args, kwargs, apply_cutoff(*args, **kwargs))
        return seen["cut"][2]

    def localize(*args, **kwargs):
        seen["loc"] = (args, kwargs, finite_rank_c0_approx(*args, **kwargs))
        return seen["loc"][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "apply_cutoff", cut_off)
        mp.setattr(pipeline, "finite_rank_c0_approx", localize)
        approximate(f, scn, idx, "sup", 0.1)

    # stage 1: the same compact, constants and measurements, and f~'s jet
    # equal to sampling f~ itself
    args, kwargs, (f_tilde, report) = seen["cut"]
    kwargs = {k: v for k, v in kwargs.items() if k != "jet"}
    _, oracle = cutoff_resampling(*args, **kwargs)
    assert report.K == oracle.K
    assert report.Cbeta_table == oracle.Cbeta_table
    assert report.C_l_delta == oracle.C_l_delta
    assert _same_value(report.tail, oracle.tail)
    assert _same_value(report.measured, oracle.measured)
    assert np.array_equal(report.jet, oracle.jet)
    assert np.array_equal(report.jet,
                          sample_jet(f_tilde, idx, f.domain.grid_points()))

    # stage 3: the order-0 scans read the first row of f~'s jet
    (ft, fam, j, _, eps), kwargs, (g, loc) = seen["loc"]
    assert ft is f_tilde and np.array_equal(kwargs["jet"], report.jet[:1])
    K, measured = localization_scans_resampling(f_tilde, g, fam, j, alpha, eps)
    step = float(np.min(f.domain.spacing()))
    assert find_tail_compact(f_tilde, fam, WeightIndex(j, 0), alpha, eps, delta=step,
                             jet=kwargs["jet"]) == K
    assert _same_value(loc.measured, measured)
