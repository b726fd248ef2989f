"""Certified finite-rank approximation of vector-valued smooth functions
in weighted sup-seminorms."""

from .funcmodel import FiniteRankFunction, SampledFunction, SeminormIndex, multiindex_binom
from .geometry import Box, Region
from .mollify import (Mollifier, QuadratureSpec, build_mollifier, convolve,
                      find_regularization_order, regularize)
from .cutoff import apply_cutoff, build_cutoff, cutoff_constant, measure_cbeta
from .pipeline import ErrorLedger, Scenario, approximate, verify_ledger
from .seminorms import (SeminormValue, difference_seminorm, find_tail_compact,
                        tail_seminorm, weighted_seminorm)
from .scenarios import load_scenario, scenario_from_dict
from .tensorapprox import (Cover, build_partition, finite_rank_c0_approx,
                           oscillation_cover)
from .weights import (WeightFamily, WeightIndex, check_directed,
                      check_locally_bounded,
                      check_locally_bounded_away_from_zero,
                      check_vanishing_ratio, exhaustion_family,
                      exp_strips_family, om_finite_family, schwartz_family)

__version__ = "0.1.0"
