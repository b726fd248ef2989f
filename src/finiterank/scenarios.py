"""Scenario configs: JSON in, runnable Scenario + sample function out.

The registry ships the four worked weight setups (compact exhaustion,
rapidly-decreasing, finite multiplier gauges, exponential strips) as data
files, not code.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, GeometryError
from .expressions import builtin_function, expr_function_from_strings
from .funcmodel import SampledFunction, SeminormIndex, sf_from_expr_function
from .geometry import Box, Region
from .mollify import QuadratureSpec
from .pipeline import Scenario
from .weights import (WeightFamily, WeightIndex, custom_family, exhaustion_family,
                      exp_strips_family, om_finite_family, schwartz_family)

REGISTRY = ("schwartz_1d", "exhaustion_1d", "om_finite_1d", "exp_strips_2d")


def _region_from_cfg(cfg: dict, grid_override: Optional[int] = None) -> Region:
    try:
        boxes = tuple(Box(tuple(map(float, lo)), tuple(map(float, hi)))
                      for lo, hi in cfg["boxes"])
    except (TypeError, ValueError, GeometryError) as exc:
        # lo > hi, corners of different lengths, a scalar where a list belongs
        raise ConfigError(f"malformed region boxes {cfg['boxes']!r}: {exc}") from exc
    if not boxes:
        raise ConfigError("a region needs at least one box")
    ppa = cfg.get("points_per_axis", 101)
    for n in (ppa, grid_override):
        # one point per axis collapses the grid, so every scan on it is vacuous
        if n is not None and np.min(n) < 2:
            raise ConfigError(f"a grid needs at least 2 points per axis, got {n}")
    region = Region.from_bounds([b.lo for b in boxes], [b.hi for b in boxes], ppa)
    if grid_override is not None:
        region = region.with_resolution(grid_override)
    return region


def _family_from_cfg(cfg: dict, domain: Region) -> WeightFamily:
    kind = cfg.get("kind")
    k_max = int(cfg.get("k_max", 2))
    if kind == "schwartz":
        return schwartz_family(k_max, int(cfg.get("j_max", 3)), domain.d)
    if kind == "exhaustion":
        omegas = {}
        for key, boxes in cfg["omega_j"].items():
            omegas[int(key)] = _region_from_cfg(
                {"boxes": boxes, "points_per_axis": domain.points_per_axis})
        return exhaustion_family(k_max, omegas)
    if kind == "exp_strips":
        if domain.d != 2:
            raise ConfigError("exp_strips weights need a 2d domain")
        return exp_strips_family(k_max, int(cfg.get("j_max", 6)),
                                 points_per_axis=domain.points_per_axis)
    if kind == "om_finite":
        return om_finite_family(k_max, cfg["gauge_sets"], domain.d)
    if kind == "custom":
        exprs = {}
        for key, text in cfg["entries"].items():
            j, l = (int(part) for part in key.split(","))
            exprs[(j, l)] = text
        return custom_family(k_max, exprs, domain.d)
    raise ConfigError(f"unknown weight family kind {kind!r}")


def _audit_from_cfg(cfg: dict, domain: Region, fam: WeightFamily) -> tuple[Region, list]:
    """The audit compact (the domain if none is given) and the ratio checks."""
    compact = _region_from_cfg(cfg["compact"]) if "compact" in cfg else domain
    ratio = cfg.get("ratio")
    if not ratio:
        return compact, []
    eps = float(ratio["eps"])
    if not 0 < eps < math.inf:
        raise ConfigError(f"audit ratio eps must be finite and positive, got {eps}")
    pairs = [(WeightIndex(*jl), WeightIndex(*im)) for jl, im in ratio["pairs"]]
    if any((idx.j, idx.l) not in fam.entries for pair in pairs for idx in pair):
        raise ConfigError(f"audit ratio pairs {ratio['pairs']} name a weight outside the family")
    search = _region_from_cfg(ratio["search"])
    return compact, [(jl, im, eps, search) for jl, im in pairs]


def _seminorms_from_cfg(cfg: dict) -> dict[str, SeminormIndex]:
    # SeminormIndex rejects an unknown kind and a degenerate subset or weight
    return {name: SeminormIndex(spec.get("kind", "sup_all"),
                                subset=tuple(map(int, spec.get("subset", ()))),
                                coord_weights=tuple(map(float, spec.get("coord_weights", ()))))
            for name, spec in cfg.items()}


def _check_value_dim(seminorms: dict[str, SeminormIndex], m: int) -> None:
    """f has a coordinate, and every subset index and coordinate weight names
    one of its m coordinates."""
    if m < 1:
        raise ConfigError("the function needs at least one value coordinate")
    for name, alpha in seminorms.items():
        if alpha.kind == "sup_subset" and max(alpha.subset) >= m:
            raise ConfigError(f"seminorm {name!r} selects coordinate {max(alpha.subset)} "
                              f"of a function with {m}")
        if alpha.kind == "weighted_sup" and len(alpha.coord_weights) != m:
            raise ConfigError(f"seminorm {name!r} has {len(alpha.coord_weights)} weights "
                              f"for {m} coordinates")


def _delta_value(value) -> float:
    value = float(value)
    if not 0 < value < math.inf:
        raise ConfigError(f"delta must be finite and positive, got {value}")
    return value


def _delta_rule_from_cfg(cfg: dict):
    kind = cfg.get("kind", "fixed")
    if kind == "fixed":
        value = _delta_value(cfg["value"])
        return lambda idx: value
    if kind == "strip_margin":
        # safety margin 1/(2j+2) for the strip family
        return lambda idx: 1.0 / (2 * idx.j + 2)
    if kind == "exhaustion_gap":
        gaps = {int(k): _delta_value(v) for k, v in cfg["values"].items()}
        return lambda idx: gaps[idx.j]
    raise ConfigError(f"unknown delta rule {kind!r}")


def _function_from_cfg(cfg: dict, domain: Region, order: int) -> SampledFunction:
    if "builtin" in cfg:
        fn = builtin_function(cfg, domain.d)
    elif "expressions" in cfg:
        fn = expr_function_from_strings(cfg["expressions"], domain.d)
    else:
        raise ConfigError("function config needs 'builtin' or 'expressions'")
    return sf_from_expr_function(fn, domain, order, name=cfg.get("name", "scenario_fn"))


def scenario_from_dict(cfg: dict, grid_override: Optional[int] = None
                       ) -> tuple[Scenario, SampledFunction]:
    try:
        domain = _region_from_cfg(cfg["domain"], grid_override)
        fam = _family_from_cfg(cfg["family"], domain)
        seminorms = _seminorms_from_cfg(cfg.get("seminorms", {"sup": {"kind": "sup_all"}}))
        quad_cfg = cfg.get("quad", {})
        if quad_cfg.get("rule", "midpoint") != "midpoint":
            raise ConfigError(f"unknown quadrature rule {quad_cfg['rule']!r}")
        quad = QuadratureSpec(
            points_per_axis=int(quad_cfg.get("points_per_axis", 64)),
            refinement_levels=int(quad_cfg.get("refinement_levels", 2)),
            tol=float(quad_cfg.get("tol", 1e-6)),
        )
        order = int(cfg.get("order", 2))
        omega = _region_from_cfg(cfg["omega"]) if "omega" in cfg else None
        audit_compact, audit_ratios = _audit_from_cfg(cfg.get("audit", {}), domain, fam)
        n_max = int(cfg.get("n_max", 64))
        if n_max < 2:
            # the regularization search starts at n = 2
            raise ConfigError(f"n_max must be at least 2, got {n_max}")
        scn = Scenario(
            name=cfg.get("name", "unnamed"),
            family=fam,
            domain=domain,
            seminorms=seminorms,
            delta_rule=_delta_rule_from_cfg(cfg.get("delta", {"kind": "fixed", "value": 1.0})),
            n_max=n_max,
            quad=quad,
            omega=omega,
            config=cfg,
            audit_compact=audit_compact,
            audit_ratios=audit_ratios,
        )
        f = _function_from_cfg(cfg["function"], domain, order) if "function" in cfg else None
        if f is not None:
            _check_value_dim(seminorms, f.value_dim)
        return scn, f
    except KeyError as exc:
        raise ConfigError(f"scenario config missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        # a malformed value: a bad number, a scalar where a list belongs
        raise ConfigError(str(exc)) from exc


def load_scenario(source: str | Path, grid_override: Optional[int] = None
                  ) -> tuple[Scenario, SampledFunction]:
    """Load from a config file path or a registry name; anything else at
    that path (a directory, say) is not a config file."""
    path = Path(source)
    if path.is_file():
        try:
            cfg = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            # unreadable, not UTF-8, or not JSON
            raise ConfigError(f"cannot read scenario file {str(source)!r}: {exc}") from exc
    elif str(source) in REGISTRY:
        text = resources.files("finiterank").joinpath(f"configs/{source}.json").read_text()
        cfg = json.loads(text)
    else:
        raise ConfigError(f"scenario {source!r} is neither a file nor a registry name")
    return scenario_from_dict(cfg, grid_override)
