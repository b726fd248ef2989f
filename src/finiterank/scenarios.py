"""Scenario configs: JSON in, runnable Scenario + sample function out.

The registry ships the four worked weight setups (compact exhaustion,
rapidly-decreasing, finite multiplier gauges, exponential strips) as data
files, not code.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .expressions import builtin_function, expr_function_from_strings
from .funcmodel import SampledFunction, SeminormIndex, sf_from_expr_function
from .geometry import Box, Region
from .mollify import QuadratureSpec
from .pipeline import Scenario
from .weights import (WeightFamily, custom_family, exhaustion_family,
                      exp_strips_family, om_finite_family, schwartz_family)

REGISTRY = ("schwartz_1d", "exhaustion_1d", "om_finite_1d", "exp_strips_2d")


def _region_from_cfg(cfg: dict, grid_override: Optional[int] = None) -> Region:
    boxes = tuple(Box(tuple(map(float, lo)), tuple(map(float, hi)))
                  for lo, hi in cfg["boxes"])
    ppa = cfg.get("points_per_axis", 101)
    region = Region.from_bounds([b.lo for b in boxes], [b.hi for b in boxes], ppa)
    if grid_override:
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
            omegas[int(key)] = Region.from_bounds(
                [b[0] for b in boxes], [b[1] for b in boxes], domain.points_per_axis)
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


def _seminorms_from_cfg(cfg: dict) -> dict[str, SeminormIndex]:
    # SeminormIndex rejects an unknown kind and a degenerate subset or weight
    return {name: SeminormIndex(spec.get("kind", "sup_all"),
                                subset=tuple(map(int, spec.get("subset", ()))),
                                coord_weights=tuple(map(float, spec.get("coord_weights", ()))))
            for name, spec in cfg.items()}


def _check_value_dim(seminorms: dict[str, SeminormIndex], m: int) -> None:
    """Every subset index and coordinate weight names one of f's m coordinates."""
    for name, alpha in seminorms.items():
        if alpha.kind == "sup_subset" and max(alpha.subset) >= m:
            raise ConfigError(f"seminorm {name!r} selects coordinate {max(alpha.subset)} "
                              f"of a function with {m}")
        if alpha.kind == "weighted_sup" and len(alpha.coord_weights) != m:
            raise ConfigError(f"seminorm {name!r} has {len(alpha.coord_weights)} weights "
                              f"for {m} coordinates")


def _delta_rule_from_cfg(cfg: dict, fam: WeightFamily, domain: Region):
    kind = cfg.get("kind", "fixed")
    if kind == "fixed":
        value = float(cfg["value"])
        return lambda idx: value
    if kind == "strip_margin":
        # safety margin 1/(2j+2) for the strip family
        return lambda idx: 1.0 / (2 * idx.j + 2)
    if kind == "exhaustion_gap":
        gaps = {int(k): float(v) for k, v in cfg["values"].items()}
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
        scn = Scenario(
            name=cfg.get("name", "unnamed"),
            family=fam,
            domain=domain,
            seminorms=seminorms,
            delta_rule=_delta_rule_from_cfg(cfg.get("delta", {"kind": "fixed", "value": 1.0}),
                                            fam, domain),
            n_max=int(cfg.get("n_max", 64)),
            quad=quad,
            omega=omega,
            config=cfg,
        )
        f = _function_from_cfg(cfg["function"], domain, order) if "function" in cfg else None
        if f is not None:
            _check_value_dim(seminorms, f.value_dim)
        return scn, f
    except KeyError as exc:
        raise ConfigError(f"scenario config missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(source: str | Path, grid_override: Optional[int] = None
                  ) -> tuple[Scenario, SampledFunction]:
    """Load from a file path or a registry name."""
    path = Path(source)
    if path.exists():
        cfg = json.loads(path.read_text())
    elif str(source) in REGISTRY:
        text = resources.files("finiterank").joinpath(f"configs/{source}.json").read_text()
        cfg = json.loads(text)
    else:
        raise ConfigError(f"scenario {source!r} is neither a file nor a registry name")
    return scenario_from_dict(cfg, grid_override)
