"""Spans and counters recorded around the calls into finiterank's layers.

The benchmark never edits the package. `instrument` rebinds the public
functions and methods of each module to wrappers that open a span, count
the work handed to them and call the original. Spans are kept in flat
arrays (name, parent, start, end) and reduced only at the end, so a
traced pass pays one append per boundary crossing.

Two things shape the wrappers:

* Evaluation is lazy. `convolve` only sets up quadrature nodes; the work
  runs when the returned function's `evaluator`, `derivative` or
  per-instance `deriv_multi` is called, so those three are wrapped on the
  returned object.
* Modules import each other with `from .x import y`, so a function is
  rebound in every module that holds a reference to it.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ROOTS = ("pipeline.approximate", "pipeline.verify")


class Tracer:
    """Flat span store plus named counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_index(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn, before=None):
        """fn inside a span; `before(*args)` updates counters first."""
        nid = self.name_index(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapper

    # ------------------------------------------------------------------
    # reduction

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread with stack discipline, so children nest
    inside their parent and never overlap each other.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def _has_ancestor(parent, mark) -> np.ndarray:
    """Mask of spans with an ancestor for which `mark` is true."""
    marked = mark.tolist()
    below = [False] * len(marked)
    # parents precede their children, so one forward pass settles every span
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and (marked[p] or below[p]):
            below[i] = True
    return np.asarray(below, dtype=bool)


def under_roots(name_id: np.ndarray, parent: np.ndarray, root_ids) -> np.ndarray:
    """Mask of spans that are a root or have a root among their ancestors."""
    is_root = np.isin(name_id, list(root_ids))
    return is_root | _has_ancestor(parent, is_root)


def outermost(name_id: np.ndarray, parent: np.ndarray, group_ids) -> np.ndarray:
    """Mask of spans in the group with no ancestor in the group."""
    in_group = np.isin(name_id, list(group_ids))
    return in_group & ~_has_ancestor(parent, in_group)


# ----------------------------------------------------------------------
# instrumentation of the package


def _rebind(patches, holder, attr, new):
    patches.append((holder, attr, getattr(holder, attr)))
    setattr(holder, attr, new)


def _npts(points) -> int:
    return len(np.atleast_2d(np.asarray(points)))


def instrument(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the patches for `restore`."""
    import sympy

    from finiterank import (cutoff, funcmodel, geometry, mollify, pipeline,
                            seminorms, tensorapprox, weights)

    c = tracer.counts
    patches: list = []

    # geometry -----------------------------------------------------------
    def count_contains(region, points, *a, **k):
        n_boxes = len(region.boxes)
        c["geometry.contains_calls"] += 1
        c["geometry.box_tests"] += _npts(points) * n_boxes
        if n_boxes > tracer.maxima["geometry.max_boxes"]:
            tracer.maxima["geometry.max_boxes"] = n_boxes

    _rebind(patches, geometry.Region, "contains",
            tracer.wrap("geometry.contains", geometry.Region.contains, count_contains))

    # funcmodel ------------------------------------------------------------
    def count_conv_points(fn, points, *a, **k):
        # one call per live quadrature node inside a convolution evaluation
        if tracer.current() == "mollify.conv":
            c["mollify.conv_points"] += _npts(points)

    def count_deriv_points(fn, beta, points, *a, **k):
        count_conv_points(fn, points)

    SF = funcmodel.SampledFunction
    for attr, before in (("eval", None), ("eval_extended", count_conv_points),
                         ("deriv_extended", count_deriv_points)):
        _rebind(patches, SF, attr, tracer.wrap("funcmodel.eval", getattr(SF, attr), before))

    # cutoff ---------------------------------------------------------------
    def count_psi(union, beta, pts, *a, **k):
        c["cutoff.psi_points"] += _npts(pts)

    _rebind(patches, cutoff._UnionCutoff, "deriv",
            tracer.wrap("cutoff.psi", cutoff._UnionCutoff.deriv, count_psi))
    build = tracer.wrap("cutoff.build", cutoff.build_cutoff)
    for mod in (cutoff, tensorapprox):
        _rebind(patches, mod, "build_cutoff", build)
    _rebind(patches, pipeline, "apply_cutoff",
            tracer.wrap("cutoff.stage1", cutoff.apply_cutoff))

    # mollify --------------------------------------------------------------
    def count_bump(points, *a, **k):
        c["mollify.bump_points"] += _npts(points)

    _rebind(patches, mollify, "bump_profile",
            tracer.wrap("mollify.bump", mollify.bump_profile, count_bump))

    def count_nodes(fn, g, quad, side="auto"):
        if side == "auto":
            side = "g" if g.support is not None else "f"
        region = fn.support if side == "f" else g.support
        if region is not None:
            c["mollify.conv_nodes"] += len(region.boxes) * quad.finest_points ** region.d

    setup_conv = tracer.wrap("mollify.convolve", mollify.convolve, count_nodes)

    def traced_convolve(*args, **kwargs):
        conv = setup_conv(*args, **kwargs)
        for attr in ("evaluator", "derivative", "deriv_multi"):
            if attr in vars(conv) and getattr(conv, attr) is not None:
                setattr(conv, attr, tracer.wrap("mollify.conv", getattr(conv, attr)))
        return conv

    for mod in (mollify, pipeline):
        _rebind(patches, mod, "convolve", traced_convolve)

    def count_reg(*a, **k):
        c["mollify.reg_attempts"] += 1

    regularize = tracer.wrap("mollify.regularize", mollify.regularize, count_reg)
    for mod in (mollify, pipeline):
        _rebind(patches, mod, "regularize", regularize)
    _rebind(patches, pipeline, "find_regularization_order",
            tracer.wrap("mollify.stage2", mollify.find_regularization_order))

    # seminorms ------------------------------------------------------------
    def count_scan(*a, **k):
        c["seminorms.scans"] += 1

    scan = tracer.wrap("seminorms.scan", seminorms.weighted_seminorm, count_scan)
    for mod in (cutoff, mollify, tensorapprox):
        _rebind(patches, mod, "weighted_seminorm", scan)
    _rebind(patches, pipeline, "weighted_seminorm", tracer.wrap("pipeline.measure", scan))
    _rebind(patches, cutoff, "tail_seminorm",
            tracer.wrap("seminorms.scan", seminorms.tail_seminorm, count_scan))
    tail = tracer.wrap("seminorms.scan", seminorms.find_tail_compact, count_scan)
    for mod in (cutoff, tensorapprox):
        _rebind(patches, mod, "find_tail_compact", tail)

    multi_ext = seminorms.f_multi_ext

    def counted_multi_ext(fn, betas, points):
        c["seminorms.scan_points"] += _npts(points) * len(betas)
        return multi_ext(fn, betas, points)

    _rebind(patches, seminorms, "f_multi_ext", counted_multi_ext)

    # tensorapprox ---------------------------------------------------------
    cover = tracer.wrap("tensorapprox.cover", tensorapprox.oscillation_cover)

    def counted_cover(*args, **kwargs):
        result = cover(*args, **kwargs)
        c["tensorapprox.centers"] += result.n_centers
        return result

    _rebind(patches, tensorapprox, "oscillation_cover", counted_cover)
    _rebind(patches, tensorapprox, "build_partition",
            tracer.wrap("tensorapprox.partition", tensorapprox.build_partition))

    bump_matrix = tensorapprox._bump_matrix

    def counted_bump_matrix(points, centers, radii):
        c["tensorapprox.bump_entries"] += len(points) * len(centers)
        return bump_matrix(points, centers, radii)

    _rebind(patches, tensorapprox, "_bump_matrix", counted_bump_matrix)

    def count_basis(basis, points):
        c["tensorapprox.basis_calls"] += 1
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if basis._key == (pts.shape, pts.tobytes()):
            c["tensorapprox.basis_hits"] += 1

    _rebind(patches, tensorapprox.PartitionBasis, "eval_all",
            tracer.wrap("tensorapprox.basis", tensorapprox.PartitionBasis.eval_all,
                        count_basis))
    _rebind(patches, pipeline, "finite_rank_c0_approx",
            tracer.wrap("tensorapprox.localize", tensorapprox.finite_rank_c0_approx))

    # weights --------------------------------------------------------------
    def count_weights(fam, idx, points):
        c["weights.eval_points"] += _npts(points)

    _rebind(patches, weights.WeightFamily, "eval_batch",
            tracer.wrap("weights.eval", weights.WeightFamily.eval_batch, count_weights))

    # expressions: every sympy diff / lambdify the package triggers ----------
    def count_compile(*a, **k):
        c["expressions.compiles"] += 1

    _rebind(patches, sympy, "diff", tracer.wrap("expressions.symbolic", sympy.diff))
    _rebind(patches, sympy, "lambdify",
            tracer.wrap("expressions.symbolic", sympy.lambdify, count_compile))
    return patches


def instrument_function(tracer: Tracer, f, patches: list) -> None:
    """Count the points at which the scenario's own function is evaluated."""
    c = tracer.counts

    def count_f(points, *a, **k):
        c["funcmodel.f_points"] += _npts(points)

    def count_f_beta(beta, points, *a, **k):
        c["funcmodel.f_points"] += _npts(points)

    def count_f_multi(betas, points, *a, **k):
        c["funcmodel.f_points"] += _npts(points) * len(betas)

    for attr, before in (("evaluator", count_f), ("derivative", count_f_beta),
                         ("deriv_multi", count_f_multi)):
        _rebind(patches, f, attr, tracer.wrap("funcmodel.f", getattr(f, attr), before))


def restore(patches: list) -> None:
    for holder, attr, original in reversed(patches):
        setattr(holder, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics from one traced pass

SELF_TIME = {
    "geometry.contains_s": ("geometry.contains",),
    "funcmodel.eval_s": ("funcmodel.eval", "funcmodel.f"),
    "cutoff.psi_s": ("cutoff.psi",),
    "mollify.conv_s": ("mollify.convolve", "mollify.conv"),
    "mollify.bump_s": ("mollify.bump",),
    "seminorms.scan_self_s": ("seminorms.scan",),
    "tensorapprox.basis_s": ("tensorapprox.basis",),
    "tensorapprox.cover_s": ("tensorapprox.cover",),
    "weights.eval_s": ("weights.eval",),
    "expressions.symbolic_s": ("expressions.symbolic",),
}

INCLUSIVE_TIME = {
    "cutoff.build_s": ("cutoff.build",),
    "cutoff.stage1_s": ("cutoff.stage1",),
    "mollify.stage2_s": ("mollify.stage2",),
    "seminorms.scan_s": ("seminorms.scan",),
    "tensorapprox.localize_s": ("tensorapprox.localize",),
    "pipeline.measure_s": ("pipeline.measure",),
}

COUNTS = (
    "geometry.contains_calls", "geometry.box_tests", "funcmodel.f_points",
    "cutoff.psi_points", "mollify.conv_nodes", "mollify.conv_points",
    "mollify.bump_points", "mollify.reg_attempts", "seminorms.scans",
    "seminorms.scan_points", "tensorapprox.centers", "tensorapprox.bump_entries",
    "tensorapprox.basis_calls", "tensorapprox.basis_hits", "weights.eval_points",
    "expressions.compiles",
)
MAXIMA = ("geometry.max_boxes",)


def layer_metrics(tracer: Tracer) -> dict:
    """Counts, self times and inclusive times of one traced pass.

    Counts and `expressions.*` cover the whole process, set-up included;
    `trace.layers_self_s` and `trace.uncovered_s` split the time inside
    the operations (the `pipeline.approximate` / `pipeline.verify` roots)
    into what the instrumented layers account for and what they leave.
    """
    arr = tracer.arrays()
    name_id, parent = arr["name_id"], arr["parent"]
    own = self_times(parent, arr["start"], arr["end"])
    dur = arr["end"] - arr["start"]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def group(names):
        return [ids[n] for n in names if n in ids]

    out: dict[str, float] = {}
    for key in COUNTS:
        out[key] = int(tracer.counts.get(key, 0))
    for key in MAXIMA:
        out[key] = int(tracer.maxima.get(key, 0))
    for key, names in SELF_TIME.items():
        out[key] = float(own[np.isin(name_id, group(names))].sum())
    for key, names in INCLUSIVE_TIME.items():
        out[key] = float(dur[outermost(name_id, parent, group(names))].sum())

    roots = group(ROOTS)
    is_root = np.isin(name_id, roots)
    in_ops = under_roots(name_id, parent, roots)
    out["trace.certify_s"] = float(dur[is_root & (parent < 0)].sum())
    out["trace.layers_self_s"] = float(own[in_ops & ~is_root].sum())
    out["trace.uncovered_s"] = float(own[is_root].sum())
    return out
