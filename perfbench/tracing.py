"""Span tracing for the traced benchmark run.

Timing wrappers are installed on the names each ransacreg module calls in
the next one, by rebinding module (or class) attributes for the duration
of the traced run; no source file is touched. Every wrapped call records a
span (name, start, end, parent, op id, error flag) and adds its counts at
the same boundary. Spans stay in memory in compact arrays and are written
out once, when the run ends.

A probe whose target no longer exists (say, after a refactor renamed the
function) is recorded as missing; the layer metrics that depend on it are
then reported as missing instead of crashing the run.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = ["Probe", "PROBES", "Tracer", "installed", "layer_metrics",
           "self_times", "PER_LAYER_METRICS", "MODULES"]


@dataclass(frozen=True)
class Probe:
    """One wrapped name.

    `target` is "module:attr" or "module:Class.attr". `span` is the span
    name, or a callable (args, kwargs) -> span name. `count` maps
    (args, kwargs, result) to counts added at this boundary; `key` maps
    (args, kwargs) to a hashable recorded once per op in a set.
    """

    target: str
    span: str | Callable
    count: Callable | None = None
    key: Callable | None = None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _stream_key(args, kwargs):
    # A hypothesis stream is a pure function of (correspondences, seed,
    # budget), so two run_ransac calls with equal keys redo the same work.
    config, corrs = _arg(args, kwargs, 0, "config"), _arg(args, kwargs, 1, "corrs")
    h = hashlib.blake2b(digest_size=16)
    h.update(corrs.sources.tobytes())
    h.update(corrs.targets.tobytes())
    return h.hexdigest(), config.seed, config.iterations


def _score_span(args, kwargs):
    return f"metrics.score.{_arg(args, kwargs, 0, 'spec').kind.value}"


def _n_rows(pos, name, counter):
    return lambda args, kwargs, result: {
        counter: len(_arg(args, kwargs, pos, name))}


def _points_parsed(args, kwargs, result):
    # Cloud files hold one point per row; a correspondence row holds two.
    n = getattr(result, "n", None)
    if n is not None:
        return {"cloudio.points_parsed": 2 * n}
    points = getattr(result, "points", None)
    return {"cloudio.points_parsed": 0 if points is None else len(points)}


def _error_elements(args, kwargs, result):
    return {"metrics.error_elements": result.size}


_R = "ransacreg."
PROBES: tuple[Probe, ...] = (
    Probe(_R + "evalbench:run_ransac", "ransac.run", key=_stream_key),
    Probe(_R + "cli:run_ransac", "ransac.run", key=_stream_key),
    Probe(_R + "ransac:sample_minimal", "ransac.sample"),
    Probe(_R + "ransac:triangle_area", "geom.triangle_area"),
    Probe(_R + "ransac:_estimate_rigid_batch", "geom.solve",
          count=_n_rows(0, "source", "geom.hypotheses_solved")),
    Probe(_R + "ransac:cloud_resolution", "geom.resolution"),
    Probe(_R + "geom:cloud_resolution", "geom.resolution"),
    Probe(_R + "ransac:_corr_values_batch", "metrics.corr_values"),
    Probe(_R + "ransac:_cloud_value", "metrics.cloud_value"),
    Probe(_R + "metrics:_errors_batch", "metrics.error_kernel",
          count=_error_elements),
    Probe(_R + "metrics:_score_array", _score_span),
    Probe(_R + "spatial:NeighborIndex.nearest_distances", "spatial.nn_query",
          count=_n_rows(1, "queries", "spatial.nn_points")),
    Probe(_R + "spatial:NeighborIndex.knn", "spatial.knn"),
    Probe(_R + "geom:build_index", "spatial.build"),
    Probe(_R + "evalbench:build_index", "spatial.build"),
    Probe(_R + "cli:build_index", "spatial.build"),
    Probe(_R + "synth:build_index", "spatial.build"),
    Probe(_R + "evalbench:generate_scene", "synth.scene"),
    Probe(_R + "evalbench:generate_correspondences", "synth.correspondences"),
    Probe(_R + "evalbench:_hole_survivor_indices", "synth.nuisance"),
    Probe(_R + "evalbench:_uniform_keep_indices", "synth.nuisance"),
    Probe(_R + "evalbench:_random_keep_indices", "synth.nuisance"),
    Probe(_R + "evalbench:add_gaussian_noise", "synth.nuisance"),
    Probe(_R + "evalbench:rmse", "evalbench.rmse"),
    Probe(_R + "cli:rmse", "evalbench.rmse"),
    Probe(_R + "cli:parse_cloud_file", "cloudio.parse", count=_points_parsed),
    Probe(_R + "cli:parse_correspondence_file", "cloudio.parse",
          count=_points_parsed),
    Probe(_R + "cli:parse_transform_file", "cloudio.parse"),
)

MODULES = ("cli", "evalbench", "ransac", "geom", "metrics", "spatial",
           "synth", "cloudio")


class Tracer:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.error[idx] = 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        failed = True
        try:
            yield
            failed = False
        finally:
            self.close(idx, failed)

    def __len__(self) -> int:
        return len(self.name)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "op",
                          "error"])
            for i in range(len(self.name)):
                out.writerow([i, self.names[self.name[i]], repr(self.start[i]),
                              repr(self.end[i]), self.parent[i], self.op[i],
                              self.error[i]])


def _wrap(fn, tracer: Tracer, probe: Probe):
    span = probe.span
    fixed_id = tracer.name_id(span) if isinstance(span, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nid = fixed_id if fixed_id is not None else tracer.name_id(span(args, kwargs))
        idx = tracer.open(nid)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            tracer.close(idx, failed)
        if probe.count is not None:
            tracer.counts.update(probe.count(args, kwargs, result))
        if probe.key is not None:
            tracer.keys[tracer.names[nid]].add((tracer.op_id, probe.key(args, kwargs)))
        return result

    return wrapper


def _resolve(target: str):
    """(owner object, attribute name) for a probe target, or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


@contextmanager
def installed(tracer: Tracer, probes=PROBES):
    """Install every probe's wrapper; restore the originals on exit."""
    saved = []
    try:
        for probe in probes:
            where = _resolve(probe.target)
            if where is None:
                if probe.target not in tracer.missing:
                    tracer.missing.append(probe.target)
                continue
            owner, attr = where
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(original, tracer, probe))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics: name -> (unit, span names the value needs).
_SCORE_KINDS = ("inlier-count", "huber", "mae", "mse", "log-cosh", "exp",
                "quantile", "neg-quantile")
PER_LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "ransac.run_s": ("s", ("ransac.run",)),
    "ransac.self_s": ("s", ("ransac.run",)),
    "ransac.sample_s": ("s", ("ransac.sample",)),
    "ransac.samples": ("count", ("ransac.sample",)),
    "ransac.sample_attempts": ("count", ("geom.triangle_area",)),
    "ransac.sample_accept_ratio": ("ratio", ("ransac.sample", "geom.triangle_area")),
    "geom.solve_s": ("s", ("geom.solve",)),
    "geom.hypotheses_solved": ("count", ("geom.solve",)),
    "geom.resolution_s": ("s", ("geom.resolution",)),
    "geom.resolution_calls": ("count", ("geom.resolution",)),
    "metrics.error_kernel_s": ("s", ("metrics.error_kernel",)),
    "metrics.error_elements": ("count", ("metrics.error_kernel",)),
    "metrics.error_elements_per_s": ("1/s", ("metrics.error_kernel",)),
    **{f"metrics.score_s.{k}": ("s", ("metrics.score.*",)) for k in _SCORE_KINDS},
    "metrics.corr_values_s": ("s", ("metrics.corr_values",)),
    "metrics.cloud_value_s": ("s", ("metrics.cloud_value",)),
    "metrics.cloud_hypotheses": ("count", ("metrics.cloud_value",)),
    "spatial.nn_query_s": ("s", ("spatial.nn_query",)),
    "spatial.nn_points": ("count", ("spatial.nn_query",)),
    "spatial.nn_points_per_s": ("1/s", ("spatial.nn_query",)),
    "spatial.build_s": ("s", ("spatial.build",)),
    "spatial.builds": ("count", ("spatial.build",)),
    "spatial.knn_s": ("s", ("spatial.knn",)),
    "synth.scene_s": ("s", ("synth.scene",)),
    "synth.correspondences_s": ("s", ("synth.correspondences",)),
    "synth.correspondence_sets": ("count", ("synth.correspondences",)),
    "synth.nuisance_s": ("s", ("synth.nuisance",)),
    "evalbench.self_s": ("s", ()),
    "evalbench.rmse_s": ("s", ("evalbench.rmse",)),
    "evalbench.ransac_calls": ("count", ("ransac.run",)),
    "evalbench.distinct_streams": ("count", ("ransac.run",)),
    "evalbench.stream_reuse_ratio": ("ratio", ("ransac.run",)),
    "cloudio.parse_s": ("s", ("cloudio.parse",)),
    "cloudio.points_parsed": ("count", ("cloudio.parse",)),
    "cloudio.points_per_s": ("1/s", ("cloudio.parse",)),
    "cli.self_s": ("s", ()),
    **{f"{m}.self_share": ("ratio", ()) for m in MODULES},
}


def self_times(tracer: Tracer) -> list[float]:
    """Per-span self time: duration minus the durations of its children.

    Calls are single-threaded and nested, so children never overlap and
    the time they cover is the sum of their durations.
    """
    n = len(tracer)
    selft = [tracer.end[i] - tracer.start[i] for i in range(n)]
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            selft[p] -= tracer.end[i] - tracer.start[i]
    return selft


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, probes=PROBES) -> tuple[dict, list[str]]:
    """Per-op layer metrics from a finished trace, plus missing metric names.

    Times are seconds per op; counts are per op. A metric that needs a span
    no installed probe records is reported as 0 and listed as missing.
    """
    selft = self_times(tracer)
    dur = Counter()
    own = Counter()
    calls = Counter()
    ok_calls = Counter()
    names = tracer.names
    for i in range(len(tracer)):
        name = names[tracer.name[i]]
        dur[name] += tracer.end[i] - tracer.start[i]
        own[name] += selft[i]
        calls[name] += 1
        if not tracer.error[i]:
            ok_calls[name] += 1
    c = tracer.counts
    evalbench_ransac_calls = sum(
        1 for i in range(len(tracer))
        if names[tracer.name[i]] == "ransac.run" and tracer.parent[i] >= 0
        and names[tracer.name[tracer.parent[i]]] == "evalbench.run_experiment")
    evalbench_ops = {tracer.op[i] for i in range(len(tracer))
                     if names[tracer.name[i]] == "evalbench.run_experiment"}
    evalbench_streams = [k for k in tracer.keys.get("ransac.run", ())
                         if k[0] in evalbench_ops]
    total_self = sum(own.values())
    module_self = Counter()
    for name, value in own.items():
        module_self[name.split(".", 1)[0]] += value

    raw = {
        "ransac.run_s": dur["ransac.run"],
        "ransac.self_s": own["ransac.run"],
        "ransac.sample_s": dur["ransac.sample"],
        "ransac.samples": ok_calls["ransac.sample"],
        "ransac.sample_attempts": calls["geom.triangle_area"],
        "geom.solve_s": dur["geom.solve"],
        "geom.hypotheses_solved": c["geom.hypotheses_solved"],
        "geom.resolution_s": dur["geom.resolution"],
        "geom.resolution_calls": calls["geom.resolution"],
        "metrics.error_kernel_s": dur["metrics.error_kernel"],
        "metrics.error_elements": c["metrics.error_elements"],
        **{f"metrics.score_s.{k}": dur[f"metrics.score.{k}"] for k in _SCORE_KINDS},
        "metrics.corr_values_s": dur["metrics.corr_values"],
        "metrics.cloud_value_s": dur["metrics.cloud_value"],
        "metrics.cloud_hypotheses": calls["metrics.cloud_value"],
        "spatial.nn_query_s": dur["spatial.nn_query"],
        "spatial.nn_points": c["spatial.nn_points"],
        "spatial.build_s": dur["spatial.build"],
        "spatial.builds": calls["spatial.build"],
        "spatial.knn_s": dur["spatial.knn"],
        "synth.scene_s": dur["synth.scene"],
        "synth.correspondences_s": dur["synth.correspondences"],
        "synth.correspondence_sets": calls["synth.correspondences"],
        "synth.nuisance_s": dur["synth.nuisance"],
        "evalbench.self_s": own["evalbench.run_experiment"],
        "evalbench.rmse_s": dur["evalbench.rmse"],
        "evalbench.ransac_calls": evalbench_ransac_calls,
        "evalbench.distinct_streams": len(evalbench_streams),
        "cloudio.parse_s": dur["cloudio.parse"],
        "cloudio.points_parsed": c["cloudio.points_parsed"],
        "cli.self_s": own["cli.main"],
    }
    out = {name: _div(value, n_ops) for name, value in raw.items()}
    # Ratios and rates are independent of the op count.
    out["ransac.sample_accept_ratio"] = _div(raw["ransac.samples"],
                                             raw["ransac.sample_attempts"])
    out["metrics.error_elements_per_s"] = _div(raw["metrics.error_elements"],
                                               raw["metrics.error_kernel_s"])
    out["spatial.nn_points_per_s"] = _div(raw["spatial.nn_points"],
                                          raw["spatial.nn_query_s"])
    out["evalbench.stream_reuse_ratio"] = _div(raw["evalbench.distinct_streams"],
                                               raw["evalbench.ransac_calls"])
    out["cloudio.points_per_s"] = _div(raw["cloudio.points_parsed"],
                                       raw["cloudio.parse_s"])
    for module in MODULES:
        out[f"{module}.self_share"] = _div(module_self[module], total_self)

    present = set()
    for probe in probes:
        if probe.target not in tracer.missing:
            present.add(probe.span if isinstance(probe.span, str)
                        else "metrics.score.*")
    missing = [name for name, (_, spans) in PER_LAYER_METRICS.items()
               if not all(s in present for s in spans)]
    for name in missing:
        out[name] = 0.0
    return {name: out[name] for name in PER_LAYER_METRICS}, missing
