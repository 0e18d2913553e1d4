"""Hypothesis-evaluation metrics for rigid registration.

Ten scoring functions behind one interface. Eight are correspondence-based
(inlier count, Huber, and the six shaped residual scores: MAE, MSE,
LOG-COSH, EXP, QUANTILE, -QUANTILE); two compare whole clouds (point-cloud
distance and overlap count). Every kind is oriented so that HIGHER scores
are better and the best hypothesis is always the argmax; natively
cost-like metrics (Huber, point-cloud distance) are negated.

A correspondence is an inlier of hypothesis T when its transformation
error e = ||R p_s + t - p_t|| is STRICTLY below the threshold t; e = t is
an outlier.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (BadConfig, EmptyCloud, InvalidInput, InvalidSpec,
                     MissingClouds, _check_reals, _require_type)
from .geom import RigidTransform
from .spatial import (NeighborIndex, _as_indices, _as_points, _frozen_points,
                      _leaf_order, _scan_distances)

__all__ = [
    "Correspondence",
    "CorrespondenceSet",
    "HypothesisScore",
    "MetricKind",
    "MetricSpec",
    "CORRESPONDENCE_KINDS",
    "CLOUD_KINDS",
    "PROPOSED_KINDS",
    "evaluate_hypothesis",
    "evaluate_hypothesis_cloud",
    "score_correspondence",
    "score_errors",
    "transformation_error",
    "transformation_errors",
]


class MetricKind(str, Enum):
    """Scoring-function identifiers; values are the canonical CLI names."""

    INLIER_COUNT = "inlier-count"
    HUBER = "huber"
    MAE = "mae"
    MSE = "mse"
    LOG_COSH = "log-cosh"
    EXP = "exp"
    QUANTILE = "quantile"
    NEG_QUANTILE = "neg-quantile"
    PC_DIST = "pc-dist"
    OVERLAP_COUNT = "overlap-count"

    def __str__(self) -> str:  # "mae", not "MetricKind.MAE"
        return self.value


def _as_kind(kind) -> MetricKind:
    """`MetricKind(kind)`; InvalidSpec for an unknown kind."""
    try:
        return MetricKind(kind)
    except ValueError:
        raise InvalidSpec(f"unknown metric kind {kind!r}") from None


# The six shaped residual scores introduced on top of the four baselines.
PROPOSED_KINDS = frozenset({
    MetricKind.MAE, MetricKind.MSE, MetricKind.LOG_COSH,
    MetricKind.EXP, MetricKind.QUANTILE, MetricKind.NEG_QUANTILE,
})
CLOUD_KINDS = frozenset({MetricKind.PC_DIST, MetricKind.OVERLAP_COUNT})
CORRESPONDENCE_KINDS = frozenset(MetricKind) - CLOUD_KINDS


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A putative match c = (p_s, p_t) between a source and a target point;
    InvalidInput unless each is exactly one in-domain 3-D point."""

    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        for name in ("source", "target"):
            p = _frozen_points(getattr(self, name), name, one=True)[0]
            object.__setattr__(self, name, p)


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """An ordered collection of correspondences, stored as parallel arrays.

    `sources[j]` pairs with `targets[j]`. Array storage keeps hypothesis
    evaluation vectorized; `items` offers the per-item view. Sources and
    targets are each an (N, 3) array-like or one (3,) point, of the same
    shape and in the coordinate domain; else :class:`InvalidInput`.
    """

    sources: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        src = _frozen_points(self.sources, "sources")
        tgt = _frozen_points(self.targets, "targets")
        if src.shape != tgt.shape:
            raise InvalidInput(
                f"sources/targets must pair up, got {src.shape} vs {tgt.shape}")
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "targets", tgt)

    @classmethod
    def from_items(cls, items) -> "CorrespondenceSet":
        items = list(items)
        if not items:
            return cls(np.empty((0, 3)), np.empty((0, 3)))
        return cls(np.array([c.source for c in items]),
                   np.array([c.target for c in items]))

    @property
    def n(self) -> int:
        return self.sources.shape[0]

    @property
    def items(self) -> tuple[Correspondence, ...]:
        return tuple(Correspondence(s, t)
                     for s, t in zip(self.sources, self.targets))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> Correspondence:
        return Correspondence(self.sources[j], self.targets[j])

    def take(self, indices) -> "CorrespondenceSet":
        idx = _as_indices(indices)
        return CorrespondenceSet(self.sources[idx], self.targets[idx])


@dataclass(frozen=True)
class MetricSpec:
    """Which scoring function to use plus its parameters.

    All distances are world units. `t` is the inlier threshold, `m` the
    quantile weight, `t_overlap` the overlap-count radius (defaults to
    2 * pr when omitted), and `pr` the cloud resolution used to express
    LOG-COSH residuals in resolution units. Each must be a real number (a
    bool or a numeric string is not) in its domain; else InvalidSpec.
    """

    kind: MetricKind
    t: float
    m: float = 0.9
    pr: float = 1.0
    t_overlap: float | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "kind", _as_kind(self.kind))
        try:
            _check_reals(pr=self.pr, t=self.t, m=self.m)
            if self.t_overlap is not None:
                _check_reals(t_overlap=self.t_overlap)
        except BadConfig as exc:
            raise InvalidSpec(str(exc)) from None
        for name in ("pr", "t", "m"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # pr first: a cloud of coincident points binds t = t_pr * pr = 0,
        # and the zero resolution is the cause to report.
        if not (np.isfinite(self.pr) and self.pr > 0.0):
            raise InvalidSpec(f"resolution pr must be positive, got {self.pr}")
        if not (np.isfinite(self.t) and self.t > 0.0):
            raise InvalidSpec(f"threshold t must be positive, got {self.t}")
        if not (0.0 < self.m < 1.0):
            raise InvalidSpec(f"quantile weight m must lie in (0, 1), got {self.m}")
        t_ov = 2.0 * self.pr if self.t_overlap is None else float(self.t_overlap)
        if not (np.isfinite(t_ov) and t_ov > 0.0):
            raise InvalidSpec(f"t_overlap must be positive, got {t_ov}")
        object.__setattr__(self, "t_overlap", t_ov)


@dataclass(frozen=True)
class HypothesisScore:
    """A hypothesis's total score; higher is better for every kind."""

    value: float
    kind: MetricKind

    def __post_init__(self):
        try:
            object.__setattr__(self, "value", float(self.value))
        except (TypeError, ValueError):
            raise InvalidInput(f"score must be a number, got {self.value!r}") from None
        object.__setattr__(self, "kind", _as_kind(self.kind))
        if not np.isfinite(self.value):
            raise InvalidInput(f"score must be finite, got {self.value}")


def _require_kind(spec: MetricSpec, *, cloud: bool) -> None:
    """Raise InvalidSpec unless `spec` compares whole clouds exactly when `cloud`."""
    if (spec.kind in CLOUD_KINDS) == cloud:
        return
    hint = ("scores correspondences; use evaluate_hypothesis" if cloud
            else "compares whole clouds; use evaluate_hypothesis_cloud")
    raise InvalidSpec(f"{spec.kind} {hint}")


def _errors_batch(rotations: np.ndarray, translations: np.ndarray,
                  sources: np.ndarray, targets: np.ndarray, *,
                  out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                  ) -> np.ndarray:
    """Squared errors ||R p_s + t - p_t||^2 for h transforms, shape (h, n).

    Built purely from elementwise ufuncs (no einsum or BLAS), so every
    entry is computed by the same scalar expression tree regardless of
    batch size: row i of an h-batch is bit-identical to the h=1 result.
    `out` = (errors, scratch, scratch), three (h, n) float64 arrays, takes
    the result and the temporaries, so the kernel allocates nothing and
    returns `out[0]`; the shared pass of :func:`_corr_values_batch` runs
    it that way on its helper thread. Without `out` (single transforms,
    RMSE grading, replay) the result and one (2, h, n) scratch block are
    allocated, so the returned array does not hold the scratch alive.
    Since sqrt is correctly rounded, the error e is the sqrt of this
    result, taken on any subset with the same bits. The kernel reads the
    point columns `sources[:, k]` and `targets[:, k]`, which column-major
    (N, 3) arrays keep unit-stride.
    """
    if out is None:
        h, n = rotations.shape[0], sources.shape[0]
        out = (np.empty((h, n)), *np.empty((2, h, n)))
    e2, moved, term = out
    for k in range(3):
        acc = e2 if k == 0 else moved
        np.multiply(sources[:, 0], rotations[:, k, 0, np.newaxis], out=acc)
        np.multiply(sources[:, 1], rotations[:, k, 1, np.newaxis], out=term)
        acc += term
        np.multiply(sources[:, 2], rotations[:, k, 2, np.newaxis], out=term)
        acc += term
        acc += translations[:, k, np.newaxis]
        acc -= targets[:, k]
        acc *= acc
        if k:
            e2 += acc
    return e2


def _pair_errors(rotation: np.ndarray, translation: np.ndarray,
                 sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Transformation errors ||R p_s + t - p_t|| for parallel point arrays."""
    e2 = _errors_batch(rotation[np.newaxis], translation[np.newaxis],
                       sources, targets)[0]
    return np.sqrt(e2, out=e2)


def transformation_error(c: Correspondence, transform: RigidTransform) -> float:
    """Euclidean error of one correspondence under a hypothesis."""
    e = _pair_errors(transform.rotation, transform.translation,
                     c.source.reshape(1, 3), c.target.reshape(1, 3))
    return float(e[0])


def transformation_errors(transform: RigidTransform,
                          corrs: CorrespondenceSet) -> np.ndarray:
    """Vector of per-correspondence errors under a hypothesis."""
    return _pair_errors(transform.rotation, transform.translation,
                        corrs.sources, corrs.targets)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log 2; even, exact at 0,
    # and free of cosh overflow for large |x|.
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def _log_cosh_inlier(spec: MetricSpec, e: np.ndarray) -> np.ndarray:
    th = spec.t / spec.pr
    return _log_cosh(e / spec.pr - th) / _log_cosh(np.asarray(th))


def _quantile_inlier(spec: MetricSpec, e: np.ndarray) -> np.ndarray:
    return spec.m * np.abs(e - spec.t) / spec.t


# The one definition of every correspondence kind's per-element score:
# kind -> (inlier formula, outlier formula), each mapping (spec, errors)
# to scores elementwise. None marks the kinds whose outliers all score 0.
_FORMULAS = {
    MetricKind.INLIER_COUNT: (lambda spec, e: np.ones_like(e), None),
    MetricKind.MAE: (lambda spec, e: np.abs(e - spec.t) / spec.t, None),
    MetricKind.MSE: (lambda spec, e: (e - spec.t) ** 2 / spec.t ** 2, None),
    MetricKind.LOG_COSH: (_log_cosh_inlier, None),
    MetricKind.EXP: (lambda spec, e: np.exp(-(e ** 2) / (2.0 * spec.t ** 2)),
                     None),
    MetricKind.QUANTILE: (
        _quantile_inlier,
        lambda spec, e: (1.0 - spec.m) * np.abs(e - spec.t) / e),
    MetricKind.NEG_QUANTILE: (
        _quantile_inlier,
        lambda spec, e: (spec.m - 1.0) * np.abs(e - spec.t) / e),
    MetricKind.HUBER: (lambda spec, e: -(e ** 2) / 2.0,
                       lambda spec, e: -spec.t * (e - spec.t / 2.0)),
}
_ZERO_OUTLIER_KINDS = frozenset(
    kind for kind, (_, outlier) in _FORMULAS.items() if outlier is None)


def _score_array(spec: MetricSpec, e: np.ndarray) -> np.ndarray:
    """Elementwise scores for a pre-validated error array of any shape."""
    inlier, outlier = _FORMULAS[spec.kind]
    inl = e < spec.t
    if outlier is None:
        s = np.zeros_like(e)
        s[inl] = inlier(spec, e[inl])
        return s
    # Both branches run on every error; the discarded one may overflow
    # (huber's e**2) or divide 0 by 0 (the quantile outlier branch at e = 0).
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(inl, inlier(spec, e), outlier(spec, e))


def score_errors(spec: MetricSpec, errors) -> np.ndarray:
    """Per-correspondence scores for an array of transformation errors.

    The strict inlier test e < t picks the branch for every kind; see
    :func:`score_correspondence` for the per-kind formulas.
    """
    _require_kind(spec, cloud=False)
    try:
        e = np.asarray(errors, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"transformation errors must be numbers: {exc}") from None
    if e.ndim != 1:
        e = e.reshape(-1)
    if e.size and (not np.all(np.isfinite(e)) or np.min(e) < 0.0):
        raise InvalidInput("transformation errors must be finite and non-negative")
    return _score_array(spec, e)


def score_correspondence(spec: MetricSpec, e: float) -> float:
    """Score s(c) of a single correspondence with transformation error e.

    Inlier branch applies when e < t (strict); otherwise the outlier
    branch. Per kind:

    - inlier-count: 1 / 0
    - mae:          |e - t| / t            / 0
    - mse:          |e - t|^2 / t^2        / 0
    - log-cosh:     log cosh(ê - t̂) / log cosh(t̂)   / 0,
                    with ê = e / pr, t̂ = t / pr
    - exp:          exp(-e^2 / (2 t^2))    / 0
    - quantile:     m |e - t| / t          / (1 - m) |e - t| / e
    - neg-quantile: m |e - t| / t          / (m - 1) |e - t| / e
    - huber:        -e^2 / 2               / -t (e - t / 2)
    """
    e = float(e)
    if not np.isfinite(e) or e < 0.0:
        raise InvalidInput(f"transformation error must be finite and >= 0, got {e}")
    return float(score_errors(spec, np.array([e]))[0])


# Cap on hypotheses x correspondences elements per batch chunk.
# The correspondence pass keeps two error chunks live (the one being
# reduced and the one the helper thread computes) plus the kernel's two
# scratch chunks, all allocated once per pass: 2 MiB at this cap. At
# 512 KiB per float64 chunk the kernel's working set fits a 2 MiB L2: on
# a 2-core Xeon with 2 MiB L2 per core, the serial error pass of a
# 1000 x 1000 stream took ~20 ms against ~32 ms at twice this cap, and
# scoring the candidates did not slow.
_BATCH_ELEMENTS = 65_536


def _score_pass(specs, order, h: int, blocks, reduce
                ) -> tuple[np.ndarray, np.ndarray]:
    """Reduce every spec's scores from one shared pass over h hypotheses.

    `blocks` lazily yields (hypothesis slice, shared data) pairs and
    `reduce(spec, data)` turns one block's data into that spec's scores,
    for the spec indices in `order` within each block.
    Returns (values, seconds): values[k, i] is specs[k]'s score of
    hypothesis i, and seconds[k] is spec k's eval time.

    Eval time, the one definition behind every eval-time field and
    column: the calling thread's wall time spent advancing `blocks` (the
    shared pass, as far as this thread does it or waits for it) plus the
    time of spec k's own `reduce` calls. Work that `reduce` does once for
    several specs counts for the spec whose call did it; work that other
    threads finish while this one reduces is not counted.
    """
    values = np.empty((len(specs), h))
    own_s = np.zeros(len(specs))
    shared_s = 0.0
    t0 = time.perf_counter()
    for where, data in blocks:  # advancing `blocks` runs the shared pass
        t1 = time.perf_counter()
        shared_s += t1 - t0
        for k in order:
            values[k, where] = reduce(specs[k], data)
            t0 = time.perf_counter()
            own_s[k] += t0 - t1
            t1 = t0
    return values, shared_s + own_s


def _corr_values_batch(specs, rotations: np.ndarray, translations: np.ndarray,
                       sources: np.ndarray, targets: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Scores of many (R, t) hypotheses against one correspondence set,
    for several correspondence specs at once; see :func:`_score_pass`.

    A helper thread runs the :func:`_errors_batch` kernel one chunk ahead,
    into the one of two reused buffers that the calling thread is not
    reading. The calling thread prepares each chunk of squared errors once
    for every spec. If a kind whose outliers score 0 (inlier-count, mae,
    mse, log-cosh, exp) is in the pass, it extracts the candidates: the
    errors with e^2 <= fl(t_max^2), t_max the largest t of these kinds, get
    their sqrt and the exact e < t_max check. If a kind that grades
    outliers (huber, quantile, neg-quantile) is in the pass, it then takes
    the sqrt of the whole chunk in place, for those kinds to score. The
    zero-outlier specs are reduced from the largest t down, ties in the
    callers' order; the first spec at each smaller t narrows the
    candidates once, and every spec at that t reads that set (inlier-count
    counts it per row). Rows come back in the callers' order.

    Eval time is :func:`_score_pass`'s. Here the shared pass is the
    kernel wait that the reductions did not hide, the extraction and the
    chunk's sqrt; a smaller threshold's cut counts for its first spec.

    Element-for-element identical to :func:`evaluate_hypothesis`: the
    kernel is batch-size independent, sqrt is correctly rounded on any
    subset, and each row sums every score at its position and 0 elsewhere.
    """
    h = rotations.shape[0]
    n = sources.shape[0]
    chunk = max(1, _BATCH_ELEMENTS // max(n, 1))
    rows = min(chunk, h)
    # Column-major copies keep every point column the kernel broadcasts
    # unit-stride: the chunked 1000 x 1000 kernel took 20.0 ms against
    # 23.3 ms with strided columns (min of 150, 2-core Xeon).
    sources = np.ascontiguousarray(sources.T).T
    targets = np.ascontiguousarray(targets.T).T
    # Only one candidate set per chunk stays alive: keeping every
    # threshold's set at once raised the sweep-t benchmark's peak RSS by
    # 0.05-1.55 MB in 6 of 6 pairs (2-core Xeon).
    order = sorted(range(len(specs)), key=lambda k: -specs[k].t)
    # t_max = 0 marks a pass without zero-outlier specs, and no candidates.
    # sqrt is monotone and correctly rounded, so sqrt(x) < t_max means
    # x < t_max^2 exactly, and such a double x is at most fl(t_max * t_max).
    t_max = max((s.t for s in specs if s.kind in _ZERO_OUTLIER_KINDS),
                default=0.0)
    dense = any(s.kind not in _ZERO_OUTLIER_KINDS for s in specs)
    # One zeroed scatter buffer, reused by every spec and chunk; each
    # reduction clears what it wrote.
    sink = np.zeros(rows * n)
    # Chunks alternate between two result buffers: the helper fills one
    # while the calling thread reduces the other. Only the helper touches
    # the scratch pair.
    results = np.empty((2, rows, n))
    scratch = np.empty((2, rows, n))

    def candidates(e2):
        """[t_max, flat positions, errors] of the errors below t_max."""
        flat = np.flatnonzero(e2 <= t_max * t_max)
        ce = e2.reshape(-1)[flat]
        np.sqrt(ce, out=ce)
        keep = ce < t_max
        return [t_max, flat[keep], ce[keep]]

    def reduce(spec, block):
        e, cut = block  # e holds e^2 when no spec grades outliers
        if spec.kind not in _ZERO_OUTLIER_KINDS:
            return np.sum(_score_array(spec, e), axis=1)
        if spec.t < cut[0]:  # the first spec at this t narrows the set
            keep = cut[2] < spec.t
            cut[:] = spec.t, cut[1][keep], cut[2][keep]
        _, idx, ce = cut
        if spec.kind is MetricKind.INLIER_COUNT:
            return np.bincount(idx // n, minlength=e.shape[0])
        sink[idx] = _FORMULAS[spec.kind][0](spec, ce)
        total = np.sum(sink[:e.size].reshape(e.shape), axis=1)
        sink[idx] = 0.0
        return total

    # Only the kernel runs on the helper, into the buffers above, so it
    # allocates nothing there. Candidate extraction and the reductions stay
    # on this thread. Leaving the `with` block waits for the kernel in
    # flight, also when a step raises.
    with ThreadPoolExecutor(1) as pool:
        def kernel(lo):
            r = min(chunk, h - lo)
            return pool.submit(
                _errors_batch, rotations[lo:lo + r], translations[lo:lo + r],
                sources, targets, out=(results[lo // chunk % 2, :r],
                                       scratch[0, :r], scratch[1, :r]))

        def blocks():
            pending = kernel(0)
            for lo in range(0, h, chunk):
                e = pending.result()
                if lo + chunk < h:  # the next chunk, while this one is reduced
                    pending = kernel(lo + chunk)
                cut = candidates(e) if t_max else None
                if dense:  # after the extraction, which reads e^2
                    np.sqrt(e, out=e)
                yield slice(lo, lo + chunk), (e, cut)

        return _score_pass(specs, order, h, blocks(), reduce)


def _cloud_points(kind: MetricKind, source,
                  target_index: NeighborIndex | None) -> np.ndarray:
    """The checked (N, 3) points of cloud metric `kind`'s source:
    MissingClouds if `source` or `target_index` is None, EmptyCloud if
    N = 0, InvalidInput if malformed or `target_index` is not a
    NeighborIndex."""
    if source is None or target_index is None:
        raise MissingClouds(f"{kind} needs source cloud and target index")
    _require_type(target_index, NeighborIndex, kind)
    pts = _as_points(source, "source")
    if pts.shape[0] == 0:
        raise EmptyCloud("source cloud is empty")
    return pts


def _moved(rotation: np.ndarray, translation: np.ndarray,
           points: np.ndarray) -> np.ndarray:
    """`points` moved by one hypothesis (R, t). A moved point's bits do not
    depend on its row, so reordering `points` reorders the result and
    changes none of its values."""
    moved = np.matmul(points, rotation.T)
    moved += translation
    return moved


def _cloud_score(spec: MetricSpec, dists: np.ndarray) -> float:
    """The score of one hypothesis's (n,) nearest-neighbour distances."""
    if spec.kind is MetricKind.PC_DIST:
        return -np.mean(dists)
    return np.count_nonzero(dists < spec.t_overlap)


# The sphere bound's absolute rounding margin. A norm of a difference of
# two points, fl(sqrt(fl(a^2) + fl(b^2) + fl(c^2))) with each component
# fl(x_k - y_k) summed in any order, as numpy and the k-d tree take it, is
# within a factor (1 +- u)^3.5 < 1 +- 4u of the exact norm, u = eps / 2,
# where no square underflows. Squares that do lose at most 2^-1075 each,
# and the sqrt turns the few lost into at most sqrt(4 * 2^-1075) < 1e-161
# of the norm; this margin covers that. Coordinates reach `_MOVED_LIMIT`
# = 6e75, so every square stays below 1e152 and none overflows.
_SPHERE_FLOOR = 1e-150


def _bounding_sphere(points: np.ndarray) -> tuple[np.ndarray, float]:
    """(centre, reach): the centre of the bounding box of `points` and a
    radius of at least r + 3 `_SPHERE_FLOOR`, r the exact largest distance
    from the centre to a point.

    Each point's computed distance is at least its exact one times
    (1 - 4u), less the floor f, so r <= (max + f) / (1 - 4u), and
    fl(fl(max + 4f) (1 + 16 eps)) >= (max + f) (1 + 29u) + 3f >= r + 3f.
    """
    centre = (points.min(axis=0) + points.max(axis=0)) / 2.0
    reach = ((_scan_distances(points, centre).max() + 4.0 * _SPHERE_FLOOR)
             * (1.0 + 16.0 * np.finfo(np.float64).eps))
    return centre, reach


def _sphere_gaps(moved: np.ndarray, centre: np.ndarray, reach: float
                 ) -> np.ndarray:
    """Per-point lower bounds on the k-d tree's distances from `moved` to
    the points that `_bounding_sphere` gave (`centre`, `reach`), computed
    in (n,) buffers only.

    Every indexed point lies within the exact radius r of the centre c, so
    x lies at least |x - c| - r from each, and the tree's distance d is at
    least that times (1 - 4u), less the floor f. The computed |x - c| is at
    most |x - c| (1 + 4u) + f, and fl(it (1 - 8 eps)) at most
    |x - c| (1 - 11u) + f. With reach >= r + 3f, the rounded difference,
    where positive, is at most (|x - c| - r) (1 + u) - 11u |x - c| - 2f,
    which is at most (|x - c| - r) (1 - 4u) - f <= d.
    """
    gap = np.zeros(moved.shape[0])
    term = np.empty(moved.shape[0])
    for k in range(3):
        np.subtract(moved[:, k], centre[k], out=term)
        gap += np.square(term, out=term)
    np.sqrt(gap, out=gap)
    gap *= 1.0 - 8.0 * np.finfo(np.float64).eps
    gap -= reach
    return np.maximum(gap, 0.0, out=gap)


# Source points per k-d tree query in the cloud pass. Before each block a
# hypothesis stops once an earlier one provably scores at least as high, so
# smaller blocks query fewer points but pay each query's fixed cost more
# often. With the bounding-sphere bound, a `cloud-holes` benchmark op
# (seed 3, mean of 8 ops, 2-core Intel Xeon) queried 415 k of 2 M source
# points at 256, 422 k at 512, 437 k at 1024 and 470 k at 2048; two 12 s
# runs each (seed 41) read 13.5 / 11.0 registrations/s at 256, 13.2 / 12.0
# at 512, 13.7 / 11.3 at 1024 and 12.5 / 10.0 at 2048. 256 to 1024 lie
# within each other's spread; 1024 makes the fewest calls.
_CLOUD_BLOCK = 1024


def _cloud_values_batch(specs, rotations: np.ndarray, translations: np.ndarray,
                        points: np.ndarray, target_index: NeighborIndex
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Whole-cloud scores of many hypotheses for several cloud specs at
    once; see :func:`_score_pass`.

    A pool of one thread per CPU core lives for the pass. Each task moves
    the source cloud by one hypothesis and queries it with
    `target_index.nearest_distances` in blocks of `_CLOUD_BLOCK` points;
    the calling thread takes the distance rows in hypothesis order, at
    most 2 x width tasks ahead, and every spec reduces each row. The
    source points are queried in `_leaf_order`, so consecutive queries
    walk the same branches of the tree, and each row is scattered back to
    the callers' point order before any reduction: pc-dist's mean sums in
    the same order as :func:`evaluate_hypothesis_cloud` and every score
    keeps its bits.

    After reducing hypothesis i the calling thread publishes each spec's
    best score over hypotheses 0..i. Each task also bounds every moved
    point's distance from below by its gap to the target's bounding
    sphere (:func:`_sphere_gaps`, O(n) numpy, no query). Before every
    block, the first one included, it bounds its hypothesis's scores:
    pc-dist's mean is at least the running distance sum plus the gaps of
    the points not yet queried, over n, less a rounding margin, and
    overlap-count's count is at most the running hit count plus the
    unqueried points whose gap is below t_overlap. When no spec's bound
    exceeds its published best, an earlier hypothesis scores at least as
    high on every spec and wins every prefix of the stream that holds both
    (ties go to the earlier), so the task stops, possibly before its first
    query, and the hypothesis scores -inf. Every other score is exact:
    values[k, i] is exact wherever i can be a prefix's first maximum.

    Eval time is :func:`_score_pass`'s. Here the shared pass is the
    calling thread's wait on the pool.
    """
    h, n = rotations.shape[0], points.shape[0]
    order = _leaf_order(points)
    coherent = points[order]
    width = os.cpu_count() or 1
    best = dict.fromkeys(specs, -np.inf)
    # For n non-negative terms summed in any order, each rounded sum is
    # within a factor (1 +- u)^n of the exact one, u = eps / 2: the running
    # sum s of the queried distances, the sum g of the unqueried points'
    # gaps (each at most its distance) and numpy's sum of the full row all
    # are, and fl(s + g) rounds once more. So that row sums to at least
    # fl(s + g) (1 - (n + 1) eps), which fl(fl(s + g) * slack) does not
    # exceed, and the mean, fl(sum / n), is at least that over n, rounded.
    slack = 1.0 - 4.0 * (n + 2) * np.finfo(np.float64).eps
    centre, reach = _bounding_sphere(target_index.points)
    starts = np.arange(0, n, _CLOUD_BLOCK)

    def later(values):
        """The sums of `values` over the blocks from each block on."""
        return np.cumsum(np.add.reduceat(values, starts)[::-1])[::-1]

    def bound(spec, acc, rest):
        """An upper bound on `spec`'s score of a hypothesis whose queried
        points have distance sum or hit count `acc` and whose unqueried
        ones have gap sum or gaps below t_overlap `rest`."""
        if spec.kind is MetricKind.PC_DIST:
            return -((acc + rest) * slack / n)
        return acc + rest

    def task(i):
        moved = _moved(rotations[i], translations[i], coherent)
        gap = _sphere_gaps(moved, centre, reach)
        rests = [later(gap if spec.kind is MetricKind.PC_DIST
                       else gap < spec.t_overlap) for spec in specs]
        dists = np.empty(n)
        acc = [0] * len(specs)
        for j, lo in enumerate(starts):
            if all(bound(spec, a, rest[j]) <= best[spec]
                   for spec, a, rest in zip(specs, acc, rests)):
                return None
            block = dists[lo:lo + _CLOUD_BLOCK]
            block[:] = target_index.nearest_distances(
                moved[lo:lo + _CLOUD_BLOCK])
            for k, spec in enumerate(specs):
                acc[k] += (np.sum(block) if spec.kind is MetricKind.PC_DIST
                           else np.count_nonzero(block < spec.t_overlap))
        row = np.empty(n)
        row[order] = dists
        return row

    def reduce(spec, row):
        if row is None:  # stopped: an earlier hypothesis wins
            return -np.inf
        score = _cloud_score(spec, row)
        best[spec] = max(best[spec], score)
        return score

    # Leaving the `with` block waits for every submitted task and joins the
    # pool's threads, also when a step raises.
    with ThreadPoolExecutor(width) as pool:
        def blocks():
            ahead = 2 * width
            pending = deque(pool.submit(task, i) for i in range(min(ahead, h)))
            for i in range(h):
                row = pending.popleft().result()
                if i + ahead < h:
                    pending.append(pool.submit(task, i + ahead))
                yield slice(i, i + 1), row

        return _score_pass(specs, range(len(specs)), h, blocks(), reduce)


def evaluate_hypothesis(spec: MetricSpec, transform: RigidTransform,
                        corrs: CorrespondenceSet) -> HypothesisScore:
    """Total score S(T) = sum of per-correspondence scores; empty set -> 0.

    The RANSAC loop scores through :func:`_corr_values_batch`, which gives
    the same bits. InvalidInput unless `transform` is a RigidTransform and
    `corrs` a CorrespondenceSet.
    """
    _require_type(transform, RigidTransform, spec.kind)
    _require_type(corrs, CorrespondenceSet, spec.kind)
    errors = _pair_errors(transform.rotation, transform.translation,
                          corrs.sources, corrs.targets)
    return HypothesisScore(np.sum(score_errors(spec, errors)), spec.kind)


def evaluate_hypothesis_cloud(spec: MetricSpec, transform: RigidTransform,
                              source, target_index: NeighborIndex
                              ) -> HypothesisScore:
    """Whole-cloud score of a hypothesis.

    pc-dist: negated mean distance from each transformed source point to
    its nearest target point (0 is perfect). overlap-count: number of
    transformed source points strictly within t_overlap of the target.
    MissingClouds when `source` or `target_index` is None; InvalidInput
    unless `transform` is a RigidTransform and `target_index` a
    NeighborIndex.
    """
    _require_kind(spec, cloud=True)
    _require_type(transform, RigidTransform, spec.kind)
    points = _cloud_points(spec.kind, source, target_index)
    dists = target_index.nearest_distances(
        _moved(transform.rotation, transform.translation, points))
    return HypothesisScore(_cloud_score(spec, dists), spec.kind)
