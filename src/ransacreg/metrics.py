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

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptyCloud, InvalidSpec
from .geom import RigidTransform
from .spatial import NeighborIndex

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


# The six shaped residual scores introduced on top of the four baselines.
PROPOSED_KINDS = frozenset({
    MetricKind.MAE, MetricKind.MSE, MetricKind.LOG_COSH,
    MetricKind.EXP, MetricKind.QUANTILE, MetricKind.NEG_QUANTILE,
})
CLOUD_KINDS = frozenset({MetricKind.PC_DIST, MetricKind.OVERLAP_COUNT})
CORRESPONDENCE_KINDS = frozenset(MetricKind) - CLOUD_KINDS


def _point3(value, name: str) -> np.ndarray:
    p = np.array(value, dtype=np.float64, copy=True).reshape(3)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name} must be finite")
    p.setflags(write=False)
    return p


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A putative match c = (p_s, p_t) between a source and a target point."""

    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "source", _point3(self.source, "source"))
        object.__setattr__(self, "target", _point3(self.target, "target"))


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """An ordered collection of correspondences, stored as parallel arrays.

    `sources[j]` pairs with `targets[j]`. Array storage keeps hypothesis
    evaluation vectorized; `items` offers the per-item view.
    """

    sources: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        src = np.array(self.sources, dtype=np.float64, copy=True).reshape(-1, 3)
        tgt = np.array(self.targets, dtype=np.float64, copy=True).reshape(-1, 3)
        if src.shape != tgt.shape:
            raise ValueError(
                f"sources/targets must pair up, got {src.shape} vs {tgt.shape}")
        if not (np.all(np.isfinite(src)) and np.all(np.isfinite(tgt))):
            raise ValueError("correspondence coordinates must be finite")
        src.setflags(write=False)
        tgt.setflags(write=False)
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
        idx = np.asarray(indices)
        return CorrespondenceSet(self.sources[idx], self.targets[idx])


@dataclass(frozen=True)
class MetricSpec:
    """Which scoring function to use plus its parameters.

    All distances are world units. `t` is the inlier threshold, `m` the
    quantile weight, `t_overlap` the overlap-count radius (defaults to
    2 * pr when omitted), and `pr` the cloud resolution used to express
    LOG-COSH residuals in resolution units.
    """

    kind: MetricKind
    t: float
    m: float = 0.9
    pr: float = 1.0
    t_overlap: float | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "kind", MetricKind(self.kind))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "pr", float(self.pr))
        if not (np.isfinite(self.t) and self.t > 0.0):
            raise InvalidSpec(f"threshold t must be positive, got {self.t}")
        if not (0.0 < self.m < 1.0):
            raise InvalidSpec(f"quantile weight m must lie in (0, 1), got {self.m}")
        if not (np.isfinite(self.pr) and self.pr > 0.0):
            raise InvalidSpec(f"resolution pr must be positive, got {self.pr}")
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
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "kind", MetricKind(self.kind))
        if not np.isfinite(self.value):
            raise ValueError(f"score must be finite, got {self.value}")


def _require_kind(spec: MetricSpec, *, cloud: bool) -> None:
    """Raise InvalidSpec unless `spec` compares whole clouds exactly when `cloud`."""
    if (spec.kind in CLOUD_KINDS) == cloud:
        return
    hint = ("scores correspondences; use evaluate_hypothesis" if cloud
            else "compares whole clouds; use evaluate_hypothesis_cloud")
    raise InvalidSpec(f"{spec.kind} {hint}")


def _errors_batch(rotations: np.ndarray, translations: np.ndarray,
                  sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Errors ||R p_s + t - p_t|| for a batch of transforms, shape (h, n).

    Built purely from elementwise ufuncs (no einsum or BLAS), so every
    entry is computed by the same scalar expression tree regardless of
    batch size: row i of an h-batch is bit-identical to the h=1 result.
    """
    s0 = sources[:, 0]
    s1 = sources[:, 1]
    s2 = sources[:, 2]

    def axis_sq(k: int) -> np.ndarray:
        moved_k = (s0 * rotations[:, k, 0, np.newaxis]
                   + s1 * rotations[:, k, 1, np.newaxis]
                   + s2 * rotations[:, k, 2, np.newaxis])
        moved_k += translations[:, k, np.newaxis]
        moved_k -= targets[:, k]
        moved_k *= moved_k
        return moved_k

    e2 = axis_sq(0)
    e2 += axis_sq(1)
    e2 += axis_sq(2)
    return np.sqrt(e2, out=e2)


def _pair_errors(rotation: np.ndarray, translation: np.ndarray,
                 sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Transformation errors ||R p_s + t - p_t|| for parallel point arrays."""
    return _errors_batch(rotation[np.newaxis], translation[np.newaxis],
                         sources, targets)[0]


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
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1:
        e = e.reshape(-1)
    if e.size and (not np.all(np.isfinite(e)) or np.min(e) < 0.0):
        raise ValueError("transformation errors must be finite and non-negative")
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
        raise ValueError(f"transformation error must be finite and >= 0, got {e}")
    return float(score_errors(spec, np.array([e]))[0])


def _corr_value(spec: MetricSpec, rotation: np.ndarray, translation: np.ndarray,
                sources: np.ndarray, targets: np.ndarray) -> float:
    # Shared kernel: the RANSAC loop scores raw (R, t) pairs through this
    # same code path, so replayed evaluations are bit-identical.
    return float(np.sum(score_errors(
        spec, _pair_errors(rotation, translation, sources, targets))))


# Cap on hypotheses x correspondences elements held live per batch chunk.
# At 512 KiB per float64 temporary the error kernel's few temporaries fit
# a 2 MiB L2: on a 2-core Xeon with 2 MiB L2 per core, the error pass of a
# 1000 x 1000 stream took ~20 ms against ~32 ms at twice this cap, and
# scoring the candidates did not slow.
_BATCH_ELEMENTS = 65_536


def _score_pass(specs, h: int, blocks, reduce) -> tuple[np.ndarray, np.ndarray]:
    """Reduce every spec's scores from one shared pass over h hypotheses.

    `blocks` lazily yields (hypothesis slice, shared data) pairs and
    `reduce(spec, data)` turns one block's data into that spec's scores.
    Returns (values, seconds): values[k, i] is specs[k]'s score of
    hypothesis i; seconds[k] is the time spent producing the shared data
    plus spec k's own reductions.
    """
    values = np.empty((len(specs), h))
    own_s = np.zeros(len(specs))
    shared_s = 0.0
    t0 = time.perf_counter()
    for where, data in blocks:  # advancing `blocks` runs the shared pass
        t1 = time.perf_counter()
        shared_s += t1 - t0
        for k, spec in enumerate(specs):
            values[k, where] = reduce(spec, data)
            t0 = time.perf_counter()
            own_s[k] += t0 - t1
            t1 = t0
    return values, shared_s + own_s


def _corr_values_batch(specs, rotations: np.ndarray, translations: np.ndarray,
                       sources: np.ndarray, targets: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Scores of many (R, t) hypotheses against one correspondence set,
    for several correspondence specs at once; see :func:`_score_pass`.

    The shared pass computes each chunk of errors once and extracts its
    candidates, the errors below the largest t of the kinds whose outliers
    score 0 (inlier-count, mae, mse, log-cosh, exp). Each such spec keeps
    the candidates below its own t and evaluates its inlier formula only
    there; inlier-count just counts them per row. The other kinds score the
    dense chunk. Element-for-element identical to calling
    :func:`_corr_value` per hypothesis and spec: errors come from the
    batch-size-independent :func:`_errors_batch` kernel, and each row is
    summed with every score at its own position and 0 elsewhere, exactly
    like a standalone 1-D sum.
    """
    h = rotations.shape[0]
    n = sources.shape[0]
    chunk = max(1, _BATCH_ELEMENTS // max(n, 1))
    # Errors are non-negative, so t_max = 0 (no zero-outlier spec) leaves
    # no candidates.
    t_max = max((s.t for s in specs if s.kind in _ZERO_OUTLIER_KINDS),
                default=0.0)
    # One zeroed scatter buffer, reused by every spec and chunk; each
    # reduction clears what it wrote.
    sink = np.zeros(min(chunk, h) * n)

    def blocks():
        for lo in range(0, h, chunk):
            e = _errors_batch(rotations[lo:lo + chunk],
                              translations[lo:lo + chunk], sources, targets)
            flat = np.flatnonzero(e < t_max)
            yield slice(lo, lo + chunk), (e, flat, e.reshape(-1)[flat])

    def reduce(spec, block):
        e, flat, ce = block
        if spec.kind not in _ZERO_OUTLIER_KINDS:
            return np.sum(_score_array(spec, e), axis=1)
        inl = ce < spec.t
        idx = flat[inl]
        if spec.kind is MetricKind.INLIER_COUNT:
            return np.bincount(idx // n, minlength=e.shape[0])
        sink[idx] = _FORMULAS[spec.kind][0](spec, ce[inl])
        total = np.sum(sink[:e.size].reshape(e.shape), axis=1)
        sink[idx] = 0.0
        return total

    return _score_pass(specs, h, blocks(), reduce)


def _cloud_distances(rotation: np.ndarray, translation: np.ndarray,
                     points: np.ndarray, target_index: NeighborIndex
                     ) -> np.ndarray:
    """Nearest-target distance of every source point moved by (R, t)."""
    return target_index.nearest_distances(points @ rotation.T + translation)


def _cloud_points(source) -> np.ndarray:
    """The (N, 3) points of a PointCloud or array; raises EmptyCloud if N = 0."""
    pts = np.asarray(getattr(source, "points", source), dtype=np.float64)
    if pts.size == 0:
        raise EmptyCloud("source cloud is empty")
    return pts


def _cloud_score(spec: MetricSpec, dists: np.ndarray) -> float:
    if spec.kind is MetricKind.PC_DIST:
        return -float(np.mean(dists))
    return float(np.count_nonzero(dists < spec.t_overlap))


def _cloud_values_batch(specs, rotations: np.ndarray, translations: np.ndarray,
                        points: np.ndarray, target_index: NeighborIndex
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Whole-cloud scores of many hypotheses for several cloud specs at
    once, from one nearest-neighbour query per hypothesis; see
    :func:`_score_pass`."""
    h = rotations.shape[0]
    blocks = ((i, _cloud_distances(rotations[i], translations[i], points,
                                   target_index))
              for i in range(h))
    return _score_pass(specs, h, blocks, _cloud_score)


def evaluate_hypothesis(spec: MetricSpec, transform: RigidTransform,
                        corrs: CorrespondenceSet) -> HypothesisScore:
    """Total score S(T) = sum of per-correspondence scores; empty set -> 0."""
    value = _corr_value(spec, transform.rotation, transform.translation,
                        corrs.sources, corrs.targets)
    return HypothesisScore(value, spec.kind)


def evaluate_hypothesis_cloud(spec: MetricSpec, transform: RigidTransform,
                              source, target_index: NeighborIndex
                              ) -> HypothesisScore:
    """Whole-cloud score of a hypothesis.

    pc-dist: negated mean distance from each transformed source point to
    its nearest target point (0 is perfect). overlap-count: number of
    transformed source points strictly within t_overlap of the target.
    """
    _require_kind(spec, cloud=True)
    dists = _cloud_distances(transform.rotation, transform.translation,
                             _cloud_points(source), target_index)
    return HypothesisScore(_cloud_score(spec, dists), spec.kind)
