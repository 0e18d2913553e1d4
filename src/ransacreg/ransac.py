"""Seeded RANSAC for 6-DoF registration from putative correspondences.

Each iteration samples a minimal triple of correspondences, solves the
rigid transform, and scores it with the configured metric; the hypothesis
with the maximum score wins, ties broken by earliest iteration. The
iteration budget is fixed (no early exit) so different metrics see the
same hypothesis stream, and the sample sequence is a pure function of the
seed.

The engine runs in two steps. `_sample_hypotheses` draws and solves the
whole stream, which is a pure function of (correspondences, seed,
budget); `_score_hypotheses` then scores it under any number of metric
specs from one shared error or nearest-neighbour pass. `run_ransac` is the
two steps with one spec plus an argmax; the benchmark harness scores one
stream under every metric and sweep value.

Internally the samples are drawn in bulk: one `Generator.integers` call
makes the bounded integers of many `Generator.choice` calls, so they are
bit-equal to the `sample_minimal` loop that defines them, and the
per-iteration solves run through a batched kernel whose arithmetic
matches the public solver element for element, so replaying the trace
with `sample_minimal` + `estimate_rigid_transform` +
`evaluate_hypothesis` reproduces the result bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import (BadConfig, PersistentDegeneracy, TooFewCorrespondences,
                     _check_integers, _require_type)
from .geom import (RigidTransform, _degeneracy_threshold, _estimate_rigid_batch,
                   _triangle_areas, triangle_area)
from .metrics import (CLOUD_KINDS, CorrespondenceSet, HypothesisScore,
                      MetricSpec, _cloud_points, _cloud_values_batch,
                      _corr_values_batch)
from .spatial import NeighborIndex

__all__ = [
    "RansacConfig",
    "RegistrationResult",
    "run_ransac",
    "sample_minimal",
    "SAMPLE_SIZE",
]

# Only the 3-point minimal solver is supported.
SAMPLE_SIZE = 3

# The largest budget: the sampler counts hypotheses in int64.
_MAX_ITERATIONS = 2**63 - 1


@dataclass(frozen=True)
class RansacConfig:
    """Engine parameters.

    Sampling uses numpy's PCG64 generator seeded with `seed`, so the
    hypothesis stream is reproducible across runs and platforms.
    `degeneracy_retries` bounds how many times one iteration may redraw
    a collinear sample before giving up.
    """

    metric: MetricSpec
    seed: int
    iterations: int = 1000
    sample_size: int = SAMPLE_SIZE
    degeneracy_retries: int = 100

    def __post_init__(self):
        _require_type(self.metric, MetricSpec, "RansacConfig.metric",
                      BadConfig)
        _check_integers(self, seed=0, iterations=1, sample_size=SAMPLE_SIZE,
                        degeneracy_retries=1)
        if self.iterations > _MAX_ITERATIONS:
            raise BadConfig(f"iterations must be <= 2**63 - 1, got {self.iterations}")
        if self.sample_size != SAMPLE_SIZE:
            raise BadConfig("only 3-point minimal samples are supported")


@dataclass(frozen=True, eq=False)
class RegistrationResult:
    """Outcome of one RANSAC run.

    `best_iteration` is the 0-based index of the first iteration that
    attained the maximum score. `elapsed_eval_time` covers hypothesis
    scoring only: the metric's eval time as
    :func:`~ransacreg.metrics._score_pass` defines it. For a cloud metric
    that covers only the queries made before each hypothesis stopped
    (see :func:`~ransacreg.metrics._cloud_values_batch`).
    `elapsed_total_time` covers the whole run.
    """

    best_transform: RigidTransform
    best_score: HypothesisScore
    best_iteration: int
    hypotheses_evaluated: int
    elapsed_eval_time: float
    elapsed_total_time: float


def sample_minimal(corrs: CorrespondenceSet, rng: np.random.Generator, *,
                   min_triangle_area: float | None = None,
                   degeneracy_retries: int = 100) -> np.ndarray:
    """Draw 3 distinct correspondence indices, redrawing degenerate triples.

    Indices are uniform without replacement; a draw whose source points
    span a triangle of area <= `min_triangle_area` (default: 1e-6 times
    the squared resolution of the correspondence source points) is
    rejected and redrawn, up to `degeneracy_retries` extra attempts. The
    generator advances in place, fixing the sample sequence for a seed.

    This is the definition of the engine's sample sequence and the one
    replay uses: iteration i of a run seeded with `seed` draws what the
    i-th call on `np.random.default_rng(seed)` returns. The engine makes
    the same draws in bulk (`_sample_triples`).

    Raises :class:`InvalidInput` unless `corrs` is a CorrespondenceSet,
    :class:`TooFewCorrespondences` below 3 items and
    :class:`PersistentDegeneracy` when every attempt was degenerate.
    """
    _require_type(corrs, CorrespondenceSet, "sample_minimal")
    n = corrs.n
    if n < SAMPLE_SIZE:
        raise TooFewCorrespondences(f"need >= {SAMPLE_SIZE} correspondences, got {n}")
    if min_triangle_area is None:
        min_triangle_area = _degeneracy_threshold(corrs.sources)
    src = corrs.sources
    for _ in range(degeneracy_retries + 1):
        idx = rng.choice(n, size=SAMPLE_SIZE, replace=False)
        if triangle_area(src[idx[0]], src[idx[1]], src[idx[2]]) > min_triangle_area:
            return idx
    raise PersistentDegeneracy(
        f"no non-collinear sample in {degeneracy_retries + 1} attempts")


# `Generator.choice(n, 3, replace=False)` (numpy 2.4) makes five bounded
# draws: Floyd's algorithm over [0, n-3], [0, n-2] and [0, n-1], then a
# shuffle over [0, 2] and [0, 1]. Each is numpy's bounded-integer step,
# the one `Generator.integers` takes for every element of an array of
# bounds, so one `integers` call makes the draws of many `choice` calls.
def _choices(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """The (m, 3) triples that m consecutive `rng.choice(n, 3,
    replace=False)` calls return, leaving `rng` in the state they would."""
    v = rng.integers(0, [n - 2, n - 1, n, 3, 2], size=(m, 5))
    # Floyd's collision fix: a repeated draw j takes the top of its range.
    first = v[:, 0]
    second = np.where(v[:, 1] == first, n - 2, v[:, 1])
    third = np.where((v[:, 2] == first) | (v[:, 2] == second), n - 1, v[:, 2])
    triples = np.column_stack([first, second, third])
    rows = np.arange(m)
    for i, j in ((2, v[:, 3]), (1, v[:, 4])):  # swap data[j] and data[i]
        swapped = triples[rows, j]
        triples[rows, j] = triples[:, i]
        triples[:, i] = swapped
    return triples


def _sample_triples(corrs: CorrespondenceSet, seed: int, iterations: int,
                    retries: int, min_area: float) -> np.ndarray:
    """The (iterations, 3) triples that `iterations` calls of
    `sample_minimal(corrs, np.random.default_rng(seed),
    min_triangle_area=min_area, degeneracy_retries=retries)` return, bit
    for bit, drawn in bulk.

    The loop's candidates are consecutive `choice` calls on one
    generator, so each round draws a block of them at once (`_choices`)
    and masks the degenerate ones; iteration i takes the i-th accepted
    candidate, and PersistentDegeneracy is raised where `retries + 1`
    consecutive rejections fall inside one iteration. MemoryError, before
    any allocation, when a round's draws are too many for one array.
    """
    src = corrs.sources
    rng = np.random.default_rng(seed)
    triples = np.empty((0, SAMPLE_SIZE), dtype=np.intp)
    accepted = np.empty(0, dtype=bool)
    while True:
        need = int(iterations - np.count_nonzero(accepted))
        m = need + need // 16 + 8
        if m * 5 * 8 > np.iinfo(np.intp).max:  # the (m, 5) int64 draws
            raise MemoryError(f"a budget of {iterations} hypotheses draws "
                              f"{m} samples, more than one array can hold")
        block = _choices(rng, corrs.n, m)
        triples = np.concatenate([triples, block])
        accepted = np.concatenate([accepted, _triangle_areas(
            src[block[:, 0]], src[block[:, 1]], src[block[:, 2]]) > min_area])
        kept = np.flatnonzero(accepted)
        # Rejections before each accepted candidate, then after the last.
        runs = np.diff(kept, prepend=-1, append=accepted.size) - 1
        if np.any(runs[:iterations] > retries):
            raise PersistentDegeneracy(
                f"no non-collinear sample in {retries + 1} attempts")
        if kept.size >= iterations:
            return triples[kept[:iterations]]


def _sample_hypotheses(corrs: CorrespondenceSet, seed: int, iterations: int,
                       degeneracy_retries: int = 100
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Draw `iterations` minimal samples with a generator seeded by `seed`
    and solve each: the stream's (rotations (H, 3, 3), translations (H, 3)).

    The samples are `sample_minimal`'s sequence, which replay uses;
    `_sample_triples` makes the same draws in bulk. Row i is iteration
    i's hypothesis, so the first k rows do not depend on the budget.
    """
    if corrs.n < SAMPLE_SIZE:
        raise TooFewCorrespondences(
            f"need >= {SAMPLE_SIZE} correspondences, got {corrs.n}")
    triples = _sample_triples(corrs, seed, iterations, degeneracy_retries,
                              _degeneracy_threshold(corrs.sources))
    return _estimate_rigid_batch(corrs.sources[triples], corrs.targets[triples])


def _score_hypotheses(rotations: np.ndarray, translations: np.ndarray, specs,
                      corrs: CorrespondenceSet, source=None,
                      target_index: NeighborIndex | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Score every hypothesis of a stream under every spec.

    Returns (values, seconds): values[k, i] is specs[k]'s score of
    hypothesis i, exact wherever i can be a prefix's first maximum, -inf
    where an earlier hypothesis provably scores at least as high on every
    cloud spec of the pass (proved before each block of k-d tree queries,
    the first one included, from the distances queried so far and the
    other points' gaps to the target's bounding sphere); seconds[k] is
    the time the calling thread spent in the shared pass plus spec k's
    own reductions. Correspondence specs share one error pass
    (:func:`~ransacreg.metrics._corr_values_batch`), cloud specs one
    nearest-neighbour pass
    (:func:`~ransacreg.metrics._cloud_values_batch`), which needs `source`
    and `target_index`; MissingClouds, EmptyCloud or InvalidInput is raised
    before any scoring when they are absent, the source is empty or its
    points are malformed.
    """
    values = np.empty((len(specs), rotations.shape[0]))
    seconds = np.empty(len(specs))
    corr_rows = [k for k, s in enumerate(specs) if s.kind not in CLOUD_KINDS]
    cloud_rows = [k for k, s in enumerate(specs) if s.kind in CLOUD_KINDS]
    if cloud_rows:
        points = _cloud_points(specs[cloud_rows[0]].kind, source, target_index)
    if corr_rows:
        values[corr_rows], seconds[corr_rows] = _corr_values_batch(
            [specs[k] for k in corr_rows], rotations, translations,
            corrs.sources, corrs.targets)
    if cloud_rows:
        values[cloud_rows], seconds[cloud_rows] = _cloud_values_batch(
            [specs[k] for k in cloud_rows], rotations, translations, points,
            target_index)
    return values, seconds


def run_ransac(config: RansacConfig, corrs: CorrespondenceSet,
               source=None, target_index: NeighborIndex | None = None
               ) -> RegistrationResult:
    """Run the full sample/solve/score loop and return the best hypothesis.

    `source` and `target_index` are required exactly when the configured
    metric compares whole clouds (pc-dist, overlap-count); correspondence
    metrics ignore them. Deterministic given (config, inputs). InvalidInput
    unless `config` is a RansacConfig, `corrs` a CorrespondenceSet and, for
    a cloud metric, `target_index` a NeighborIndex.
    """
    t_start = time.perf_counter()
    _require_type(config, RansacConfig, "run_ransac")
    _require_type(corrs, CorrespondenceSet, "run_ransac")
    rotations, translations = _sample_hypotheses(
        corrs, config.seed, config.iterations, config.degeneracy_retries)
    values, seconds = _score_hypotheses(rotations, translations,
                                        (config.metric,), corrs, source,
                                        target_index)
    # np.argmax takes the first maximum: earliest-iteration tie rule.
    best_i = int(np.argmax(values[0]))
    return RegistrationResult(
        best_transform=RigidTransform(rotations[best_i], translations[best_i]),
        best_score=HypothesisScore(values[0, best_i], config.metric.kind),
        best_iteration=best_i,
        hypotheses_evaluated=config.iterations,
        elapsed_eval_time=float(seconds[0]),
        elapsed_total_time=time.perf_counter() - t_start,
    )
