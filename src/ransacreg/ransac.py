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

Internally the per-iteration solves run through a batched kernel whose
arithmetic matches the public solver element for element, so replaying
the trace with `sample_minimal` + `estimate_rigid_transform` +
`evaluate_hypothesis` reproduces the result bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import (BadConfig, MissingClouds, PersistentDegeneracy,
                     TooFewCorrespondences)
from .geom import (DEGENERACY_AREA_FACTOR, RigidTransform, _estimate_rigid_batch,
                   cloud_resolution, triangle_area)
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
        if self.seed < 0:
            raise BadConfig(f"seed must be non-negative, got {self.seed}")
        if self.iterations < 1:
            raise BadConfig(f"iterations must be >= 1, got {self.iterations}")
        if self.sample_size != SAMPLE_SIZE:
            raise BadConfig("only 3-point minimal samples are supported")
        if self.degeneracy_retries < 1:
            raise BadConfig("degeneracy_retries must be >= 1")


@dataclass(frozen=True, eq=False)
class RegistrationResult:
    """Outcome of one RANSAC run.

    `best_iteration` is the 0-based index of the first iteration that
    attained the maximum score. `elapsed_eval_time` covers hypothesis
    scoring only; `elapsed_total_time` covers the whole run.
    """

    best_transform: RigidTransform
    best_score: HypothesisScore
    best_iteration: int
    hypotheses_evaluated: int
    elapsed_eval_time: float
    elapsed_total_time: float


def _degeneracy_area(corrs: CorrespondenceSet) -> float:
    res = cloud_resolution(corrs.sources)
    return DEGENERACY_AREA_FACTOR * res * res


def sample_minimal(corrs: CorrespondenceSet, rng: np.random.Generator, *,
                   min_triangle_area: float | None = None,
                   degeneracy_retries: int = 100) -> np.ndarray:
    """Draw 3 distinct correspondence indices, redrawing degenerate triples.

    Indices are uniform without replacement; a draw whose source points
    span a triangle of area <= `min_triangle_area` (default: 1e-6 times
    the squared resolution of the correspondence source points) is
    rejected and redrawn, up to `degeneracy_retries` extra attempts. The
    generator advances in place, fixing the sample sequence for a seed.

    Raises :class:`TooFewCorrespondences` below 3 items and
    :class:`PersistentDegeneracy` when every attempt was degenerate.
    """
    n = corrs.n
    if n < SAMPLE_SIZE:
        raise TooFewCorrespondences(f"need >= {SAMPLE_SIZE} correspondences, got {n}")
    if min_triangle_area is None:
        min_triangle_area = _degeneracy_area(corrs)
    src = corrs.sources
    for _ in range(degeneracy_retries + 1):
        idx = rng.choice(n, size=SAMPLE_SIZE, replace=False)
        if triangle_area(src[idx[0]], src[idx[1]], src[idx[2]]) > min_triangle_area:
            return idx
    raise PersistentDegeneracy(
        f"no non-collinear sample in {degeneracy_retries + 1} attempts")


def _sample_hypotheses(corrs: CorrespondenceSet, seed: int, iterations: int,
                       degeneracy_retries: int = 100
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Draw `iterations` minimal samples with a generator seeded by `seed`
    and solve each: the stream's (rotations (H, 3, 3), translations (H, 3)).

    Row i is iteration i's hypothesis, so the first k rows do not depend
    on the budget.
    """
    if corrs.n < SAMPLE_SIZE:
        raise TooFewCorrespondences(
            f"need >= {SAMPLE_SIZE} correspondences, got {corrs.n}")
    rng = np.random.default_rng(seed)
    min_area = _degeneracy_area(corrs)
    triples = np.empty((iterations, SAMPLE_SIZE), dtype=np.intp)
    for i in range(iterations):
        triples[i] = sample_minimal(corrs, rng, min_triangle_area=min_area,
                                    degeneracy_retries=degeneracy_retries)
    return _estimate_rigid_batch(corrs.sources[triples], corrs.targets[triples])


def _score_hypotheses(rotations: np.ndarray, translations: np.ndarray, specs,
                      corrs: CorrespondenceSet, source=None,
                      target_index: NeighborIndex | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Score every hypothesis of a stream under every spec.

    Returns (values, seconds): values[k, i] is specs[k]'s score of
    hypothesis i, and seconds[k] the time of the shared error (or
    nearest-neighbour) pass plus spec k's own reductions. Correspondence
    specs share one chunked error pass, which also extracts the errors
    below the largest threshold of the kinds whose outliers score 0, so
    those specs touch only their own inliers; see
    :func:`~ransacreg.metrics._corr_values_batch`. Cloud specs share one
    nearest-neighbour query per hypothesis and need `source` and
    `target_index`; MissingClouds or EmptyCloud is raised before any
    scoring when they are absent or the source is empty.
    """
    values = np.empty((len(specs), rotations.shape[0]))
    seconds = np.empty(len(specs))
    corr_rows = [k for k, s in enumerate(specs) if s.kind not in CLOUD_KINDS]
    cloud_rows = [k for k, s in enumerate(specs) if s.kind in CLOUD_KINDS]
    if cloud_rows:
        if source is None or target_index is None:
            raise MissingClouds(
                f"{specs[cloud_rows[0]].kind} needs source cloud and target index")
        points = _cloud_points(source)
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
    metrics ignore them. Deterministic given (config, inputs).
    """
    t_start = time.perf_counter()
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
