"""Benchmark harness: registration correctness, sweeps, and timing.

Runs seeded registration trials over a swept parameter and aggregates
per-metric accuracy, error, and timing rows. A registration is correct
when its RMSE (here: the MEAN of per-pair Euclidean errors under the
estimated pose, taken over the true correspondences) falls strictly below
d_rmse resolution units.

Seeding: every trial derives scene/correspondence/engine/nuisance seeds
from (base_seed, trial index, role) only, never from the swept value,
so all sweep values and all metrics of one trial face the same scene and
the same hypothesis stream. Each trial therefore samples and solves one
stream at the largest budget (one per sweep value on the axes that change
the correspondences) and every (metric, value) cell only re-scores it: a
`t` value is one more spec scored from the shared error pass, an
`iterations` value an argmax over a prefix of the stream, and a `d_rmse`
value a re-threshold of the same registration. Threshold-like quantities
(t, t_overlap, d_rmse) are configured in resolution units and bound to the
resolution of the (possibly degraded) target cloud of each trial.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadConfig, EmptyGroundTruth, InvalidInput, MissingClouds
from .geom import PointCloud, RigidTransform
from .metrics import (CLOUD_KINDS, CorrespondenceSet, MetricKind, MetricSpec,
                      _pair_errors, evaluate_hypothesis,
                      evaluate_hypothesis_cloud)
from .ransac import _sample_hypotheses, _score_hypotheses
from .spatial import NeighborIndex, build_index
from .synth import (CorrespondenceConfig, SceneConfig, ScenePair,
                    _hole_survivor_indices, _random_keep_indices,
                    _uniform_keep_indices, add_gaussian_noise,
                    generate_correspondences, generate_scene)

__all__ = [
    "EvalConfig",
    "ExperimentRow",
    "MetricPlan",
    "SWEEP_AXES",
    "is_correct",
    "rmse",
    "run_experiment",
    "time_metric_evaluation",
]

SWEEP_AXES = ("t", "iterations", "d_rmse", "inlier_ratio", "noise",
              "decimation-uniform", "decimation-random", "holes")

# Axes that degrade the target cloud before correspondences are drawn.
_DATA_AXES = ("noise", "decimation-uniform", "decimation-random", "holes")

_ROLE_SCENE, _ROLE_CORR, _ROLE_RANSAC, _ROLE_NUISANCE = 0, 1, 2, 3


def rmse(est: RigidTransform, gt_pairs) -> float:
    """Mean Euclidean error of the true pairs under the estimated pose.

    gt_pairs is an (N, 2, 3) array (or any sequence of (p_s, p_t) pairs);
    the value is sum_j ||R p_s_j + t - p_t_j|| / N. Despite the
    conventional name, no squaring is applied beyond the per-pair norm.
    """
    pairs = np.asarray(gt_pairs, dtype=np.float64)
    if pairs.size == 0:
        raise EmptyGroundTruth("need at least one ground-truth pair")
    if pairs.ndim != 3 or pairs.shape[1:] != (2, 3):
        raise ValueError(f"gt_pairs must have shape (N, 2, 3), got {pairs.shape}")
    errors = _pair_errors(est.rotation, est.translation,
                          pairs[:, 0, :], pairs[:, 1, :])
    return float(np.mean(errors))


def is_correct(rmse_value: float, d_rmse_pr: float, pr: float) -> bool:
    """True iff rmse_value < d_rmse_pr * pr (strict)."""
    if d_rmse_pr <= 0.0 or pr <= 0.0:
        raise ValueError("thresholds must be positive")
    return rmse_value < d_rmse_pr * pr


@dataclass(frozen=True)
class MetricPlan:
    """A metric choice with thresholds in resolution units.

    Bound to world units per trial via the target cloud's resolution:
    t = t_pr * pr and t_overlap = t_overlap_pr * pr.
    """

    kind: MetricKind
    t_pr: float = 7.5
    m: float = 0.9
    t_overlap_pr: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "kind", MetricKind(self.kind))
        if self.t_pr <= 0.0:
            raise BadConfig(f"t_pr must be positive, got {self.t_pr}")
        if not (0.0 < self.m < 1.0):
            raise BadConfig(f"m must lie in (0, 1), got {self.m}")
        if self.t_overlap_pr <= 0.0:
            raise BadConfig(f"t_overlap_pr must be positive, got {self.t_overlap_pr}")

    def bind(self, pr: float, t_pr: float | None = None) -> MetricSpec:
        t_eff = self.t_pr if t_pr is None else t_pr
        return MetricSpec(kind=self.kind, t=t_eff * pr, m=self.m, pr=pr,
                          t_overlap=self.t_overlap_pr * pr)


@dataclass(frozen=True)
class EvalConfig:
    """Sweep experiment: metrics x sweep values x seeded trials."""

    metrics: tuple[MetricPlan, ...]
    sweep_axis: str
    sweep_values: tuple[float, ...]
    trials: int = 100
    d_rmse_pr: float = 2.5
    iterations: int = 1000
    hole_fraction: float = 0.01
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "metrics", tuple(self.metrics))
        values = tuple(sorted(float(v) for v in self.sweep_values))
        object.__setattr__(self, "sweep_values", values)
        if not self.metrics:
            raise BadConfig("need at least one metric")
        if self.sweep_axis not in SWEEP_AXES:
            raise BadConfig(
                f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if not values:
            raise BadConfig("sweep_values must be non-empty")
        if self.trials < 1:
            raise BadConfig("trials must be >= 1")
        if self.d_rmse_pr <= 0.0:
            raise BadConfig("d_rmse_pr must be positive")
        if self.iterations < 1:
            raise BadConfig("iterations must be >= 1")
        if not (0.0 < self.hole_fraction < 1.0):
            raise BadConfig("hole_fraction must lie in (0, 1)")
        if self.base_seed < 0:
            raise BadConfig("base_seed must be non-negative")


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregate of one (metric, sweep value) cell.

    accuracy = correct trials / trials. mean_rmse_pr averages RMSE (in
    resolution units) over the CORRECT trials only (NaN when none).
    mean_eval_time_s is the average scoring wall time per registered pair:
    the trial's shared error (or nearest-neighbour) pass over the stream,
    including the extraction of sub-threshold candidate errors that the
    zero-outlier kinds reduce, plus this cell's own reduction (for those
    kinds, only over its own inliers), prorated to the cell's share of the
    stream on the iterations axis. It is not the cost of a separate RANSAC
    run, since sampling and solving are shared and excluded.
    index_build_time_s is the average target-index build time per pair (0
    for correspondence metrics).
    """

    metric: str
    sweep_axis: str
    sweep_value: float
    trials: int
    accuracy: float
    mean_rmse_pr: float
    mean_eval_time_s: float
    index_build_time_s: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy}")


def _derive_seed(base_seed: int, trial: int, role: int) -> int:
    seq = np.random.SeedSequence([base_seed, trial, role])
    return int(seq.generate_state(1, np.uint64)[0])


def _degrade_scene(scene: ScenePair, axis: str, value: float,
                   hole_fraction: float, seed: int) -> ScenePair:
    """Apply one nuisance to the target cloud, keeping true pairs aligned."""
    if axis == "noise":
        target = add_gaussian_noise(scene.target, value, seed)
        kept = np.arange(len(target))
    elif axis == "decimation-uniform":
        kept = _uniform_keep_indices(len(scene.target), value)
        target = scene.target.select(kept)
    elif axis == "decimation-random":
        rng = np.random.default_rng(seed)
        kept = _random_keep_indices(len(scene.target), value, rng)
        target = scene.target.select(kept)
    else:  # holes
        rng = np.random.default_rng(seed)
        kept = _hole_survivor_indices(scene.target.points, int(round(value)),
                                      hole_fraction, rng)
        target = scene.target.select(kept)
    pairs = np.stack([scene.pair_sources[kept], target.points], axis=1)
    return ScenePair(source=scene.source, target=target, gt=scene.gt,
                     gt_pairs=pairs)


def run_experiment(cfg: EvalConfig, scene_cfg: SceneConfig,
                   corr_cfg: CorrespondenceConfig) -> list[ExperimentRow]:
    """Run the full sweep and return one row per (metric, sweep value).

    scene_cfg and corr_cfg act as templates; their seeds are replaced by
    per-trial derived seeds. Row order is metric order x ascending sweep
    value. Everything except the timing fields replays bit-exactly for a
    fixed configuration, and equals what one `run_ransac` call per
    (trial, metric, value) would give.
    """
    axis = cfg.sweep_axis
    values = cfg.sweep_values
    n_metrics = len(cfg.metrics)
    n_values = len(values)
    needs_cloud = any(p.kind in CLOUD_KINDS for p in cfg.metrics)
    budgets = [int(round(v)) if axis == "iterations" else cfg.iterations
               for v in values]
    if min(budgets) < 1:
        raise BadConfig(f"iterations must be >= 1, got {min(budgets)}")
    budget = max(budgets)
    # Axes that change the correspondences need one stream per value.
    if axis in _DATA_AXES or axis == "inlier_ratio":
        groups = [[vi] for vi in range(n_values)]
    else:
        groups = [list(range(n_values))]

    correct = np.zeros((n_metrics, n_values), dtype=np.int64)
    rmse_pr_sum = np.zeros((n_metrics, n_values))
    eval_s_sum = np.zeros((n_metrics, n_values))
    build_s_sum = np.zeros((n_metrics, n_values))

    for trial in range(cfg.trials):
        clean = generate_scene(replace(
            scene_cfg, seed=_derive_seed(cfg.base_seed, trial, _ROLE_SCENE)))
        for group in groups:
            value = values[group[0]]
            effective = clean
            if axis in _DATA_AXES:
                effective = _degrade_scene(
                    clean, axis, value, cfg.hole_fraction,
                    _derive_seed(cfg.base_seed, trial, _ROLE_NUISANCE))
            ratio = value if axis == "inlier_ratio" else corr_cfg.inlier_ratio
            corrs, _ = generate_correspondences(effective, replace(
                corr_cfg, inlier_ratio=ratio,
                seed=_derive_seed(cfg.base_seed, trial, _ROLE_CORR)))
            pr = effective.target.resolution
            index, build_s = None, 0.0
            if needs_cloud:
                t0 = time.perf_counter()
                index = build_index(effective.target)
                build_s = time.perf_counter() - t0

            rotations, translations = _sample_hypotheses(
                corrs, _derive_seed(cfg.base_seed, trial, _ROLE_RANSAC), budget)
            cells = {(mi, vi): plan.bind(pr, values[vi] if axis == "t" else None)
                     for mi, plan in enumerate(cfg.metrics) for vi in group}
            specs = tuple(dict.fromkeys(cells.values()))
            scores, seconds = _score_hypotheses(rotations, translations, specs,
                                                corrs, effective.source, index)
            row_of = {spec: k for k, spec in enumerate(specs)}
            rmse_of: dict[int, float] = {}
            for (mi, vi), spec in cells.items():
                k, n_hyp = row_of[spec], budgets[vi]
                # np.argmax takes the first maximum: earliest-iteration tie rule.
                best = int(np.argmax(scores[k, :n_hyp]))
                if best not in rmse_of:
                    rmse_of[best] = rmse(RigidTransform(
                        rotations[best], translations[best]), clean.gt_pairs)
                rm = rmse_of[best]
                d_rmse_pr = values[vi] if axis == "d_rmse" else cfg.d_rmse_pr
                if is_correct(rm, d_rmse_pr, pr):
                    correct[mi, vi] += 1
                    rmse_pr_sum[mi, vi] += rm / pr
                eval_s_sum[mi, vi] += seconds[k] * (n_hyp / budget)
                if spec.kind in CLOUD_KINDS:
                    build_s_sum[mi, vi] += build_s

    rows = []
    for mi, plan in enumerate(cfg.metrics):
        for vi, value in enumerate(values):
            n_ok = int(correct[mi, vi])
            rows.append(ExperimentRow(
                metric=plan.kind.value,
                sweep_axis=axis,
                sweep_value=value,
                trials=cfg.trials,
                accuracy=n_ok / cfg.trials,
                mean_rmse_pr=rmse_pr_sum[mi, vi] / n_ok if n_ok else math.nan,
                mean_eval_time_s=eval_s_sum[mi, vi] / cfg.trials,
                index_build_time_s=build_s_sum[mi, vi] / cfg.trials,
            ))
    return rows


def time_metric_evaluation(spec: MetricSpec, transforms,
                           corrs: CorrespondenceSet | None = None,
                           source: PointCloud | None = None,
                           target_index: NeighborIndex | None = None) -> float:
    """Average wall-clock seconds to score one hypothesis with `spec`.

    Times only the scoring calls over the given transforms (at least 100
    recommended for stable numbers); sampling, solving, and index build
    are excluded. Raises :class:`InvalidInput` with no hypotheses.
    """
    transforms = list(transforms)
    if not transforms:
        raise InvalidInput("need at least one hypothesis to time")
    if spec.kind in CLOUD_KINDS:
        if source is None or target_index is None:
            raise MissingClouds(f"{spec.kind} needs source cloud and target index")
        t0 = time.perf_counter()
        for transform in transforms:
            evaluate_hypothesis_cloud(spec, transform, source, target_index)
        elapsed = time.perf_counter() - t0
    else:
        if corrs is None:
            raise InvalidInput(f"{spec.kind} needs a correspondence set")
        t0 = time.perf_counter()
        for transform in transforms:
            evaluate_hypothesis(spec, transform, corrs)
        elapsed = time.perf_counter() - t0
    return elapsed / len(transforms)
