"""Benchmark harness: registration correctness, sweeps, and timing.

Runs seeded registration trials over a swept parameter and aggregates
per-metric accuracy, error, and timing rows. A registration is correct
when its RMSE (here: the MEAN of per-pair Euclidean errors under the
estimated pose, taken over the true correspondences) falls strictly below
d_rmse resolution units.

A sweep runs in three stages. `_trials` yields one record per (trial,
stream group): the true pairs, the target's resolution and index, the
correspondences and one hypothesis stream, solved at the sweep's largest
budget once for all values (once per value on the axes that change the
correspondences). One shared scoring pass scores the stream under every
distinct (metric, value) spec. Each cell then grades its own winner into
running sums: a `t` value is one more spec, an `iterations` value an
argmax over a prefix of the stream, a `d_rmse` value a re-threshold of
the same registration. Seeds derive from (base_seed, trial index, role)
only, never from the swept value, so all values and metrics of one trial
face the same scene and stream. Thresholds (t, t_overlap, d_rmse) are set
in resolution units, bound to each trial's (possibly degraded) target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (BadConfig, EmptyGroundTruth, InvalidInput, InvalidSpec,
                     _check_integers, _check_reals, _require_type)
from .geom import PointCloud, RigidTransform
from .metrics import (CLOUD_KINDS, CorrespondenceSet, MetricKind, MetricSpec,
                      _as_kind, _pair_errors, evaluate_hypothesis,
                      evaluate_hypothesis_cloud)
from .ransac import _MAX_ITERATIONS, _sample_hypotheses, _score_hypotheses
from .spatial import NeighborIndex, _as_array, build_index
from .synth import (CorrespondenceConfig, SceneConfig, ScenePair, _as_pairs,
                    _check_holes, _check_inlier_ratio, _check_keep_fraction,
                    _check_sigma_pr, _hole_survivor_indices,
                    _random_keep_indices, _uniform_keep_indices,
                    add_gaussian_noise, generate_correspondences,
                    generate_scene)

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
    Raises :class:`EmptyGroundTruth` for no pairs and :class:`InvalidInput`
    for an `est` that is not a RigidTransform, ragged or non-numeric pairs,
    any other shape or a coordinate outside +-COORD_LIMIT.
    """
    _require_type(est, RigidTransform, "rmse")
    pairs = _as_array(gt_pairs, "gt_pairs")
    if pairs.size == 0:
        raise EmptyGroundTruth("need at least one ground-truth pair")
    pairs = _as_pairs(pairs)
    errors = _pair_errors(est.rotation, est.translation,
                          pairs[:, 0, :], pairs[:, 1, :])
    return float(np.mean(errors))


def _positive(value: float) -> bool:
    """True iff value is a finite number above 0 (False for NaN)."""
    return math.isfinite(value) and value > 0.0


def is_correct(rmse_value: float, d_rmse_pr: float, pr: float) -> bool:
    """True iff rmse_value < d_rmse_pr * pr (strict); InvalidInput unless
    both thresholds are finite and positive."""
    if not (_positive(d_rmse_pr) and _positive(pr)):
        raise InvalidInput(
            f"thresholds must be finite and positive, got {d_rmse_pr}, {pr}")
    return rmse_value < d_rmse_pr * pr


@dataclass(frozen=True)
class MetricPlan:
    """A metric choice with thresholds in resolution units.

    Bound to world units per trial via the target cloud's resolution:
    t = t_pr * pr and t_overlap = t_overlap_pr * pr. The parameter domains
    are :class:`MetricSpec`'s, read in resolution units (the spec at
    pr = 1): a value it rejects raises :class:`BadConfig`, an unknown kind
    :class:`InvalidSpec`.
    """

    kind: MetricKind
    t_pr: float = 7.5
    m: float = 0.9
    t_overlap_pr: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "kind", _as_kind(self.kind))
        _check_reals(t_pr=self.t_pr, m=self.m, t_overlap_pr=self.t_overlap_pr)
        try:
            self.bind(1.0)
        except InvalidSpec as exc:
            raise BadConfig(str(exc)) from None

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
        _check_integers(self, trials=1, iterations=1, base_seed=0)
        _check_reals(d_rmse_pr=self.d_rmse_pr,
                     hole_fraction=self.hole_fraction)
        object.__setattr__(self, "metrics", tuple(self.metrics))
        try:
            values = tuple(self.sweep_values)
        except TypeError:
            raise BadConfig(f"sweep_values must be a sequence of numbers, "
                            f"got {self.sweep_values!r}") from None
        for v in values:
            _check_reals(sweep_values=v)
        values = tuple(sorted(float(v) for v in values))
        object.__setattr__(self, "sweep_values", values)
        if not self.metrics:
            raise BadConfig("need at least one metric")
        if self.sweep_axis not in SWEEP_AXES:
            raise BadConfig(
                f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if not values:
            raise BadConfig("sweep_values must be non-empty")
        if not all(math.isfinite(v) for v in values):
            raise BadConfig(f"sweep_values must be finite, got {values}")
        if self.sweep_axis == "d_rmse" and values[0] <= 0.0:
            raise BadConfig(f"d_rmse sweep values must be positive, got {values}")
        if self.sweep_axis == "t":  # MetricPlan checks each threshold
            for plan in self.metrics:
                for v in values:
                    replace(plan, t_pr=v)
        if not _positive(self.d_rmse_pr):
            raise BadConfig(f"d_rmse_pr must be finite and positive, got {self.d_rmse_pr}")
        if self.iterations > _MAX_ITERATIONS:
            raise BadConfig(f"iterations must be <= 2**63 - 1, got {self.iterations}")
        if self.sweep_axis == "iterations" and not (
                1 <= round(values[0]) and round(values[-1]) <= _MAX_ITERATIONS):
            raise BadConfig(f"iterations sweep values must round into "
                            f"[1, 2**63 - 1], got {values}")
        _check_holes(0, self.hole_fraction)
        # The data axes' values pass synth's own rules before any trial runs.
        rule = {"inlier_ratio": _check_inlier_ratio,
                "noise": _check_sigma_pr,
                "decimation-uniform": _check_keep_fraction,
                "decimation-random": _check_keep_fraction,
                "holes": lambda v: _check_holes(int(round(v)),
                                                self.hole_fraction),
                }.get(self.sweep_axis)
        if rule is not None:
            for v in values:
                rule(v)


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregate of one (metric, sweep value) cell.

    accuracy = correct trials / trials. mean_rmse_pr averages RMSE (in
    resolution units) over the CORRECT trials only (NaN when none).
    mean_eval_time_s is the cell's eval time per registered pair, as
    :func:`~ransacreg.metrics._score_pass` defines it, prorated to the
    cell's share of the stream on the iterations axis.
    Sampling and solving are shared and excluded, so it is not the cost
    of a separate RANSAC run. For the cloud metrics it covers the queries
    the shared pass made: a hypothesis stops once an earlier one provably
    scores at least as high, so it is below the full per-hypothesis cost
    that :func:`time_metric_evaluation` measures.
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
            raise InvalidInput(f"accuracy must lie in [0, 1], got {self.accuracy}")


def _derive_seed(base_seed: int, trial: int, role: int) -> int:
    seq = np.random.SeedSequence([base_seed, trial, role])
    return int(seq.generate_state(1, np.uint64)[0])


def _degrade_scene(scene: ScenePair, axis: str, value: float,
                   hole_fraction: float, seed: int) -> ScenePair:
    """Apply one nuisance to the target cloud, keeping true pairs aligned."""
    if axis == "noise":
        target = add_gaussian_noise(scene.target, value, seed)
        kept = np.arange(len(target))
    else:  # the other nuisances keep a subset of the points
        if axis == "decimation-uniform":
            kept = _uniform_keep_indices(len(scene.target), value)
        elif axis == "decimation-random":
            kept = _random_keep_indices(len(scene.target), value,
                                        np.random.default_rng(seed))
        else:  # holes
            kept = _hole_survivor_indices(
                scene.target.points, int(round(value)), hole_fraction,
                np.random.default_rng(seed))
        target = scene.target.select(kept)
    pairs = np.stack([scene.pair_sources[kept], target.points], axis=1)
    return replace(scene, target=target, gt_pairs=pairs)


@dataclass(frozen=True)
class _Trial:
    """One (trial, stream group) record: what grading its cells reads."""

    value_indices: tuple[int, ...]  # the sweep values sharing the stream
    pr: float  # resolution of the (possibly degraded) target
    source: PointCloud
    corrs: CorrespondenceSet
    index: NeighborIndex | None  # target index; None without cloud metrics
    build_s: float  # read only when the index is built
    gt_pairs: np.ndarray  # the clean scene's true pairs, graded by rmse
    rotations: np.ndarray
    translations: np.ndarray


def _trials(cfg: EvalConfig, scene_cfg: SceneConfig,
            corr_cfg: CorrespondenceConfig, budgets: list[int]):
    """Yield one :class:`_Trial` per (trial, stream group), in trial order;
    each group's stream holds its values' largest budget."""
    axis, values = cfg.sweep_axis, cfg.sweep_values
    needs_cloud = any(p.kind in CLOUD_KINDS for p in cfg.metrics)
    indices = tuple(range(len(values)))
    per_value = axis in _DATA_AXES or axis == "inlier_ratio"
    groups = [(vi,) for vi in indices] if per_value else [indices]
    for trial in range(cfg.trials):
        seed = partial(_derive_seed, cfg.base_seed, trial)
        clean = generate_scene(replace(scene_cfg, seed=seed(_ROLE_SCENE)))
        for group in groups:
            value = values[group[0]]
            scene = clean
            if axis in _DATA_AXES:
                scene = _degrade_scene(clean, axis, value, cfg.hole_fraction,
                                       seed(_ROLE_NUISANCE))
            ratio = value if axis == "inlier_ratio" else corr_cfg.inlier_ratio
            corrs, _ = generate_correspondences(scene, replace(
                corr_cfg, inlier_ratio=ratio, seed=seed(_ROLE_CORR)))
            t0 = time.perf_counter()
            index = build_index(scene.target) if needs_cloud else None
            build_s = time.perf_counter() - t0
            rotations, translations = _sample_hypotheses(
                corrs, seed(_ROLE_RANSAC), max(budgets[vi] for vi in group))
            yield _Trial(group, scene.target.resolution, scene.source, corrs,
                         index, build_s, clean.gt_pairs, rotations,
                         translations)


def run_experiment(cfg: EvalConfig, scene_cfg: SceneConfig,
                   corr_cfg: CorrespondenceConfig) -> list[ExperimentRow]:
    """Run the full sweep and return one row per (metric, sweep value).

    scene_cfg and corr_cfg act as templates; their seeds are replaced by
    per-trial derived seeds. Row order is metric order x ascending sweep
    value. Everything except the timing fields replays bit-exactly for a
    fixed configuration, and equals what one `run_ransac` call per
    (trial, metric, value) would give.
    """
    axis, values = cfg.sweep_axis, cfg.sweep_values
    budgets = [int(round(v)) if axis == "iterations" else cfg.iterations
               for v in values]
    if axis == "inlier_ratio":  # the inlier count also needs corr_cfg's size
        for v in values:
            replace(corr_cfg, inlier_ratio=v)
    # Per cell: correct trials, their RMSE in pr, eval and index-build
    # seconds. Plain sums in trial order, so every mean replays bit-exactly.
    sums = {(mi, vi): [0, 0.0, 0.0, 0.0] for mi in range(len(cfg.metrics))
            for vi in range(len(values))}
    for rec in _trials(cfg, scene_cfg, corr_cfg, budgets):
        cells = {(mi, vi): plan.bind(rec.pr, values[vi] if axis == "t" else None)
                 for mi, plan in enumerate(cfg.metrics)
                 for vi in rec.value_indices}
        specs = tuple(dict.fromkeys(cells.values()))
        scores, seconds = _score_hypotheses(rec.rotations, rec.translations,
                                            specs, rec.corrs, rec.source,
                                            rec.index)
        rmse_of: dict[int, float] = {}
        for (mi, vi), spec in cells.items():
            k, n_hyp = specs.index(spec), budgets[vi]
            # np.argmax takes the first maximum: earliest-iteration tie rule.
            best = int(np.argmax(scores[k, :n_hyp]))
            if best not in rmse_of:
                rmse_of[best] = rmse(RigidTransform(
                    rec.rotations[best], rec.translations[best]), rec.gt_pairs)
            cell = sums[mi, vi]
            d_rmse_pr = values[vi] if axis == "d_rmse" else cfg.d_rmse_pr
            if is_correct(rmse_of[best], d_rmse_pr, rec.pr):
                cell[0] += 1
                cell[1] += rmse_of[best] / rec.pr
            cell[2] += seconds[k] * (n_hyp / len(rec.rotations))
            cell[3] += rec.build_s if spec.kind in CLOUD_KINDS else 0.0
    return [ExperimentRow(
        metric=cfg.metrics[mi].kind.value,
        sweep_axis=axis,
        sweep_value=values[vi],
        trials=cfg.trials,
        accuracy=n_ok / cfg.trials,
        mean_rmse_pr=rmse_pr_sum / n_ok if n_ok else math.nan,
        mean_eval_time_s=eval_s_sum / cfg.trials,
        index_build_time_s=build_s_sum / cfg.trials,
    ) for (mi, vi), (n_ok, rmse_pr_sum, eval_s_sum, build_s_sum) in sums.items()]


def time_metric_evaluation(spec: MetricSpec, transforms,
                           corrs: CorrespondenceSet | None = None,
                           source: PointCloud | None = None,
                           target_index: NeighborIndex | None = None) -> float:
    """Average wall-clock seconds to score one hypothesis with `spec`.

    Times only the scoring calls over the given transforms (at least 100
    recommended for stable numbers), one after another on the calling
    thread, which runs each call's work itself (the cloud metrics'
    nearest-neighbour query included); sampling, solving, and index build
    are excluded. Raises :class:`InvalidInput` with no hypotheses and
    whatever the scoring function raises for missing or malformed input.
    """
    transforms = list(transforms)
    if not transforms:
        raise InvalidInput("need at least one hypothesis to time")
    if spec.kind in CLOUD_KINDS:
        evaluate = partial(evaluate_hypothesis_cloud, spec, source=source,
                           target_index=target_index)
    else:
        evaluate = partial(evaluate_hypothesis, spec, corrs=corrs)
    t0 = time.perf_counter()
    for transform in transforms:
        evaluate(transform)
    return (time.perf_counter() - t0) / len(transforms)
