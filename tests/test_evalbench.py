"""Benchmark harness: rmse, correctness, plans, sweeps, timing helpers."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from ransacreg import (
    BadConfig,
    CorrespondenceConfig,
    CorrespondenceSet,
    EmptyGroundTruth,
    EvalConfig,
    ExperimentRow,
    InvalidInput,
    MetricKind,
    MetricPlan,
    MetricSpec,
    MissingClouds,
    PointCloud,
    RansacConfig,
    RigidTransform,
    SWEEP_AXES,
    SceneConfig,
    ScenePair,
    build_index,
    is_correct,
    generate_correspondences,
    generate_scene,
    rmse,
    run_experiment,
    run_ransac,
    time_metric_evaluation,
)
from ransacreg import evalbench as evalbench_module
from ransacreg.evalbench import (_DATA_AXES, _ROLE_CORR, _ROLE_NUISANCE,
                                 _ROLE_RANSAC, _ROLE_SCENE, _degrade_scene,
                                 _derive_seed)
from ransacreg.ransac import _sample_hypotheses, _score_hypotheses

from conftest import random_rigid

SCENE = SceneConfig(n_points=2000, shape="random-blob", gt_rotation_angle=0.8,
                    gt_translation_magnitude=30.0, diameter=100.0)
CORRS = CorrespondenceConfig(n_correspondences=40, inlier_ratio=0.5,
                             inlier_sigma_pr=0.0)


def non_timing_fields(row: ExperimentRow):
    return (row.metric, row.sweep_axis, row.sweep_value, row.trials,
            row.accuracy, row.mean_rmse_pr)


# -------------------------------------------------------------------- rmse


def test_rmse_matches_per_pair_recomputation():
    rng = np.random.default_rng(80)
    est = random_rigid(rng)
    pairs = rng.normal(size=(60, 2, 3)) * 25
    expect = np.mean([np.linalg.norm(est.apply(p[0]) - p[1]) for p in pairs])
    assert rmse(est, pairs) == pytest.approx(expect, rel=1e-12)


def test_rmse_zero_for_exact_pose():
    rng = np.random.default_rng(81)
    gt = random_rigid(rng)
    src = rng.normal(size=(30, 3)) * 10
    pairs = np.stack([src, gt.apply(src)], axis=1)
    assert rmse(gt, pairs) == pytest.approx(0.0, abs=1e-12)


def test_rmse_validation():
    ident = RigidTransform.identity()
    with pytest.raises(EmptyGroundTruth):
        rmse(ident, np.empty((0, 2, 3)))
    with pytest.raises(ValueError):
        rmse(ident, np.zeros((4, 3)))
    with pytest.raises(InvalidInput):
        rmse(ident, np.zeros((4, 3)))
    scene = generate_scene(SceneConfig(n_points=20, seed=1))
    ragged = [[[0, 0, 0], [1, 1, 1]], [[0, 0], [1, 1, 1]]]
    with pytest.raises(InvalidInput):
        rmse(ident, ragged)
    with pytest.raises(InvalidInput):
        ScenePair(source=scene.source, target=scene.target, gt=scene.gt,
                  gt_pairs=ragged)
    # A non-finite pair is malformed input, not an RMSE of nan that
    # is_correct would silently grade as a miss.
    for bad in (np.nan, np.inf, -np.inf):
        pairs = np.array(scene.gt_pairs)
        pairs[3, 1, 2] = bad
        with pytest.raises(InvalidInput):
            rmse(ident, pairs)
        with pytest.raises(InvalidInput):
            ScenePair(source=scene.source, target=scene.target, gt=scene.gt,
                      gt_pairs=pairs)


def test_is_correct_strict_boundary():
    assert is_correct(2.4999, 2.5, 1.0)
    assert not is_correct(2.5, 2.5, 1.0)
    assert not is_correct(2.5001, 2.5, 1.0)
    with pytest.raises(ValueError):
        is_correct(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        is_correct(1.0, 2.5, -1.0)
    # A NaN threshold compares False both ways; it must not grade a miss.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput):
            is_correct(1.0, bad, 1.0)
        with pytest.raises(InvalidInput):
            is_correct(1.0, 2.5, bad)


# ------------------------------------------------------------- MetricPlan


def test_metric_plan_binds_resolution_units():
    plan = MetricPlan(kind="mae", t_pr=7.5, m=0.8, t_overlap_pr=2.0)
    assert plan.kind is MetricKind.MAE
    spec = plan.bind(pr=0.4)
    assert isinstance(spec, MetricSpec)
    assert spec.t == 7.5 * 0.4
    assert spec.m == 0.8
    assert spec.pr == 0.4
    assert spec.t_overlap == 2.0 * 0.4
    override = plan.bind(pr=0.4, t_pr=10.0)
    assert override.t == 10.0 * 0.4


def test_metric_plan_validation():
    with pytest.raises(BadConfig):
        MetricPlan(kind="mae", t_pr=0.0)
    with pytest.raises(BadConfig):
        MetricPlan(kind="quantile", m=1.0)
    with pytest.raises(BadConfig):
        MetricPlan(kind="overlap-count", t_overlap_pr=-1.0)
    with pytest.raises(ValueError):
        MetricPlan(kind="nope")
    for bad in (math.nan, math.inf):
        with pytest.raises(BadConfig):
            MetricPlan(kind="mae", t_pr=bad)
        with pytest.raises(BadConfig):
            MetricPlan(kind="overlap-count", t_overlap_pr=bad)
        with pytest.raises(BadConfig):
            MetricPlan(kind="quantile", m=bad)


# -------------------------------------------------------------- EvalConfig


def test_eval_config_validation():
    plans = (MetricPlan(kind="mae"),)
    good = dict(metrics=plans, sweep_axis="t", sweep_values=(7.5,))
    EvalConfig(**good)
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "metrics": ()})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "sweep_axis": "bogus"})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "sweep_values": ()})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "trials": 0})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "d_rmse_pr": 0.0})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "iterations": 0})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "hole_fraction": 1.0})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "base_seed": -1})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(BadConfig):
            EvalConfig(**{**good, "d_rmse_pr": bad})
        with pytest.raises(BadConfig):
            EvalConfig(**{**good, "hole_fraction": bad})
        for axis in SWEEP_AXES:
            with pytest.raises(BadConfig):
                EvalConfig(**{**good, "sweep_axis": axis,
                              "sweep_values": (1.0, bad)})
    with pytest.raises(BadConfig):
        EvalConfig(**{**good, "sweep_axis": "d_rmse", "sweep_values": (0.0, 2.5)})
    with pytest.raises(BadConfig, match="got -1.0"):
        EvalConfig(**{**good, "sweep_values": (-1.0, 5.0)})
    assert set(SWEEP_AXES) >= {"t", "iterations", "d_rmse", "inlier_ratio"}


def test_eval_config_sorts_sweep_values():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),), sweep_axis="t",
                     sweep_values=(9.0, 4.0, 7.5))
    assert cfg.sweep_values == (4.0, 7.5, 9.0)


def test_experiment_row_validates_accuracy():
    with pytest.raises(ValueError):
        ExperimentRow(metric="mae", sweep_axis="t", sweep_value=7.5, trials=1,
                      accuracy=1.5, mean_rmse_pr=0.0, mean_eval_time_s=0.0,
                      index_build_time_s=0.0)


def test_derived_seeds_are_deterministic_and_distinct():
    seeds = {(_derive_seed(3, trial, role))
             for trial in range(20) for role in range(4)}
    assert len(seeds) == 80
    assert _derive_seed(3, 5, 2) == _derive_seed(3, 5, 2)
    assert _derive_seed(3, 5, 2) != _derive_seed(4, 5, 2)


# ----------------------------------------------------------- run_experiment


def test_run_experiment_row_order_and_fields():
    cfg = EvalConfig(
        metrics=(MetricPlan(kind="mae"), MetricPlan(kind="inlier-count")),
        sweep_axis="t", sweep_values=(9.0, 6.0), trials=2, iterations=60,
        base_seed=101)
    rows = run_experiment(cfg, SCENE, CORRS)
    assert len(rows) == 4
    assert [r.metric for r in rows] == ["mae", "mae",
                                        "inlier-count", "inlier-count"]
    assert [r.sweep_value for r in rows] == [6.0, 9.0, 6.0, 9.0]
    for row in rows:
        assert row.sweep_axis == "t"
        assert row.trials == 2
        assert 0.0 <= row.accuracy <= 1.0
        assert row.mean_eval_time_s > 0.0
        assert row.index_build_time_s == 0.0


def test_run_experiment_is_deterministic_modulo_timing():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mse"),), sweep_axis="t",
                     sweep_values=(7.5,), trials=2, iterations=40,
                     base_seed=7)
    a = run_experiment(cfg, SCENE, CORRS)
    b = run_experiment(cfg, SCENE, CORRS)
    assert [non_timing_fields(r) for r in a] == [non_timing_fields(r) for r in b]


def test_run_experiment_noise_free_registration_is_correct():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),), sweep_axis="t",
                     sweep_values=(7.5,), trials=2, iterations=100,
                     base_seed=31)
    rows = run_experiment(cfg, SCENE, CORRS)
    assert rows[0].accuracy == 1.0
    assert rows[0].mean_rmse_pr < 0.1


def test_run_experiment_d_rmse_sweep_reuses_results():
    """Sweeping the correctness threshold re-thresholds fixed registrations:
    accuracy is non-decreasing and per-metric eval time identical."""
    cfg = EvalConfig(
        metrics=(MetricPlan(kind="mae"), MetricPlan(kind="huber")),
        sweep_axis="d_rmse", sweep_values=(0.05, 2.5, 60.0), trials=2,
        iterations=50, base_seed=13)
    corr = CorrespondenceConfig(n_correspondences=40, inlier_ratio=0.5,
                                inlier_sigma_pr=1.0)
    rows = run_experiment(cfg, SCENE, corr)
    for mi in range(2):
        group = rows[3 * mi:3 * mi + 3]
        accs = [r.accuracy for r in group]
        assert accs == sorted(accs)
        assert group[-1].accuracy == 1.0  # threshold 60 pr accepts anything
        times = {r.mean_eval_time_s for r in group}
        assert len(times) == 1


def test_run_experiment_reports_nan_rmse_when_nothing_is_correct():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),), sweep_axis="d_rmse",
                     sweep_values=(1e-9,), trials=1, iterations=30,
                     base_seed=17)
    corr = CorrespondenceConfig(n_correspondences=40, inlier_ratio=0.5,
                                inlier_sigma_pr=1.0)
    rows = run_experiment(cfg, SCENE, corr)
    assert rows[0].accuracy == 0.0
    assert math.isnan(rows[0].mean_rmse_pr)


def test_run_experiment_cloud_metric_times_index_build():
    cfg = EvalConfig(
        metrics=(MetricPlan(kind="mae"), MetricPlan(kind="pc-dist")),
        sweep_axis="t", sweep_values=(7.5,), trials=1, iterations=20,
        base_seed=19)
    scene = SceneConfig(n_points=1000, shape="random-blob",
                        gt_rotation_angle=0.5, gt_translation_magnitude=10.0)
    corr = CorrespondenceConfig(n_correspondences=30, inlier_ratio=1.0)
    rows = run_experiment(cfg, scene, corr)
    by_metric = {r.metric: r for r in rows}
    assert by_metric["pc-dist"].index_build_time_s > 0.0
    assert by_metric["mae"].index_build_time_s == 0.0


def test_run_experiment_inlier_ratio_and_iterations_axes():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),),
                     sweep_axis="inlier_ratio", sweep_values=(0.3, 0.8),
                     trials=1, iterations=50, base_seed=23)
    rows = run_experiment(cfg, SCENE, CORRS)
    assert [r.sweep_value for r in rows] == [0.3, 0.8]
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),),
                     sweep_axis="iterations", sweep_values=(10.0, 40.0),
                     trials=1, base_seed=23)
    rows = run_experiment(cfg, SCENE, CORRS)
    assert all(0.0 <= r.accuracy <= 1.0 for r in rows)


def test_run_experiment_noise_axis():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),), sweep_axis="noise",
                     sweep_values=(0.0, 1.0), trials=1, iterations=80,
                     base_seed=29)
    rows = run_experiment(cfg, SCENE, CORRS)
    assert len(rows) == 2
    assert rows[0].accuracy == 1.0  # zero noise with exact inliers


def test_run_experiment_decimation_axes_keep_exact_registration():
    scene = SceneConfig(n_points=5000, shape="random-blob",
                        gt_rotation_angle=0.8, gt_translation_magnitude=30.0)
    for axis in ("decimation-uniform", "decimation-random"):
        cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),), sweep_axis=axis,
                         sweep_values=(0.5, 1.0), trials=2, iterations=100,
                         base_seed=37)
        rows = run_experiment(cfg, scene, CORRS)
        assert [r.sweep_value for r in rows] == [0.5, 1.0]
        assert all(r.accuracy == 1.0 for r in rows), axis


def test_run_experiment_holes_axis():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),), sweep_axis="holes",
                     sweep_values=(0.0, 3.0), trials=1, iterations=80,
                     hole_fraction=0.02, base_seed=41)
    rows = run_experiment(cfg, SCENE, CORRS)
    assert len(rows) == 2
    assert rows[0].accuracy == 1.0  # zero holes with exact inliers


# --------------------------------- one shared stream vs one run per cell


def reference_rows(cfg: EvalConfig, scene_cfg: SceneConfig,
                   corr_cfg: CorrespondenceConfig):
    """Non-timing row fields from one public run_ransac call per
    (metric, sweep value, trial), seeded the way the harness documents."""
    axis = cfg.sweep_axis
    rows = []
    for plan in cfg.metrics:
        for value in cfg.sweep_values:
            n_ok, rmse_pr_sum = 0, 0.0
            for trial in range(cfg.trials):
                def seed(role):
                    return _derive_seed(cfg.base_seed, trial, role)
                clean = generate_scene(replace(scene_cfg, seed=seed(_ROLE_SCENE)))
                scene = clean
                if axis in _DATA_AXES:
                    scene = _degrade_scene(clean, axis, value,
                                           cfg.hole_fraction,
                                           seed(_ROLE_NUISANCE))
                ratio = value if axis == "inlier_ratio" else corr_cfg.inlier_ratio
                corrs, _ = generate_correspondences(
                    scene, replace(corr_cfg, inlier_ratio=ratio,
                                   seed=seed(_ROLE_CORR)))
                pr = scene.target.resolution
                spec = plan.bind(pr, t_pr=value if axis == "t" else None)
                iterations = (int(round(value)) if axis == "iterations"
                              else cfg.iterations)
                result = run_ransac(
                    RansacConfig(metric=spec, seed=seed(_ROLE_RANSAC),
                                 iterations=iterations),
                    corrs, source=scene.source,
                    target_index=build_index(scene.target))
                rm = rmse(result.best_transform, clean.gt_pairs)
                d_rmse_pr = value if axis == "d_rmse" else cfg.d_rmse_pr
                if is_correct(rm, d_rmse_pr, pr):
                    n_ok += 1
                    rmse_pr_sum += rm / pr
            rows.append((plan.kind.value, axis, value, cfg.trials,
                         n_ok / cfg.trials,
                         rmse_pr_sum / n_ok if n_ok else math.nan))
    return rows


AXIS_VALUES = {
    "t": (4.0, 7.5, 12.0),
    "iterations": (5.0, 17.0, 40.0),
    "d_rmse": (0.5, 2.5, 10.0),
    "inlier_ratio": (0.2, 0.5),
    "noise": (0.0, 1.0),
    "decimation-uniform": (0.5, 1.0),
    "decimation-random": (0.5, 1.0),
    "holes": (0.0, 5.0),
}


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_shared_stream_rows_equal_one_run_per_cell(axis):
    """Scoring one stream per trial under every metric and sweep value
    gives the rows that separate run_ransac calls give, bit for bit."""
    kinds = ("mae", "inlier-count", "quantile", "pc-dist", "overlap-count")
    cfg = EvalConfig(metrics=tuple(MetricPlan(kind=k) for k in kinds),
                     sweep_axis=axis, sweep_values=AXIS_VALUES[axis],
                     trials=2, iterations=40, base_seed=53)
    corr = CorrespondenceConfig(n_correspondences=60, inlier_ratio=0.3,
                                inlier_sigma_pr=1.0)
    got = [non_timing_fields(r) for r in run_experiment(cfg, SCENE, corr)]
    np.testing.assert_equal(got, reference_rows(cfg, SCENE, corr))


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_one_stream_per_trial_and_correspondence_set(axis, monkeypatch):
    """Each trial samples one hypothesis stream for all metrics and sweep
    values; only the axes that change the correspondences (inlier_ratio
    and the data axes) sample one per value."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _sample_hypotheses(*args, **kwargs)

    monkeypatch.setattr("ransacreg.evalbench._sample_hypotheses", counting)
    values = AXIS_VALUES[axis]
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),
                              MetricPlan(kind="inlier-count")),
                     sweep_axis=axis, sweep_values=values, trials=3,
                     iterations=10, base_seed=54)
    run_experiment(cfg, SCENE, CORRS)
    per_trial = 1 if axis in ("t", "iterations", "d_rmse") else len(values)
    assert len(calls) == cfg.trials * per_trial


def test_stream_prefix_argmax_equals_shorter_run():
    """The argmax over the first k hypotheses of a 1000-hypothesis stream
    is what run_ransac(iterations=k) returns, in iteration, score and
    pose bits."""
    scene = generate_scene(replace(SCENE, seed=61))
    corrs, _ = generate_correspondences(scene, CorrespondenceConfig(
        n_correspondences=200, inlier_ratio=0.1, inlier_sigma_pr=1.0, seed=62))
    spec = MetricPlan(kind="mae").bind(scene.target.resolution)
    rotations, translations = _sample_hypotheses(corrs, 63, 1000)
    values, _ = _score_hypotheses(rotations, translations, (spec,), corrs)
    winners = set()
    for k in (1, 2, 10, 99, 250, 777, 1000):
        best = int(np.argmax(values[0, :k]))
        winners.add(best)
        result = run_ransac(RansacConfig(metric=spec, seed=63, iterations=k),
                            corrs)
        assert result.best_iteration == best, k
        assert result.best_score.value == values[0, best], k
        np.testing.assert_array_equal(result.best_transform.rotation,
                                      rotations[best])
        np.testing.assert_array_equal(result.best_transform.translation,
                                      translations[best])
    assert len(winners) > 2  # the prefixes really pick different winners


def test_bad_data_axis_values_raise_before_any_scene(monkeypatch):
    """Each data axis's values pass synth's own rules when the config is
    built, and the inlier ratio's count against the correspondence config
    before trial 0's scene; budgets beyond int64 fail at construction."""
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return generate_scene(cfg)

    monkeypatch.setattr(evalbench_module, "generate_scene", counting)
    plans = (MetricPlan(kind="mae"),)
    bad = {"inlier_ratio": (0.0, 1.5, -0.5), "noise": (-1.0,),
           "decimation-uniform": (0.0, 2.0), "decimation-random": (0.0, 1.5),
           "holes": (-1.0, 100.0, 200.0), "iterations": (2.0**63, 1e300)}
    for axis, values in bad.items():
        for v in values:
            with pytest.raises(BadConfig):
                EvalConfig(metrics=plans, sweep_axis=axis,
                           sweep_values=(1.0, v) if axis != "holes" else (0.0, v))
    with pytest.raises(BadConfig):
        EvalConfig(metrics=plans, sweep_axis="t", sweep_values=(7.5,),
                   iterations=2**63)
    # 0.05 of 40 correspondences is 2 inliers, below the 3 a solve needs.
    cfg = EvalConfig(metrics=plans, sweep_axis="inlier_ratio",
                     sweep_values=(0.5, 0.05), trials=1, iterations=5)
    with pytest.raises(BadConfig, match="3 inliers"):
        run_experiment(cfg, SCENE, CORRS)
    assert calls == []
    run_experiment(replace(cfg, sweep_values=(0.5,)), SCENE, CORRS)
    assert len(calls) == 1


def test_run_experiment_rejects_iterations_below_one():
    cfg = EvalConfig(metrics=(MetricPlan(kind="mae"),),
                     sweep_axis="iterations", sweep_values=(0.4, 10.0),
                     trials=1)
    with pytest.raises(BadConfig):
        run_experiment(cfg, SCENE, CORRS)


# ------------------------------------------------- metric behavior at scale


def test_proposed_metrics_recover_exactly_at_moderate_ratio():
    """With 30 percent exact inliers and a 300-hypothesis budget, every
    all-inlier sample solves the pose exactly and every proposed metric
    ranks one of those samples first in all trials."""
    scene = SceneConfig(n_points=3000, shape="random-blob",
                        gt_rotation_angle=0.8, gt_translation_magnitude=30.0)
    kinds = ("mae", "mse", "log-cosh", "exp", "quantile", "neg-quantile")
    cfg = EvalConfig(metrics=tuple(MetricPlan(kind=k) for k in kinds),
                     sweep_axis="t", sweep_values=(7.5,), trials=10,
                     iterations=300, base_seed=424242)
    corr = CorrespondenceConfig(n_correspondences=300, inlier_ratio=0.3,
                                inlier_sigma_pr=0.0)
    rows = run_experiment(cfg, scene, corr)
    for row in rows:
        assert row.accuracy == 1.0, row.metric
        assert row.mean_rmse_pr < 1e-9, row.metric


def test_shaped_metrics_beat_inlier_count_under_tight_threshold():
    """With noisy inliers and correctness demanded within 1 resolution
    unit, the error-shaped scores pick noticeably more accurate hypotheses
    than the flat inlier count."""
    scene = SceneConfig(n_points=3000, shape="random-blob",
                        gt_rotation_angle=0.8, gt_translation_magnitude=30.0)
    cfg = EvalConfig(metrics=tuple(MetricPlan(kind=k) for k in
                                   ("mae", "mse", "log-cosh", "inlier-count")),
                     sweep_axis="t", sweep_values=(7.5,), trials=10,
                     iterations=300, d_rmse_pr=1.0, base_seed=424243)
    corr = CorrespondenceConfig(n_correspondences=300, inlier_ratio=0.3,
                                inlier_sigma_pr=1.0)
    rows = run_experiment(cfg, scene, corr)
    accs = {row.metric: row.accuracy for row in rows}
    for kind in ("mae", "mse", "log-cosh"):
        assert accs[kind] >= accs["inlier-count"] + 0.25, accs


# ---------------------------------------------------- time_metric_evaluation


def test_time_metric_evaluation_paths_and_validation():
    rng = np.random.default_rng(90)
    corrs = CorrespondenceSet(rng.normal(size=(50, 3)) * 10,
                              rng.normal(size=(50, 3)) * 10)
    transforms = [random_rigid(rng) for _ in range(5)]
    spec = MetricSpec(kind=MetricKind.MAE, t=7.5, pr=1.0)
    per_hyp = time_metric_evaluation(spec, transforms, corrs=corrs)
    assert per_hyp > 0.0
    cloud = PointCloud(rng.normal(size=(200, 3)) * 10)
    index = build_index(rng.normal(size=(300, 3)) * 10)
    pcd = MetricSpec(kind=MetricKind.PC_DIST, t=7.5, pr=1.0)
    assert time_metric_evaluation(pcd, transforms, source=cloud,
                                  target_index=index) > 0.0
    with pytest.raises(InvalidInput):
        time_metric_evaluation(spec, [], corrs=corrs)
    with pytest.raises(InvalidInput):
        time_metric_evaluation(spec, transforms)
    with pytest.raises(MissingClouds):
        time_metric_evaluation(pcd, transforms, source=cloud)
