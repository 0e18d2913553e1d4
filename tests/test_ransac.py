"""RANSAC engine: sampling, determinism, exact replay, cloud metrics."""

from __future__ import annotations

import numpy as np
import pytest

from ransacreg import (
    BadConfig,
    CorrespondenceSet,
    EmptyCloud,
    MetricKind,
    MetricSpec,
    MissingClouds,
    PersistentDegeneracy,
    PointCloud,
    RansacConfig,
    TooFewCorrespondences,
    build_index,
    estimate_rigid_transform,
    evaluate_hypothesis,
    run_ransac,
    sample_minimal,
    triangle_area,
)
from ransacreg.ransac import SAMPLE_SIZE, _degeneracy_area

from conftest import random_rigid

MAE = MetricSpec(kind=MetricKind.MAE, t=7.5, pr=1.0)


def make_corrs(rng, n=120, outlier_ratio=0.5, spread=50.0):
    """Random rigid scene: first part exact inliers, rest far-off outliers."""
    gt = random_rigid(rng, t_scale=20.0)
    src = rng.normal(size=(n, 3)) * spread
    tgt = gt.apply(src)
    n_out = int(round(n * outlier_ratio))
    if n_out:
        tgt[-n_out:] += rng.normal(size=(n_out, 3)) * 500.0 + 300.0
    return CorrespondenceSet(src, tgt), gt


# ----------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(BadConfig):
        RansacConfig(metric=MAE, seed=-1)
    with pytest.raises(BadConfig):
        RansacConfig(metric=MAE, seed=0, iterations=0)
    with pytest.raises(BadConfig):
        RansacConfig(metric=MAE, seed=0, sample_size=4)
    with pytest.raises(BadConfig):
        RansacConfig(metric=MAE, seed=0, degeneracy_retries=0)
    cfg = RansacConfig(metric=MAE, seed=3)
    assert cfg.iterations == 1000
    assert cfg.sample_size == SAMPLE_SIZE == 3
    assert cfg.degeneracy_retries == 100


# ----------------------------------------------------------- sample_minimal


def test_sample_minimal_draws_three_distinct_indices():
    rng_data = np.random.default_rng(50)
    corrs, _ = make_corrs(rng_data, n=40)
    rng = np.random.default_rng(51)
    for _ in range(200):
        idx = sample_minimal(corrs, rng)
        assert idx.shape == (3,)
        assert len(set(idx.tolist())) == 3
        assert np.all((idx >= 0) & (idx < corrs.n))


def test_sample_minimal_is_seed_deterministic():
    rng_data = np.random.default_rng(52)
    corrs, _ = make_corrs(rng_data, n=40)
    seq_a = [sample_minimal(corrs, np.random.default_rng(7)) for _ in range(1)]
    rng = np.random.default_rng(7)
    first = sample_minimal(corrs, rng)
    second = sample_minimal(corrs, rng)
    np.testing.assert_array_equal(first, seq_a[0])
    rng2 = np.random.default_rng(7)
    np.testing.assert_array_equal(first, sample_minimal(corrs, rng2))
    np.testing.assert_array_equal(second, sample_minimal(corrs, rng2))


def test_sample_minimal_rejects_tiny_sets():
    corrs = CorrespondenceSet(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(TooFewCorrespondences):
        sample_minimal(corrs, np.random.default_rng(0))


def test_sample_minimal_rejects_all_collinear():
    line = np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)])
    corrs = CorrespondenceSet(line, line)
    with pytest.raises(PersistentDegeneracy):
        sample_minimal(corrs, np.random.default_rng(0), degeneracy_retries=50)


def test_sample_minimal_skips_degenerate_triples():
    """With most points on a line, every accepted triple still spans a
    triangle above the degeneracy threshold."""
    rng_data = np.random.default_rng(53)
    line = np.column_stack([np.linspace(0, 50, 30),
                            np.zeros(30), np.zeros(30)])
    off = rng_data.normal(size=(10, 3)) * 20 + np.array([0.0, 40.0, 0.0])
    src = np.vstack([line, off])
    corrs = CorrespondenceSet(src, src)
    min_area = _degeneracy_area(corrs)
    rng = np.random.default_rng(54)
    for _ in range(300):
        idx = sample_minimal(corrs, rng)
        area = triangle_area(src[idx[0]], src[idx[1]], src[idx[2]])
        assert area > min_area


# ---------------------------------------------------------------- run loop


def test_run_ransac_requires_three_correspondences():
    corrs = CorrespondenceSet(np.zeros((2, 3)), np.zeros((2, 3)))
    cfg = RansacConfig(metric=MAE, seed=0, iterations=5)
    with pytest.raises(TooFewCorrespondences):
        run_ransac(cfg, corrs)


def test_run_ransac_propagates_persistent_degeneracy():
    line = np.column_stack([np.arange(12.0), np.zeros(12), np.zeros(12)])
    corrs = CorrespondenceSet(line, line)
    cfg = RansacConfig(metric=MAE, seed=0, iterations=3)
    with pytest.raises(PersistentDegeneracy):
        run_ransac(cfg, corrs)


def test_run_ransac_recovers_exact_transform_without_noise():
    rng = np.random.default_rng(55)
    corrs, gt = make_corrs(rng, n=60, outlier_ratio=0.0)
    cfg = RansacConfig(metric=MAE, seed=9, iterations=50)
    result = run_ransac(cfg, corrs)
    np.testing.assert_allclose(result.best_transform.rotation, gt.rotation,
                               atol=1e-9)
    np.testing.assert_allclose(result.best_transform.translation,
                               gt.translation, atol=1e-7)
    assert result.best_score.value == pytest.approx(60.0, rel=1e-9)
    assert result.best_score.kind is MetricKind.MAE


def test_run_ransac_finds_inlier_structure_among_outliers():
    rng = np.random.default_rng(56)
    corrs, gt = make_corrs(rng, n=150, outlier_ratio=0.6)
    cfg = RansacConfig(metric=MAE, seed=11, iterations=400)
    result = run_ransac(cfg, corrs)
    np.testing.assert_allclose(result.best_transform.rotation, gt.rotation,
                               atol=1e-8)
    np.testing.assert_allclose(result.best_transform.translation,
                               gt.translation, atol=1e-6)


def test_run_ransac_is_deterministic_bitwise():
    rng = np.random.default_rng(57)
    corrs, _ = make_corrs(rng, n=80, outlier_ratio=0.4)
    cfg = RansacConfig(metric=MAE, seed=21, iterations=120)
    a = run_ransac(cfg, corrs)
    b = run_ransac(cfg, corrs)
    np.testing.assert_array_equal(a.best_transform.rotation,
                                  b.best_transform.rotation)
    np.testing.assert_array_equal(a.best_transform.translation,
                                  b.best_transform.translation)
    assert a.best_score.value == b.best_score.value
    assert a.best_iteration == b.best_iteration


def test_run_ransac_seed_changes_hypothesis_stream():
    rng = np.random.default_rng(58)
    corrs, _ = make_corrs(rng, n=80, outlier_ratio=0.7)
    results = [run_ransac(RansacConfig(metric=MAE, seed=s, iterations=40),
                          corrs) for s in (1, 2)]
    assert (results[0].best_score.value != results[1].best_score.value
            or results[0].best_iteration != results[1].best_iteration
            or not np.array_equal(results[0].best_transform.translation,
                                  results[1].best_transform.translation))


def test_run_ransac_result_fields():
    rng = np.random.default_rng(59)
    corrs, _ = make_corrs(rng, n=50, outlier_ratio=0.3)
    cfg = RansacConfig(metric=MAE, seed=4, iterations=64)
    result = run_ransac(cfg, corrs)
    assert result.hypotheses_evaluated == 64
    assert 0 <= result.best_iteration < 64
    assert 0.0 <= result.elapsed_eval_time <= result.elapsed_total_time
    assert result.best_score.value == evaluate_hypothesis(
        MAE, result.best_transform, corrs).value


def test_run_ransac_single_iteration():
    rng = np.random.default_rng(60)
    corrs, _ = make_corrs(rng, n=30, outlier_ratio=0.0)
    result = run_ransac(RansacConfig(metric=MAE, seed=0, iterations=1), corrs)
    assert result.best_iteration == 0
    assert result.hypotheses_evaluated == 1


@pytest.mark.parametrize("kind", sorted(k.value for k in MetricKind
                                        if k not in (MetricKind.PC_DIST,
                                                     MetricKind.OVERLAP_COUNT)))
def test_replay_reproduces_run_bit_exactly(kind):
    """The documented replay contract: an external loop over
    sample_minimal + estimate_rigid_transform + evaluate_hypothesis must
    reproduce run_ransac's winner bit for bit."""
    rng = np.random.default_rng(61)
    corrs, _ = make_corrs(rng, n=90, outlier_ratio=0.5)
    spec = MetricSpec(kind=MetricKind(kind), t=7.5, m=0.9, pr=1.0)
    cfg = RansacConfig(metric=spec, seed=77, iterations=150)
    result = run_ransac(cfg, corrs)

    replay_rng = np.random.default_rng(cfg.seed)
    values = np.empty(cfg.iterations)
    transforms = []
    for i in range(cfg.iterations):
        idx = sample_minimal(corrs, replay_rng,
                             degeneracy_retries=cfg.degeneracy_retries)
        est = estimate_rigid_transform(corrs.sources[idx], corrs.targets[idx],
                                       min_triangle_area=0.0)
        transforms.append(est)
        values[i] = evaluate_hypothesis(spec, est, corrs).value
    best = int(np.argmax(values))

    assert best == result.best_iteration
    assert values[best] == result.best_score.value
    np.testing.assert_array_equal(transforms[best].rotation,
                                  result.best_transform.rotation)
    np.testing.assert_array_equal(transforms[best].translation,
                                  result.best_transform.translation)


# -------------------------------------------------------------- cloud path


def test_run_ransac_cloud_metric_registers_clouds():
    rng = np.random.default_rng(62)
    src_pts = rng.normal(size=(300, 3)) * 30
    gt = random_rigid(rng, t_scale=15.0)
    tgt_pts = gt.apply(src_pts)
    picks = rng.choice(300, size=25, replace=False)
    corrs = CorrespondenceSet(src_pts[picks], tgt_pts[picks])
    source = PointCloud(src_pts)
    index = build_index(tgt_pts)
    for kind, expected in ((MetricKind.PC_DIST, 0.0),
                           (MetricKind.OVERLAP_COUNT, 300.0)):
        spec = MetricSpec(kind=kind, t=7.5, pr=1.0)
        cfg = RansacConfig(metric=spec, seed=5, iterations=30)
        result = run_ransac(cfg, corrs, source=source, target_index=index)
        assert result.best_score.value == pytest.approx(expected, abs=1e-8)
        np.testing.assert_allclose(result.best_transform.rotation,
                                   gt.rotation, atol=1e-9)


def test_run_ransac_cloud_metric_requires_clouds():
    rng = np.random.default_rng(63)
    corrs, _ = make_corrs(rng, n=20, outlier_ratio=0.0)
    spec = MetricSpec(kind=MetricKind.PC_DIST, t=7.5, pr=1.0)
    cfg = RansacConfig(metric=spec, seed=0, iterations=5)
    with pytest.raises(MissingClouds):
        run_ransac(cfg, corrs)
    with pytest.raises(MissingClouds):
        run_ransac(cfg, corrs, source=PointCloud(corrs.sources))
    index = build_index(corrs.targets)
    for kind in (MetricKind.PC_DIST, MetricKind.OVERLAP_COUNT):
        cfg = RansacConfig(metric=MetricSpec(kind=kind, t=7.5, pr=1.0),
                           seed=0, iterations=5)
        for empty in (PointCloud(np.empty((0, 3))), np.empty((0, 3))):
            with pytest.raises(EmptyCloud):
                run_ransac(cfg, corrs, source=empty, target_index=index)
