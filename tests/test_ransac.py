"""RANSAC engine: sampling, determinism, exact replay, cloud metrics."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from ransacreg import (
    BadConfig,
    CorrespondenceSet,
    EmptyCloud,
    InvalidInput,
    MetricKind,
    MetricSpec,
    MissingClouds,
    PersistentDegeneracy,
    PointCloud,
    RansacConfig,
    TooFewCorrespondences,
    CorrespondenceConfig,
    SceneConfig,
    build_index,
    estimate_rigid_transform,
    evaluate_hypothesis,
    generate_correspondences,
    generate_scene,
    run_ransac,
    sample_minimal,
    triangle_area,
)
from ransacreg import metrics as metrics_module
from ransacreg import ransac as ransac_module
from ransacreg.geom import _degeneracy_threshold
from ransacreg.ransac import SAMPLE_SIZE
from ransacreg.spatial import NeighborIndex

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
    with pytest.raises(BadConfig):  # beyond int64, the sampler's count type
        RansacConfig(metric=MAE, seed=0, iterations=2**63)
    assert RansacConfig(metric=MAE, seed=0, iterations=2**63 - 1).iterations
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
    min_area = _degeneracy_threshold(corrs.sources)
    rng = np.random.default_rng(54)
    for _ in range(300):
        idx = sample_minimal(corrs, rng)
        area = triangle_area(src[idx[0]], src[idx[1]], src[idx[2]])
        assert area > min_area


# ------------------------------------------------- bulk sampling decode
#
# The engine decodes sample_minimal's draws from the generator's raw output
# (ransac._sample_triples), which mirrors numpy's Generator.choice. These
# tests compare it with the sample_minimal loop bit for bit; they are the
# ones that fail when a numpy upgrade changes choice, which would otherwise
# move every hypothesis stream without notice.


def _loop_triples(corrs, seed, iterations, retries, min_area):
    rng = np.random.default_rng(seed)
    return np.array([sample_minimal(corrs, rng, min_triangle_area=min_area,
                                     degeneracy_retries=retries)
                     for _ in range(iterations)])


def _degenerate_heavy_set():
    """Collinear and duplicated points with a few off the line: most
    triples are degenerate, several often in a row."""
    line = np.column_stack([np.arange(12.0), np.zeros(12), np.zeros(12)])
    off = np.array([[0.0, 5.0, 0.0], [3.0, 0.0, 4.0], [7.0, 2.0, 1.0]])
    src = np.vstack([line, line[:6], off])
    return CorrespondenceSet(src, src)


@pytest.mark.parametrize("n", [3, 4, 5, 1000, 100_000])
def test_bulk_sampling_matches_the_sample_minimal_loop(n):
    """_sample_triples returns what 1000 sample_minimal calls return, for
    40 seeds. The decode is numpy's choice(n, 3, replace=False) for
    numpy 2.4 (Floyd's algorithm, then a two-step shuffle, five bounded
    32-bit words per call): if this fails after a numpy upgrade, choice
    has changed and the decode must follow it (or be removed)."""
    src = np.random.default_rng(n).normal(size=(n, 3)) * 50.0
    corrs = CorrespondenceSet(src, src)
    min_area = _degeneracy_threshold(corrs.sources)
    for seed in range(40):
        np.testing.assert_array_equal(
            ransac_module._sample_triples(corrs, seed, 1000, 100, min_area),
            _loop_triples(corrs, seed, 1000, 100, min_area))


@pytest.mark.parametrize("shape", ["random-blob", "lattice"])
def test_bulk_sampling_matches_the_loop_on_scene_correspondences(shape):
    scene = generate_scene(SceneConfig(n_points=2000, shape=shape, seed=3))
    corrs, _ = generate_correspondences(
        scene, CorrespondenceConfig(n_correspondences=500, inlier_ratio=1.0,
                                    seed=4))
    min_area = _degeneracy_threshold(corrs.sources)
    for seed in range(10):
        np.testing.assert_array_equal(
            ransac_module._sample_triples(corrs, seed, 1000, 100, min_area),
            _loop_triples(corrs, seed, 1000, 100, min_area))


@pytest.mark.parametrize("min_area", [0.0, None])
def test_bulk_sampling_masks_degenerate_candidates_like_the_loop(min_area):
    """Most candidates are degenerate, many iterations redraw several times,
    and at min_area = 0 the duplicates' exact zero areas sit on the bound."""
    corrs = _degenerate_heavy_set()
    if min_area is None:
        min_area = _degeneracy_threshold(corrs.sources)
    for seed in range(20):
        np.testing.assert_array_equal(
            ransac_module._sample_triples(corrs, seed, 300, 100, min_area),
            _loop_triples(corrs, seed, 300, 100, min_area))


def test_bulk_sampling_decodes_a_lemire_rejection(monkeypatch):
    """Seed 59 at n = 100 000 draws a word that numpy's bounded-integer
    step rejects and redraws: the decode drops that one word. Neither it
    nor n = 3, whose first Floyd draw takes no word, runs the loop."""
    dropped = []

    def spy(words, n):
        triples, consumed = decode(words, n)
        dropped.append(consumed - 5 * triples.shape[0])
        return triples, consumed

    decode = ransac_module._decode_choices
    src = np.random.default_rng(5).normal(size=(100_000, 3))
    corrs = CorrespondenceSet(src, src)
    tiny = CorrespondenceSet(src[:3], src[:3])
    loop = _loop_triples(corrs, 59, 1000, 100, 0.0)
    tiny_loop = _loop_triples(tiny, 0, 1000, 100, 0.0)
    monkeypatch.setattr(ransac_module, "sample_minimal", None)
    monkeypatch.setattr(ransac_module, "_decode_choices", spy)
    np.testing.assert_array_equal(
        ransac_module._sample_triples(corrs, 59, 1000, 100, 0.0), loop)
    assert dropped == [1]
    np.testing.assert_array_equal(
        ransac_module._sample_triples(tiny, 0, 1000, 100, 0.0), tiny_loop)


def _choice_reference(words, n):
    """numpy's choice(n, 3, replace=False), one call after another, over a
    stream of 32-bit words, in plain Python: each draw is Lemire's bounded
    step with redraw, Floyd's algorithm fixes collisions, and a two-step
    shuffle ends the call. Returns the complete calls' triples, the words
    they consumed and how many of those were redrawn."""
    pos = redrawn = 0

    def bounded(bound):  # a value in [0, bound)
        nonlocal pos, redrawn
        if bound == 1:
            return 0
        while True:
            m = int(words[pos]) * bound  # IndexError ends the stream
            pos += 1
            if m % 2**32 >= 2**32 % bound:
                return m >> 32
            redrawn += 1

    triples, consumed, rejected = [], 0, 0
    try:
        while True:
            data = []
            for j in range(n - 3, n):
                value = bounded(j + 1)
                data.append(j if value in data else value)
            for i in (2, 1):
                j = bounded(i + 1)
                data[i], data[j] = data[j], data[i]
            triples.append(data)
            consumed, rejected = pos, redrawn
    except IndexError:
        pass
    return np.array(triples, dtype=np.intp).reshape(-1, 3), consumed, rejected


@pytest.mark.parametrize("n", [3, 4, 1000, 100_000])
def test_decode_choices_matches_numpys_draw_on_planted_rejections(n):
    """_decode_choices against the sequential reference, on a word stream
    with zeros planted in it: a zero is rejected by every bound that is not
    a power of two. They sit in each Floyd draw, in the [0, 2] shuffle
    draw, twice in a row and in the last complete call, and the stream is
    also decoded in two parts with the unfinished call carried over. The
    reference is first checked against Generator.choice on PCG64's words,
    low half of each 64-bit output first, which at n = 100 000 and seed 59
    include a rejection."""
    raw = np.random.default_rng(59).bit_generator.random_raw(2600)
    reference, _, _ = _choice_reference(
        raw.astype("<u8", copy=False).view("<u4"), n)
    choice = np.random.default_rng(59).choice
    np.testing.assert_array_equal(
        reference[:1000], [choice(n, 3, replace=False) for _ in range(1000)])
    bounds = [b for b in (n - 2, n - 1, n, 3, 2) if b > 1]
    rng = np.random.default_rng(n)
    # Zeros before draw d of call c, as {c: (d, ...)}; planted only where
    # the bound rejects them.
    planted = {1: (0,), 3: (1,), 5: (2,), 7: (len(bounds) - 2,),
               9: (1, 1), 38: (1,), 39: (0, 3)}
    words, zeros = [], 0
    for c in range(40):
        for d, bound in enumerate(bounds):
            if bound & (bound - 1):
                k = planted.get(c, ()).count(d)
                words += [0] * k
                zeros += k if c < 39 else 0
            words.append(int(rng.integers(1, 2**32)))
    words = np.array(words[:-1], dtype=np.uint32)  # call 39 is unfinished
    triples, consumed, rejected = _choice_reference(words, n)
    assert triples.shape == (39, 3) and rejected == zeros >= 5
    got, got_consumed = ransac_module._decode_choices(words, n)
    np.testing.assert_array_equal(got, triples)
    assert got_consumed == consumed
    for cut in (9 * len(bounds) + 1, consumed - 1, consumed + 1):
        head, used = ransac_module._decode_choices(words[:cut], n)
        tail, rest = ransac_module._decode_choices(words[used:], n)
        np.testing.assert_array_equal(np.concatenate([head, tail]), triples)
        assert used + rest == consumed


@pytest.mark.parametrize("seed", range(8))
def test_bulk_sampling_raises_persistent_degeneracy_where_the_loop_does(seed):
    """With 3 attempts per iteration, the loop fails at some iteration k:
    the bulk decode returns the same k triples for a budget of k and raises
    the same error for a budget of k + 1."""
    corrs = _degenerate_heavy_set()
    rng = np.random.default_rng(seed)
    loop_triples = []
    with pytest.raises(PersistentDegeneracy) as loop_exc:
        for _ in range(10_000):
            loop_triples.append(sample_minimal(
                corrs, rng, min_triangle_area=0.0, degeneracy_retries=2))
    k = len(loop_triples)
    if k:
        np.testing.assert_array_equal(
            ransac_module._sample_triples(corrs, seed, k, 2, 0.0),
            np.array(loop_triples))
    with pytest.raises(PersistentDegeneracy) as bulk_exc:
        ransac_module._sample_triples(corrs, seed, k + 1, 2, 0.0)
    assert str(bulk_exc.value) == str(loop_exc.value)


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


def test_error_kernel_failure_on_helper_thread_reaches_caller(monkeypatch):
    """The error kernel runs one chunk ahead on a helper thread; an
    exception it raises there must reach run_ransac's caller as the same
    object, and no helper thread may outlive either run."""
    monkeypatch.setattr(metrics_module, "_BATCH_ELEMENTS", 4 * 50)
    rng = np.random.default_rng(61)
    corrs, _ = make_corrs(rng, n=50, outlier_ratio=0.3)
    cfg = RansacConfig(metric=MAE, seed=5, iterations=40)  # 10 chunks
    baseline = threading.active_count()
    run_ransac(cfg, corrs)
    assert threading.active_count() == baseline

    kernel = metrics_module._errors_batch
    caller = threading.current_thread()
    failure = RuntimeError("kernel failed")
    raised_on = []

    def failing_kernel(*args, **kwargs):
        if len(raised_on) == 3:
            raised_on.append(threading.current_thread())
            raise failure
        raised_on.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(metrics_module, "_errors_batch", failing_kernel)
    with pytest.raises(RuntimeError) as excinfo:
        run_ransac(cfg, corrs)
    assert excinfo.value is failure
    assert raised_on[-1] is not None and raised_on[-1] is not caller
    assert threading.active_count() == baseline


def test_cloud_task_failure_on_pool_thread_reaches_caller(monkeypatch):
    """The cloud pass moves and queries each hypothesis in a task on its
    thread pool, block by block; an exception a task raises, in its first
    block or a later one, must reach run_ransac's caller as the same
    object, and no pool thread may outlive any run."""
    monkeypatch.setattr(metrics_module.os, "cpu_count", lambda: 3)
    rng = np.random.default_rng(64)
    corrs, gt = make_corrs(rng, n=50, outlier_ratio=0.3)
    index = build_index(gt.apply(corrs.sources))
    spec = MetricSpec(kind=MetricKind.PC_DIST, t=7.5, pr=1.0)
    cfg = RansacConfig(metric=spec, seed=6, iterations=40)
    baseline = threading.active_count()
    run_ransac(cfg, corrs, source=corrs.sources, target_index=index)
    assert threading.active_count() == baseline

    distances = NeighborIndex.nearest_distances
    caller = threading.current_thread()
    # One 50-point block per hypothesis, then blocks of 16, 16, 16 and 2
    # points: the first call on a 2-point block is a hypothesis's fourth.
    for block, fails in ((1024, lambda calls, q: calls == 10),
                         (16, lambda calls, q: len(q) == 2)):
        monkeypatch.setattr(metrics_module, "_CLOUD_BLOCK", block)
        failure = RuntimeError("cloud task failed")
        raised_on = []
        lock = threading.Lock()

        def failing_distances(self, queries):
            with lock:
                fail = not any(raised_on) and fails(len(raised_on), queries)
                raised_on.append(threading.current_thread() if fail else None)
            if fail:
                raise failure
            return distances(self, queries)

        monkeypatch.setattr(NeighborIndex, "nearest_distances",
                            failing_distances)
        with pytest.raises(RuntimeError) as excinfo:
            run_ransac(cfg, corrs, source=corrs.sources, target_index=index)
        assert excinfo.value is failure
        thread = next(t for t in raised_on if t is not None)
        assert thread is not caller
        assert threading.active_count() == baseline


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
        nan_source = corrs.sources.copy()
        nan_source[2, 0] = np.nan
        for bad in (np.zeros((5, 2)), nan_source):
            with pytest.raises(InvalidInput):
                run_ransac(cfg, corrs, source=bad, target_index=index)
