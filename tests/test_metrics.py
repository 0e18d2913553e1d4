"""Scoring functions: golden values, ranges, invariants, batch parity."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ransacreg import (
    CLOUD_KINDS,
    CORRESPONDENCE_KINDS,
    Correspondence,
    CorrespondenceSet,
    EmptyCloud,
    HypothesisScore,
    InvalidInput,
    InvalidSpec,
    MetricKind,
    MetricSpec,
    PROPOSED_KINDS,
    PointCloud,
    RigidTransform,
    build_index,
    evaluate_hypothesis,
    evaluate_hypothesis_cloud,
    rotation_about_axis,
    score_correspondence,
    score_errors,
    transformation_error,
    transformation_errors,
)
from ransacreg import metrics as metrics_module
from ransacreg.metrics import _cloud_values_batch, _corr_values_batch
from ransacreg.spatial import _MOVED_LIMIT, NeighborIndex

from conftest import random_rigid, random_rotation

SPEC = MetricSpec(kind=MetricKind.MAE, t=7.5, m=0.9, pr=1.0)


def spec_for(kind, t=7.5, m=0.9, pr=1.0, t_overlap=None) -> MetricSpec:
    return MetricSpec(kind=kind, t=t, m=m, pr=pr, t_overlap=t_overlap)


def random_corrs(rng, n=40, spread=30.0) -> CorrespondenceSet:
    return CorrespondenceSet(rng.normal(size=(n, 3)) * spread,
                             rng.normal(size=(n, 3)) * spread)


# ------------------------------------------------------------- MetricKind


def test_metric_kind_canonical_names():
    assert {k.value for k in MetricKind} == {
        "inlier-count", "huber", "mae", "mse", "log-cosh", "exp",
        "quantile", "neg-quantile", "pc-dist", "overlap-count"}
    assert str(MetricKind.LOG_COSH) == "log-cosh"
    assert MetricKind("mae") is MetricKind.MAE


def test_kind_partitions():
    assert CLOUD_KINDS == {MetricKind.PC_DIST, MetricKind.OVERLAP_COUNT}
    assert CORRESPONDENCE_KINDS | CLOUD_KINDS == set(MetricKind)
    assert PROPOSED_KINDS < CORRESPONDENCE_KINDS
    assert len(PROPOSED_KINDS) == 6


# -------------------------------------------------------------- MetricSpec


def test_metric_spec_validation():
    with pytest.raises(InvalidSpec):
        spec_for(MetricKind.MAE, t=0.0)
    with pytest.raises(InvalidSpec):
        spec_for(MetricKind.MAE, t=-1.0)
    with pytest.raises(InvalidSpec):
        spec_for(MetricKind.QUANTILE, m=1.0)
    with pytest.raises(InvalidSpec):
        spec_for(MetricKind.QUANTILE, m=0.0)
    with pytest.raises(InvalidSpec):
        spec_for(MetricKind.MAE, pr=0.0)
    with pytest.raises(InvalidSpec):
        spec_for(MetricKind.OVERLAP_COUNT, t_overlap=-2.0)
    with pytest.raises(ValueError):
        spec_for("not-a-metric")
    # Anything but a real number is InvalidSpec, not a raw conversion error
    # and not read as a number.
    for bad in ("x", "7.5", None, True):
        with pytest.raises(InvalidSpec, match="must be a real number"):
            spec_for(MetricKind.MAE, t=bad)
    for field, bad in (("m", None), ("pr", None), ("t_overlap", "x")):
        with pytest.raises(InvalidSpec, match=f"{field} must be a real number"):
            spec_for(MetricKind.OVERLAP_COUNT, **{field: bad})
    # The resolution is checked before the threshold bound to it.
    with pytest.raises(InvalidSpec, match="resolution pr"):
        spec_for(MetricKind.MAE, t=0.0, pr=0.0)


def test_metric_spec_t_overlap_defaults_to_twice_resolution():
    spec = MetricSpec(kind=MetricKind.OVERLAP_COUNT, t=7.5, pr=0.25)
    assert spec.t_overlap == 0.5
    spec = MetricSpec(kind=MetricKind.OVERLAP_COUNT, t=7.5, pr=0.25, t_overlap=3.0)
    assert spec.t_overlap == 3.0


def test_metric_spec_coerces_kind_string():
    assert spec_for("mse").kind is MetricKind.MSE


# ----------------------------------------------------- correspondence types


def test_correspondence_validation_and_storage():
    c = Correspondence([1, 2, 3], (4.0, 5.0, 6.0))
    np.testing.assert_array_equal(c.source, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        c.source[0] = 9.0
    with pytest.raises(ValueError):
        Correspondence([np.nan, 0, 0], [0, 0, 0])


def test_correspondence_set_roundtrip_and_take():
    rng = np.random.default_rng(31)
    corrs = random_corrs(rng, n=6)
    assert corrs.n == len(corrs) == 6
    items = corrs.items
    rebuilt = CorrespondenceSet.from_items(items)
    np.testing.assert_array_equal(rebuilt.sources, corrs.sources)
    np.testing.assert_array_equal(rebuilt.targets, corrs.targets)
    np.testing.assert_array_equal(corrs[2].target, corrs.targets[2])
    sub = corrs.take([5, 1])
    np.testing.assert_array_equal(sub.sources, corrs.sources[[5, 1]])
    with pytest.raises(ValueError):
        CorrespondenceSet(np.zeros((3, 3)), np.zeros((4, 3)))


def test_empty_correspondence_set():
    empty = CorrespondenceSet.from_items([])
    assert empty.n == 0
    assert evaluate_hypothesis(SPEC, RigidTransform.identity(), empty).value == 0.0


def test_take_with_no_indices_selects_nothing():
    corrs = random_corrs(np.random.default_rng(32), n=5)
    for none in ([], (), np.array([], dtype=np.int64), np.zeros(5, dtype=bool)):
        sub = corrs.take(none)
        assert sub.n == 0 and sub.sources.shape == sub.targets.shape == (0, 3)
    mask = np.array([True, False, False, True, False])
    np.testing.assert_array_equal(corrs.take(mask).targets, corrs.targets[[0, 3]])
    np.testing.assert_array_equal(corrs.take(np.array([4, 4])).sources,
                                  corrs.sources[[4, 4]])


# ------------------------------------------------------ transformation error


def test_transformation_error_hand_values():
    ident = RigidTransform.identity()
    assert transformation_error(Correspondence([0, 0, 0], [0, 0, 0]), ident) == 0.0
    assert transformation_error(Correspondence([1, 0, 0], [0, 0, 0]), ident) == 1.0
    quarter = RigidTransform(rotation_about_axis([0, 0, 1], math.pi / 2),
                             np.zeros(3))
    e = transformation_error(Correspondence([1, 0, 0], [0, 1, 0]), quarter)
    assert e == pytest.approx(0.0, abs=1e-12)


def test_transformation_errors_vector_matches_scalar_bitwise():
    rng = np.random.default_rng(32)
    transform = random_rigid(rng)
    corrs = random_corrs(rng, n=50)
    vec = transformation_errors(transform, corrs)
    for j in range(corrs.n):
        assert transformation_error(corrs[j], transform) == vec[j]


# ------------------------------------------------------------ golden values


def test_mae_golden_values():
    spec = spec_for(MetricKind.MAE)
    assert score_correspondence(spec, 0.0) == 1.0
    assert score_correspondence(spec, 3.75) == 0.5
    assert score_correspondence(spec, 7.5) == 0.0
    assert score_correspondence(spec, 10.0) == 0.0


def test_mse_golden_values():
    spec = spec_for(MetricKind.MSE)
    assert score_correspondence(spec, 3.75) == 0.25
    assert score_correspondence(spec, 0.0) == 1.0
    assert score_correspondence(spec, 7.5) == 0.0


def test_exp_golden_values():
    spec = spec_for(MetricKind.EXP)
    assert score_correspondence(spec, 0.0) == 1.0
    assert score_correspondence(spec, 7.49999) == pytest.approx(
        math.exp(-0.5), abs=1e-5)
    assert score_correspondence(spec, 7.5) == 0.0


def test_quantile_golden_values():
    spec = spec_for(MetricKind.QUANTILE)
    assert score_correspondence(spec, 0.0) == 0.9
    assert score_correspondence(spec, 15.0) == pytest.approx(0.05, rel=1e-12)
    assert score_correspondence(spec, 7.5e8) == pytest.approx(0.1, abs=1e-8)
    assert score_correspondence(spec, 7.5e8) < 0.1


def test_neg_quantile_golden_values():
    spec = spec_for(MetricKind.NEG_QUANTILE)
    assert score_correspondence(spec, 15.0) == pytest.approx(-0.05, rel=1e-12)
    assert score_correspondence(spec, 0.0) == 0.9


def test_log_cosh_golden_values():
    spec = spec_for(MetricKind.LOG_COSH)
    assert score_correspondence(spec, 0.0) == 1.0
    got = score_correspondence(spec, 3.75)
    oracle = math.log(math.cosh(3.75)) / math.log(math.cosh(7.5))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(0.4491, abs=1e-3)


def test_inlier_count_golden_values():
    spec = spec_for(MetricKind.INLIER_COUNT)
    assert score_correspondence(spec, 0.0) == 1.0
    assert score_correspondence(spec, 7.4999) == 1.0
    assert score_correspondence(spec, 7.5) == 0.0  # strict boundary
    assert score_correspondence(spec, 100.0) == 0.0


def test_huber_values():
    spec = spec_for(MetricKind.HUBER)
    assert score_correspondence(spec, 0.0) == 0.0
    assert score_correspondence(spec, 2.0) == -2.0
    # boundary joins the two branches continuously
    below = -(7.5 ** 2) / 2.0
    assert score_correspondence(spec, 7.5) == pytest.approx(below, rel=1e-12)
    assert score_correspondence(spec, 10.0) == pytest.approx(
        -7.5 * (10.0 - 3.75), rel=1e-12)


def test_boundary_is_outlier_for_every_kind():
    for kind in CORRESPONDENCE_KINDS:
        spec = spec_for(kind)
        at_t = score_correspondence(spec, 7.5)
        if kind is MetricKind.HUBER:
            assert at_t == -7.5 * (7.5 - 3.75)
        else:
            assert at_t == 0.0


# ----------------------------------------------------------- score plumbing


def test_score_correspondence_rejects_bad_input():
    with pytest.raises(InvalidSpec):
        score_correspondence(spec_for(MetricKind.PC_DIST), 1.0)
    with pytest.raises(ValueError):
        score_correspondence(SPEC, -0.5)
    with pytest.raises(ValueError):
        score_correspondence(SPEC, math.inf)


def test_score_errors_matches_scalar_bitwise():
    rng = np.random.default_rng(33)
    e = np.concatenate([rng.uniform(0.0, 30.0, size=200), [0.0, 7.5, 7.4999]])
    for kind in CORRESPONDENCE_KINDS:
        spec = spec_for(kind)
        vec = score_errors(spec, e)
        for j in (0, 17, 150, 200, 201, 202):
            assert score_correspondence(spec, e[j]) == vec[j]
        # a 2-D error array is scored flattened, in row-major order
        np.testing.assert_array_equal(score_errors(spec, e.reshape(7, 29)), vec)


def test_score_errors_validates():
    with pytest.raises(ValueError):
        score_errors(SPEC, [1.0, -2.0])
    with pytest.raises(ValueError):
        score_errors(SPEC, [np.inf])
    with pytest.raises(InvalidSpec):
        score_errors(spec_for(MetricKind.OVERLAP_COUNT), [1.0])


def test_log_cosh_is_stable_for_huge_arguments():
    spec = spec_for(MetricKind.LOG_COSH, t=1e9, pr=1.0)
    value = score_correspondence(spec, 0.0)
    assert math.isfinite(value) and value == 1.0
    # naive log(cosh(x)) overflows near x = 710; the asymptote is |x| - log 2
    mid = score_correspondence(spec, 2e8)
    oracle = (8e8 - math.log(2.0)) / (1e9 - math.log(2.0))
    assert mid == pytest.approx(oracle, rel=1e-12)


# ------------------------------------------------------- ranges and shapes


def test_range_bounds_on_dense_grids():
    rng = np.random.default_rng(34)
    for _ in range(50):
        t = rng.uniform(0.5, 20.0)
        m = rng.uniform(0.05, 0.95)
        inl = np.linspace(0.0, t, 200, endpoint=False)
        out = np.concatenate([[t], t + np.geomspace(1e-6, 1e4, 100)])
        for kind in (MetricKind.MAE, MetricKind.MSE, MetricKind.LOG_COSH,
                     MetricKind.EXP):
            spec = spec_for(kind, t=t, m=m)
            s_in = score_errors(spec, inl)
            assert np.all(s_in > 0.0) and np.all(s_in <= 1.0)
            assert np.all(score_errors(spec, out) == 0.0)
        q = spec_for(MetricKind.QUANTILE, t=t, m=m)
        s_in = score_errors(q, inl)
        # mathematical range is (0, m]; m * t / t may land one ulp above m
        assert np.all(s_in > 0.0) and np.all(s_in <= m * (1.0 + 1e-14))
        assert s_in[0] == pytest.approx(m, rel=1e-14)  # closed end at e = 0
        s_out = score_errors(q, out)
        assert np.all(s_out >= 0.0) and np.all(s_out < 1.0 - m)
        nq = spec_for(MetricKind.NEG_QUANTILE, t=t, m=m)
        s_out = score_errors(nq, out)
        assert np.all(s_out <= 0.0) and np.all(s_out > -(1.0 - m))


def test_strict_monotonicity_on_inlier_branch():
    rng = np.random.default_rng(35)
    for _ in range(50):
        t = rng.uniform(0.5, 20.0)
        e = np.unique(rng.uniform(0.0, t * (1.0 - 1e-9), size=100))
        for kind in (MetricKind.MAE, MetricKind.MSE, MetricKind.LOG_COSH,
                     MetricKind.EXP, MetricKind.QUANTILE,
                     MetricKind.NEG_QUANTILE):
            s = score_errors(spec_for(kind, t=t), e)
            assert np.all(np.diff(s) < 0.0), kind


def test_all_outliers_are_equal_exactly():
    rng = np.random.default_rng(36)
    for kind in (MetricKind.MAE, MetricKind.MSE, MetricKind.LOG_COSH,
                 MetricKind.EXP):
        spec = spec_for(kind)
        for _ in range(20):
            e = rng.uniform(0.0, 30.0, size=60)
            total = float(np.sum(score_errors(spec, e)))
            perturbed = e.copy()
            outliers = perturbed >= spec.t
            perturbed[outliers] = spec.t + rng.uniform(
                0.0, 1e6, size=int(outliers.sum()))
            assert float(np.sum(score_errors(spec, perturbed))) == total


def test_permutation_invariance_of_totals():
    rng = np.random.default_rng(37)
    transform = random_rigid(rng)
    corrs = random_corrs(rng, n=80)
    shuffled = corrs.take(rng.permutation(80))
    for kind in CORRESPONDENCE_KINDS:
        spec = spec_for(kind)
        a = evaluate_hypothesis(spec, transform, corrs).value
        b = evaluate_hypothesis(spec, transform, shuffled).value
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_discrimination_between_equal_inlier_counts():
    """Two hypotheses, same inlier count, B's inliers strictly tighter:
    every proposed metric must prefer B while inlier count ties."""
    rng = np.random.default_rng(38)
    t = 7.5
    n = 20
    src = rng.normal(size=(n, 3)) * 40
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    v = np.array([t / 2, 0.0, 0.0])
    eps = rng.uniform(0.05, 0.9 * t / 4, size=n)
    tgt = src + v + eps[:, np.newaxis] * dirs
    corrs = CorrespondenceSet(src, tgt)
    hyp_a = RigidTransform.identity()
    hyp_b = RigidTransform(np.eye(3), v)
    for kind in PROPOSED_KINDS:
        spec = spec_for(kind, t=t)
        assert (evaluate_hypothesis(spec, hyp_b, corrs).value
                > evaluate_hypothesis(spec, hyp_a, corrs).value), kind
    ic = spec_for(MetricKind.INLIER_COUNT, t=t)
    assert (evaluate_hypothesis(ic, hyp_a, corrs).value
            == evaluate_hypothesis(ic, hyp_b, corrs).value == float(n))


def test_scale_invariance_exact_for_power_of_two():
    rng = np.random.default_rng(39)
    corrs = random_corrs(rng, n=30)
    transform = random_rigid(rng)
    lam = 2.0 ** 5
    scaled = CorrespondenceSet(corrs.sources * lam, corrs.targets * lam)
    scaled_t = RigidTransform(transform.rotation, transform.translation * lam)
    for kind in PROPOSED_KINDS | {MetricKind.INLIER_COUNT}:
        spec = spec_for(kind, t=7.5, pr=1.0)
        spec_l = spec_for(kind, t=7.5 * lam, pr=lam)
        assert (evaluate_hypothesis(spec, transform, corrs).value
                == evaluate_hypothesis(spec_l, scaled_t, scaled).value), kind


def test_scale_changes_huber_values_but_not_ordering():
    rng = np.random.default_rng(40)
    corrs = random_corrs(rng, n=30)
    hyps = [random_rigid(rng) for _ in range(8)]
    lam = 3.7
    scaled = CorrespondenceSet(corrs.sources * lam, corrs.targets * lam)
    spec = spec_for(MetricKind.HUBER, t=7.5)
    spec_l = spec_for(MetricKind.HUBER, t=7.5 * lam)
    plain = [evaluate_hypothesis(spec, h, corrs).value for h in hyps]
    scaled_vals = [
        evaluate_hypothesis(
            spec_l, RigidTransform(h.rotation, h.translation * lam), scaled).value
        for h in hyps]
    assert int(np.argmax(plain)) == int(np.argmax(scaled_vals))
    assert not np.allclose(plain, scaled_vals)


# ------------------------------------------------------------ cloud metrics


def test_cloud_metric_perfect_overlap():
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(50, 3)) * 10
    cloud = PointCloud(pts)
    index = build_index(cloud)
    pcd = spec_for(MetricKind.PC_DIST, pr=1.0)
    ov = spec_for(MetricKind.OVERLAP_COUNT, pr=1.0)
    ident = RigidTransform.identity()
    assert evaluate_hypothesis_cloud(pcd, ident, cloud, index).value == 0.0
    assert evaluate_hypothesis_cloud(ov, ident, cloud, index).value == 50.0


def test_cloud_metric_uniform_offset():
    # integer grid spaced 2 apart; a 0.25 shift is below half the spacing
    x, y, z = np.mgrid[0:4, 0:4, 0:4]
    tgt = (2.0 * np.column_stack([x.ravel(), y.ravel(), z.ravel()])).astype(float)
    src = PointCloud(tgt + np.array([0.25, 0.0, 0.0]))
    index = build_index(tgt)
    ident = RigidTransform.identity()
    pcd = spec_for(MetricKind.PC_DIST)
    assert evaluate_hypothesis_cloud(pcd, ident, src, index).value == -0.25
    ov_tight = spec_for(MetricKind.OVERLAP_COUNT, t_overlap=0.25)
    assert evaluate_hypothesis_cloud(ov_tight, ident, src, index).value == 0.0
    ov_loose = spec_for(MetricKind.OVERLAP_COUNT, t_overlap=0.2500001)
    assert evaluate_hypothesis_cloud(ov_loose, ident, src, index).value == 64.0


def test_cloud_metric_matches_brute_force():
    rng = np.random.default_rng(42)
    src = PointCloud(rng.normal(size=(40, 3)) * 5)
    tgt = rng.normal(size=(70, 3)) * 5
    index = build_index(tgt)
    transform = random_rigid(rng, t_scale=2.0)
    moved = transform.apply(src.points)
    dmat = np.sqrt(((moved[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2))
    nearest = dmat.min(axis=1)
    pcd = spec_for(MetricKind.PC_DIST)
    got = evaluate_hypothesis_cloud(pcd, transform, src, index).value
    assert got == pytest.approx(-float(nearest.mean()), rel=1e-12)
    ov = spec_for(MetricKind.OVERLAP_COUNT, t_overlap=3.0)
    got = evaluate_hypothesis_cloud(ov, transform, src, index).value
    assert got == float(np.count_nonzero(nearest < 3.0))


def test_cloud_metric_guards():
    rng = np.random.default_rng(43)
    cloud = PointCloud(rng.normal(size=(10, 3)))
    index = build_index(cloud)
    ident = RigidTransform.identity()
    with pytest.raises(InvalidSpec):
        evaluate_hypothesis_cloud(SPEC, ident, cloud, index)
    with pytest.raises(InvalidSpec):
        evaluate_hypothesis(spec_for(MetricKind.PC_DIST), ident,
                            random_corrs(rng, n=4))
    pcd = spec_for(MetricKind.PC_DIST)
    with pytest.raises(EmptyCloud):
        evaluate_hypothesis_cloud(pcd, ident, np.empty((0, 3)), index)
    # Every malformed source is InvalidInput, before numpy or scipy sees it.
    nan_row = cloud.points.copy()
    nan_row[3, 1] = np.nan
    for bad in (np.zeros((5, 2)), np.zeros((2, 3, 3)), np.zeros(4), nan_row,
                np.array([0.0, np.inf, 0.0]), [["a", "b", "c"]]):
        for kind in CLOUD_KINDS:
            with pytest.raises(InvalidInput):
                evaluate_hypothesis_cloud(spec_for(kind), ident, bad, index)
    # A (3,) source is one point, as in PointCloud.
    point = cloud.points[4]
    for kind in CLOUD_KINDS:
        spec = spec_for(kind)
        one = evaluate_hypothesis_cloud(spec, ident, point, index).value
        assert one == evaluate_hypothesis_cloud(
            spec, ident, PointCloud(point), index).value
    assert evaluate_hypothesis_cloud(pcd, ident, point, index).value == 0.0


# ----------------------------------------------------------- total plumbing


def test_evaluate_hypothesis_additivity():
    corrs = CorrespondenceSet(np.zeros((3, 3)), np.zeros((3, 3)))
    assert evaluate_hypothesis(SPEC, RigidTransform.identity(), corrs).value == 3.0


def test_evaluate_hypothesis_matches_per_item_sum_exactly():
    rng = np.random.default_rng(44)
    transform = random_rigid(rng)
    corrs = random_corrs(rng, n=35)
    for kind in CORRESPONDENCE_KINDS:
        spec = spec_for(kind)
        per_item = np.array([
            score_correspondence(spec, transformation_error(c, transform))
            for c in corrs.items])
        assert evaluate_hypothesis(spec, transform, corrs).value == np.sum(per_item)


def test_hypothesis_score_requires_finite_value():
    with pytest.raises(ValueError):
        HypothesisScore(math.nan, MetricKind.MAE)
    score = HypothesisScore(1.5, "mae")
    assert score.kind is MetricKind.MAE and score.value == 1.5


def _check_batch_equals_sequential(monkeypatch, kinds):
    monkeypatch.setattr(metrics_module, "_BATCH_ELEMENTS", 700)  # 10 rows
    kernel = metrics_module._errors_batch
    caller = threading.current_thread()
    seen = []

    def checked_kernel(rot, trans, src, tgt, out=None):
        assert out is not None and threading.current_thread() is not caller
        if seen:
            assert not np.shares_memory(out[0], seen[-1])
        seen.append(out[0])
        return kernel(rot, trans, src, tgt, out=out)

    monkeypatch.setattr(metrics_module, "_errors_batch", checked_kernel)
    rng = np.random.default_rng(45)
    corrs = random_corrs(rng, n=70, spread=20.0)
    h = 64
    rotations = np.stack([random_rotation(rng) for _ in range(h)])
    translations = rng.standard_normal((h, 3)) * 10
    specs = [spec_for(kind, t=t) for kind in sorted(kinds)
             for t in (2.5, 7.5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads finely
    try:
        batch, seconds = _corr_values_batch(specs, rotations, translations,
                                            corrs.sources, corrs.targets)
    finally:
        sys.setswitchinterval(interval)
    assert batch.shape == (len(specs), h)
    assert seconds.shape == (len(specs),) and np.all(seconds >= 0.0)
    assert len(seen) == 7 and len({b.ctypes.data for b in seen}) == 2
    monkeypatch.setattr(metrics_module, "_errors_batch", kernel)
    for k, spec in enumerate(specs):
        scalar = np.array([evaluate_hypothesis(
            spec, RigidTransform(rotations[i], translations[i]), corrs).value
            for i in range(h)])
        np.testing.assert_array_equal(batch[k].view(np.uint64),
                                      scalar.view(np.uint64),
                                      err_msg=f"{spec.kind} t={spec.t}")


def test_batch_scoring_equals_sequential_bitwise(monkeypatch):
    """The RANSAC fast path must reproduce per-hypothesis scoring bit for
    bit, for every correspondence kind scored together from one shared
    error pass, across chunk boundaries: 7 chunks of 10 rows with a partial
    last chunk. A helper thread computes each chunk's errors while the
    caller reduces the previous one, so consecutive chunks must land in
    different result buffers, and only the helper may run the kernel."""
    _check_batch_equals_sequential(monkeypatch, CORRESPONDENCE_KINDS)


def test_zero_outlier_batch_scoring_equals_sequential_bitwise(monkeypatch):
    """The same with only the kinds whose outliers score 0: the pass takes
    the sqrt of the candidates only, with one cut per threshold."""
    _check_batch_equals_sequential(monkeypatch,
                                   metrics_module._ZERO_OUTLIER_KINDS)


def test_outlier_grading_batch_scoring_equals_sequential_bitwise(monkeypatch):
    """The same with only the kinds that grade outliers (huber, quantile,
    neg-quantile): the pass extracts no candidates and takes the sqrt of
    each whole chunk."""
    _check_batch_equals_sequential(
        monkeypatch, CORRESPONDENCE_KINDS - metrics_module._ZERO_OUTLIER_KINDS)


def _masked_scatter_scores(spec, e):
    """Frozen copy of the masked-scatter scorer that every kind used before
    zero-outlier kinds were reduced from sub-threshold candidates only: the
    bitwise reference for both scoring paths."""
    t = spec.t
    inl = e < t
    s = np.zeros_like(e)
    kind = spec.kind
    if kind is MetricKind.INLIER_COUNT:
        s[inl] = 1.0
    elif kind is MetricKind.MAE:
        s[inl] = np.abs(e[inl] - t) / t
    elif kind is MetricKind.MSE:
        s[inl] = (e[inl] - t) ** 2 / t ** 2
    elif kind is MetricKind.LOG_COSH:
        eh = e[inl] / spec.pr
        th = t / spec.pr
        s[inl] = (metrics_module._log_cosh(eh - th)
                  / metrics_module._log_cosh(np.asarray(th)))
    elif kind is MetricKind.EXP:
        s[inl] = np.exp(-(e[inl] ** 2) / (2.0 * t ** 2))
    elif kind is MetricKind.QUANTILE:
        out = ~inl
        s[inl] = spec.m * np.abs(e[inl] - t) / t
        s[out] = (1.0 - spec.m) * np.abs(e[out] - t) / e[out]
    elif kind is MetricKind.NEG_QUANTILE:
        out = ~inl
        s[inl] = spec.m * np.abs(e[inl] - t) / t
        s[out] = (spec.m - 1.0) * np.abs(e[out] - t) / e[out]
    elif kind is MetricKind.HUBER:
        out = ~inl
        s[inl] = -(e[inl] ** 2) / 2.0
        s[out] = -t * (e[out] - t / 2.0)
    return s


def _check_against_masked_scatter(monkeypatch, specs, squares):
    """Stub the kernel to return the squared errors `squares` (hypothesis i
    is row i, addressed by its x translation) and compare one pass over
    every spec with the masked scatter on their sqrt; chunks of 5 rows
    with a partial last chunk. Returns the errors."""
    def kernel(rot, trans, src, tgt, out=None):
        return squares[trans[:, 0].astype(np.intp)]

    h, n = squares.shape
    monkeypatch.setattr(metrics_module, "_errors_batch", kernel)
    monkeypatch.setattr(metrics_module, "_BATCH_ELEMENTS", 5 * n)
    translations = np.zeros((h, 3))
    translations[:, 0] = np.arange(h)
    batch, seconds = _corr_values_batch(
        specs, np.broadcast_to(np.eye(3), (h, 3, 3)), translations,
        np.zeros((n, 3)), np.zeros((n, 3)))
    assert seconds.shape == (len(specs),) and np.all(seconds >= 0.0)

    errors = np.sqrt(squares)
    for k, spec in enumerate(specs):
        reference = np.array([np.sum(_masked_scatter_scores(spec, row))
                              for row in errors])
        np.testing.assert_array_equal(batch[k].view(np.uint64),
                                      reference.view(np.uint64),
                                      err_msg=f"{spec.kind} t={spec.t}")
    return errors


def test_scoring_matches_masked_scatter_reference_bitwise(monkeypatch):
    """Every kind at three thresholds, scored in one pass, so the shared
    candidate cut (the largest t) differs from most specs' own t. The
    squared errors include 0, each t^2 (exact, so e = t occurs), its
    neighbouring floats, the squares of t's neighbouring floats and a huge
    square; chunks of 5 rows with a partial last chunk."""
    ts = (0.75, 2.5, 7.5)
    specs = [spec_for(kind, t=t, m=0.7, pr=0.6)
             for kind in sorted(CORRESPONDENCE_KINDS) for t in ts]
    # The kernel's largest square inside the coordinate domain is
    # 3 (7.5 COORD_LIMIT)^2 ~ 1.7e152; every outlier-grading score of it
    # stays finite.
    huge = 1.6e152
    specials = [0.0, huge] + [v for t in ts for v in (
        t * t, np.nextafter(t * t, -np.inf), np.nextafter(t * t, np.inf),
        np.nextafter(t, -np.inf) ** 2, np.nextafter(t, np.inf) ** 2)]
    rng = np.random.default_rng(46)
    h, n = 23, 40
    squares = rng.uniform(0.0, 100.0, size=(h, n))
    where = rng.permutation(h * n)[:3 * len(specials)]
    squares.flat[where] = np.tile(specials, 3)
    squares[0] = huge  # every spec's outlier branch only
    squares[1] = 0.0   # every spec's inlier branch only
    assert all(np.sqrt(t * t) == t for t in ts)

    errors = _check_against_masked_scatter(monkeypatch, specs, squares)
    for spec in specs:
        for row in errors:
            np.testing.assert_array_equal(
                score_errors(spec, row).view(np.uint64),
                _masked_scatter_scores(spec, row).view(np.uint64),
                err_msg=f"{spec.kind} t={spec.t}")


def test_zero_outlier_scoring_matches_masked_scatter_reference_bitwise(
        monkeypatch):
    """Only zero-outlier kinds, at four thresholds (0.1's square is
    inexact): the squared errors include 0, each t^2, its neighbouring
    floats and inf (a square that overflowed)."""
    ts = (0.1, 0.75, 2.5, 7.5)
    specs = [spec_for(kind, t=t, pr=0.6)
             for kind in sorted(metrics_module._ZERO_OUTLIER_KINDS) for t in ts]
    specials = [0.0, np.inf] + [v for t in ts for v in (
        t * t, np.nextafter(t * t, -np.inf), np.nextafter(t * t, np.inf))]
    rng = np.random.default_rng(47)
    h, n = 23, 40
    squares = rng.uniform(0.0, 100.0, size=(h, n))
    where = rng.permutation(h * n)[:3 * len(specials)]
    squares.flat[where] = np.tile(specials, 3)
    squares[0] = np.inf  # every spec's outlier branch only
    squares[1] = 0.0     # every spec's inlier branch only

    _check_against_masked_scatter(monkeypatch, specs, squares)


def test_cloud_batch_matches_per_hypothesis_query_bitwise(monkeypatch):
    """The pooled cloud pass, at pool widths of 1, 2 and more threads than
    hypotheses, against a frozen copy of the old path: one serial k-d tree
    query per hypothesis in the callers' point order, reduced per row.
    Every finite score has the reference's bits, and the far hypothesis,
    which the target's bounding sphere lets the pass stop before its one
    block, may score -inf instead, as long as an earlier exact score beats
    it on every spec and every prefix's first maximum stays exact."""
    x, y, z = np.mgrid[0:6, 0:6, 0:6]
    lattice = 2.0 * np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    tgt = np.vstack([lattice, lattice[:20]])  # duplicated target points
    index = build_index(tgt)
    rng = np.random.default_rng(46)
    src = lattice + rng.uniform(-0.9, 0.9, size=lattice.shape)
    src[0] = lattice[0] + np.array([0.5, 0.0, 0.0])  # exactly at t_overlap
    far = RigidTransform(random_rotation(rng), np.array([4e5, -3e5, 2e5]))
    transforms = [RigidTransform.identity(), far] + [
        random_rigid(rng, t_scale=0.5) for _ in range(12)]
    h = len(transforms)
    rotations = np.array([tr.rotation for tr in transforms])
    translations = np.array([tr.translation for tr in transforms])
    specs = (spec_for(MetricKind.PC_DIST),
             spec_for(MetricKind.OVERLAP_COUNT, t_overlap=0.5),
             spec_for(MetricKind.OVERLAP_COUNT, t_overlap=1.25))

    def reference(rotation, translation):
        d, _ = index._tree.query(src @ rotation.T + translation, workers=1)
        return [-float(np.mean(d)), float(np.count_nonzero(d < 0.5)),
                float(np.count_nonzero(d < 1.25))]

    want = np.array([reference(r, t) for r, t in zip(rotations, translations)]).T
    # The identity hypothesis scores the threshold point as an outlier;
    # the far one scores every point as one.
    d0, _ = index._tree.query(src[0])
    assert d0 == 0.5
    assert want[0, 1] < -1e5 and want[1, 1] == want[2, 1] == 0.0
    one = np.array([[evaluate_hypothesis_cloud(spec, tr, src, index).value
                     for tr in transforms] for spec in specs])
    np.testing.assert_array_equal(one.view(np.uint64), want.view(np.uint64))
    distances = NeighborIndex.nearest_distances
    for width in (1, 2, h + 3):
        monkeypatch.setattr(metrics_module.os, "cpu_count", lambda: width)
        calls = []

        def recording(self, queries):
            calls.append(threading.current_thread())
            return distances(self, queries)

        # The pass reaches the tree only through nearest_distances: at most
        # one call per hypothesis, each on a pool thread.
        monkeypatch.setattr(NeighborIndex, "nearest_distances", recording)
        got, _ = _cloud_values_batch(specs, rotations, translations, src, index)
        stopped = np.isneginf(got[0])
        np.testing.assert_array_equal(np.isneginf(got),
                                      np.broadcast_to(stopped, got.shape))
        np.testing.assert_array_equal(got[:, ~stopped].view(np.uint64),
                                      want[:, ~stopped].view(np.uint64))
        for i in np.flatnonzero(stopped):
            assert np.all(want[:, i] <= want[:, :i].max(axis=1)), i
        for k in range(len(specs)):
            for p in range(1, h + 1):
                assert np.argmax(got[k, :p]) == np.argmax(want[k, :p])
        assert len(calls) <= h
        assert 1 <= len(set(calls)) <= width
        assert threading.current_thread() not in calls
    monkeypatch.undo()


def test_cloud_batch_stops_hypotheses_an_earlier_one_beats(monkeypatch):
    """With blocks of 16 of 216 points, the pooled cloud pass stops a
    hypothesis once an earlier one provably scores at least as high on
    every spec of the pass, at pool widths of 1, 2 and more threads than
    hypotheses: every finite score has evaluate_hypothesis_cloud's bits,
    a stopped hypothesis scores -inf on every spec and some earlier
    hypothesis's exact score is at least its own on each, and every
    prefix's first maximum is the exact one, so a repeated pose never
    wins. The threads switch every microsecond, so tasks read the best
    scores while the calling thread publishes them."""
    monkeypatch.setattr(metrics_module, "_CLOUD_BLOCK", 16)
    x, y, z = np.mgrid[0:6, 0:6, 0:6]
    lattice = 2.0 * np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    index = build_index(lattice)
    rng = np.random.default_rng(48)
    src = lattice + rng.uniform(-0.9, 0.9, size=lattice.shape)

    def nearby():
        return RigidTransform(rotation_about_axis(rng.normal(size=3),
                                                  rng.uniform(0.0, 0.2)),
                              rng.normal(size=3) * 0.5)

    far = RigidTransform(np.eye(3), np.array([4e5, -3e5, 2e5]))
    transforms = ([nearby(), RigidTransform.identity()]
                  + [nearby() for _ in range(8)] + [far]
                  + [RigidTransform.identity()] + [nearby() for _ in range(6)])
    repeat = 11  # repeats hypothesis 1's pose, an exact tie on every spec
    h, n = len(transforms), src.shape[0]
    rotations = np.array([tr.rotation for tr in transforms])
    translations = np.array([tr.translation for tr in transforms])
    distances = NeighborIndex.nearest_distances
    for specs in ((spec_for(MetricKind.PC_DIST),),
                  (spec_for(MetricKind.OVERLAP_COUNT, t_overlap=1.25),),
                  (spec_for(MetricKind.PC_DIST),
                   spec_for(MetricKind.OVERLAP_COUNT, t_overlap=0.5),
                   spec_for(MetricKind.OVERLAP_COUNT, t_overlap=1.25))):
        exact = np.array([[evaluate_hypothesis_cloud(spec, tr, src, index).value
                           for tr in transforms] for spec in specs])
        np.testing.assert_array_equal(exact[:, repeat], exact[:, 1])
        for width in (1, 2, h + 3):
            monkeypatch.setattr(metrics_module.os, "cpu_count", lambda: width)
            queried = []

            def counting(self, queries):
                queried.append(len(queries))
                return distances(self, queries)

            monkeypatch.setattr(NeighborIndex, "nearest_distances", counting)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # interleave the threads finely
            try:
                got, _ = _cloud_values_batch(specs, rotations, translations,
                                             src, index)
            finally:
                sys.setswitchinterval(interval)
            monkeypatch.setattr(NeighborIndex, "nearest_distances", distances)
            stopped = np.isneginf(got[0])
            np.testing.assert_array_equal(np.isneginf(got),
                                          np.broadcast_to(stopped, got.shape))
            assert np.all(np.isfinite(got[:, ~stopped]))
            np.testing.assert_array_equal(got[:, ~stopped].view(np.uint64),
                                          exact[:, ~stopped].view(np.uint64))
            assert not stopped[0]
            for i in np.flatnonzero(stopped):
                assert np.all(exact[:, i] <= exact[:, :i].max(axis=1)), i
            for k in range(len(specs)):
                for p in range(1, h + 1):
                    assert np.argmax(got[k, :p]) == np.argmax(exact[k, :p])
                assert np.argmax(got[k]) != repeat
            if width <= 2:  # a wider pool may start every task at once
                assert sum(queried) < h * n


def _sphere_targets():
    """Targets on a lattice of spacing 2^e: n copies of one point (radius
    0), one point, and the corners of a cube or the tips of an octahedron
    about a lattice centre, which lie exactly on the bounding sphere."""
    def build(shape, e, centre, a, copies):
        unit = 2.0 ** e
        c = centre.astype(np.float64) * unit
        if shape == "coincident":
            return np.repeat(c[np.newaxis], copies, axis=0)
        if shape == "one":
            return c[np.newaxis]
        if shape == "corners":
            signs = np.array([[i, j, k] for i in (-1, 1) for j in (-1, 1)
                              for k in (-1, 1)], dtype=np.float64)
        else:
            signs = np.vstack([np.eye(3), -np.eye(3)])
        return c + signs * (a * unit)

    return st.builds(
        build, st.sampled_from(("coincident", "one", "corners", "axes")),
        st.integers(-1074, 245),
        hnp.arrays(np.int64, 3, elements=st.integers(-8, 8)),
        st.integers(1, 8), st.integers(2, 5))


@settings(max_examples=300, deadline=None)
@given(target=_sphere_targets(),
       spread=st.sampled_from((1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -50,
                               1.0 + 1e-12, 1.5, 3.0, 1e30)),
       free=hnp.arrays(np.float64, (4, 3), elements=st.one_of(
           st.floats(-_MOVED_LIMIT, _MOVED_LIMIT),
           st.sampled_from((-_MOVED_LIMIT, _MOVED_LIMIT, 0.0, 5e-324)))))
def test_sphere_gaps_never_exceed_the_tree_distances(target, spread, free):
    """The cloud pass's per-point bound, the gap to the target's bounding
    sphere, is at most `NeighborIndex.nearest_distances`, element for
    element: at the target points themselves and pushed radially outward
    by a few ulps or much more, at the corners of the moved-point domain
    and at arbitrary moved points."""
    centre, reach = metrics_module._bounding_sphere(target)
    radial = np.clip(centre + (target - centre) * spread,
                     -_MOVED_LIMIT, _MOVED_LIMIT)
    corners = _MOVED_LIMIT * np.array(
        [[i, j, k] for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)],
        dtype=np.float64)
    moved = np.vstack([target, radial, corners, free])
    gaps = metrics_module._sphere_gaps(moved, centre, reach)
    d = build_index(target).nearest_distances(moved)
    assert np.all(gaps >= 0.0)
    assert np.all(gaps <= d), (gaps - d).max()
    assert np.all(gaps[-len(corners) - len(free):-len(free)] > 0.0)


def test_cloud_batch_stops_a_hypothesis_beyond_the_sphere_unqueried(
        monkeypatch):
    """With a pool of one thread, a hypothesis that moves every source point
    beyond the target's bounding sphere, submitted after an earlier exact
    hypothesis has published its scores, is stopped before its first k-d
    tree query and scores -inf on every spec; the others keep their
    evaluate_hypothesis_cloud bits, one call each."""
    x, y, z = np.mgrid[0:6, 0:6, 0:6]
    lattice = 2.0 * np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    index = build_index(lattice)
    rng = np.random.default_rng(49)
    src = lattice + rng.uniform(-0.9, 0.9, size=lattice.shape)
    # Hypothesis 3 is submitted only once hypothesis 0's scores are out:
    # the calling thread keeps at most two tasks ahead of the one it reads.
    # Repeats of the first pose tie with it, so each of them is queried.
    transforms = [RigidTransform.identity()] * 3 + [
        RigidTransform(np.eye(3), np.array([40.0, 0.0, 0.0]))]
    rotations = np.array([tr.rotation for tr in transforms])
    translations = np.array([tr.translation for tr in transforms])
    specs = (spec_for(MetricKind.PC_DIST),
             spec_for(MetricKind.OVERLAP_COUNT, t_overlap=1.25))
    monkeypatch.setattr(metrics_module.os, "cpu_count", lambda: 1)
    distances = NeighborIndex.nearest_distances
    queried = []

    def recording(self, queries):
        queried.append(np.array(queries))
        return distances(self, queries)

    monkeypatch.setattr(NeighborIndex, "nearest_distances", recording)
    got, _ = _cloud_values_batch(specs, rotations, translations, src, index)
    monkeypatch.undo()
    assert len(queried) == 3
    assert all(q[:, 0].max() < 20.0 for q in queried)  # none moved by 40
    assert np.all(np.isneginf(got[:, 3]))
    for k, spec in enumerate(specs):
        exact = [evaluate_hypothesis_cloud(spec, tr, src, index).value
                 for tr in transforms[:3]]
        np.testing.assert_array_equal(got[k, :3].view(np.uint64),
                                      np.array(exact).view(np.uint64))
