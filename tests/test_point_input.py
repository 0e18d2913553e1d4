"""One boundary for 3-D point input.

Every public entry point that takes points raises InvalidInput, which is
also a ValueError and a RansacRegError, for a malformed point array; any
finite (N, 3) array or (3,) point is accepted unchanged. Transforms,
errors, scores and thresholds out of their domain raise the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ransacreg import (Correspondence, CorrespondenceSet, ExperimentRow,
                       HypothesisScore, InvalidInput, MetricKind, MetricPlan,
                       MetricSpec, PointCloud, RansacConfig, RansacRegError,
                       RigidTransform, build_index, cloud_resolution,
                       estimate_rigid_transform, evaluate_hypothesis,
                       evaluate_hypothesis_cloud, is_correct,
                       rotation_about_axis, run_ransac, score_correspondence,
                       score_errors)

_rng = np.random.default_rng(71)
GOOD = _rng.normal(size=(5, 3))
INDEX = build_index(_rng.normal(size=(12, 3)))
CORRS = CorrespondenceSet(GOOD, GOOD + 1.0)
IDENT = RigidTransform.identity()
PC_DIST = MetricSpec(kind=MetricKind.PC_DIST, t=1.0)
MAE = MetricSpec(kind=MetricKind.MAE, t=1.0)

# Entry point -> (call with the points under test, a well-formed input).
ARRAY_ENTRIES = {
    "PointCloud": lambda p: PointCloud(p),
    "RigidTransform.apply": lambda p: IDENT.apply(p),
    "cloud_resolution": lambda p: cloud_resolution(p),
    "estimate_rigid_transform.source":
        lambda p: estimate_rigid_transform(p, GOOD),
    "estimate_rigid_transform.target":
        lambda p: estimate_rigid_transform(GOOD, p),
    "build_index": lambda p: build_index(p),
    "CorrespondenceSet": lambda p: CorrespondenceSet(p, p),
    "evaluate_hypothesis_cloud":
        lambda p: evaluate_hypothesis_cloud(PC_DIST, IDENT, p, INDEX),
    "run_ransac.source": lambda p: run_ransac(
        RansacConfig(metric=PC_DIST, seed=0, iterations=2), CORRS,
        source=p, target_index=INDEX),
}
POINT_ENTRIES = {
    "NeighborIndex.nearest": lambda p: INDEX.nearest(p),
    "NeighborIndex.knn": lambda p: INDEX.knn(p, 1),
    "Correspondence.source": lambda p: Correspondence(p, GOOD[0]),
    "Correspondence.target": lambda p: Correspondence(GOOD[0], p),
}


def _with(good: np.ndarray, value: float) -> np.ndarray:
    bad = good.copy()
    bad.flat[1] = value
    return bad


def _malformed(good: np.ndarray) -> dict:
    cases = {
        "(5, 2)": np.zeros((5, 2)),
        "(2, 6) pairs": np.arange(12.0).reshape(2, 6),
        "non-numeric": np.full(good.shape, "a"),
        "object": [None] * 3,
        "nan": _with(good, np.nan),
        "+inf": _with(good, np.inf),
        "-inf": _with(good, -np.inf),
    }
    if good.ndim == 1:
        cases["(2, 3) query"] = np.zeros((2, 3))
    return cases


def _row(accuracy):
    return ExperimentRow(metric="mae", sweep_axis="t", sweep_value=7.5,
                         trials=4, accuracy=accuracy, mean_rmse_pr=1.0,
                         mean_eval_time_s=0.0, index_build_time_s=0.0)


# Other values out of their domain: id -> (call, malformed input).
OTHER_CASES = {
    "RigidTransform-inf translation":
        (lambda b: RigidTransform(np.eye(3), b), [0.0, np.inf, 0.0]),
    "RigidTransform-(4,) translation":
        (lambda b: RigidTransform(np.eye(3), b), np.zeros(4)),
    "RigidTransform-ragged rotation":
        (lambda b: RigidTransform(b, np.zeros(3)), [[1, 0, 0], [0, 1], [0, 0, 1]]),
    "RigidTransform-reflection":
        (lambda b: RigidTransform(b, np.zeros(3)), np.diag([1.0, 1.0, -1.0])),
    # Squared distance overflows: the k-d tree finds no neighbor.
    "cloud_resolution-1e308 apart":
        (lambda b: cloud_resolution(b), [[0.0, 0.0, 0.0], [1e308, 0.0, 0.0]]),
    # Overflows the solve's cross-covariance, on which LAPACK's batched SVD
    # can loop forever.
    "estimate_rigid_transform-1e308 target":
        (lambda b: estimate_rigid_transform(GOOD * 100.0, b), _with(GOOD, 1e308)),
    "rotation_about_axis-zero axis":
        (lambda b: rotation_about_axis(b, 0.5), np.zeros(3)),
    "rotation_about_axis-(2,) axis":
        (lambda b: rotation_about_axis(b, 0.5), [1.0, 0.0]),
    "rotation_about_axis-nan angle":
        (lambda b: rotation_about_axis([0.0, 0.0, 1.0], b), np.nan),
    "score_errors-negative": (lambda b: score_errors(MAE, b), [0.5, -1.0]),
    "score_errors-nan": (lambda b: score_errors(MAE, b), [0.5, np.nan]),
    "score_errors-non-numeric": (lambda b: score_errors(MAE, b), ["a"]),
    "score_correspondence-inf":
        (lambda b: score_correspondence(MAE, b), np.inf),
    "HypothesisScore-nan": (lambda b: HypothesisScore(b, MetricKind.MAE), np.nan),
    "HypothesisScore-non-numeric":
        (lambda b: HypothesisScore(b, MetricKind.MAE), "abc"),
    "HypothesisScore-unknown kind": (lambda b: HypothesisScore(1.0, b), "nope"),
    "MetricSpec-unknown kind": (lambda b: MetricSpec(kind=b, t=1.0), "nope"),
    "MetricPlan-unknown kind": (lambda b: MetricPlan(kind=b), "nope"),
    "evaluate_hypothesis-no correspondences":
        (lambda b: evaluate_hypothesis(MAE, IDENT, b), None),
    "evaluate_hypothesis_cloud-no index":
        (lambda b: evaluate_hypothesis_cloud(PC_DIST, IDENT, GOOD, b), None),
    "evaluate_hypothesis_cloud-no source":
        (lambda b: evaluate_hypothesis_cloud(PC_DIST, IDENT, b, INDEX), None),
    "is_correct-zero threshold": (lambda b: is_correct(1.0, b, 1.0), 0.0),
    "is_correct-nan threshold": (lambda b: is_correct(1.0, b, 1.0), np.nan),
    "is_correct-negative resolution": (lambda b: is_correct(1.0, 2.5, b), -1.0),
    "ExperimentRow-accuracy above 1": (_row, 1.5),
}

CASES = [pytest.param(call, bad, id=f"{entry}-{case}")
         for entries, good in ((ARRAY_ENTRIES, GOOD), (POINT_ENTRIES, GOOD[0]))
         for entry, call in entries.items()
         for case, bad in _malformed(good).items()]
CASES += [pytest.param(call, bad, id=case)
          for case, (call, bad) in OTHER_CASES.items()]


@pytest.mark.parametrize("call,bad", CASES)
def test_malformed_points_raise_invalid_input(call, bad):
    with pytest.raises(InvalidInput) as excinfo:
        call(bad)
    assert isinstance(excinfo.value, ValueError)
    assert isinstance(excinfo.value, RansacRegError)


@pytest.mark.parametrize("entries,good", [(ARRAY_ENTRIES, GOOD),
                                          (POINT_ENTRIES, GOOD[0])])
def test_well_formed_points_pass_every_entry_point(entries, good):
    for call in entries.values():
        call(good)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SHAPES = st.one_of(st.just((3,)),
                    st.tuples(st.integers(0, 12), st.just(3)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, _SHAPES, elements=_FINITE))
def test_finite_points_are_accepted_bit_for_bit(points):
    got = PointCloud(points).points
    want = points.reshape(-1, 3)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def _points_with_non_finite(draw):
    shape = draw(st.one_of(st.just((3,)),
                           st.tuples(st.integers(1, 12), st.just(3))))
    points = draw(hnp.arrays(np.float64, shape, elements=_FINITE))
    at = draw(st.integers(0, points.size - 1))
    points.flat[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return points


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_points_with_non_finite())
def test_any_non_finite_coordinate_is_rejected(points):
    with pytest.raises(InvalidInput):
        PointCloud(points)
    with pytest.raises(InvalidInput):
        build_index(points)
