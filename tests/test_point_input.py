"""One boundary for 3-D point input.

Every public entry point that takes points raises InvalidInput, which is
also a ValueError and a RansacRegError, for a malformed point array; any
(N, 3) array or (3,) point with every coordinate in [-COORD_LIMIT,
COORD_LIMIT] is accepted unchanged. Transforms, errors, scores and
thresholds out of their domain raise the same error.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ransacreg import (CLOUD_KINDS, Correspondence, CorrespondenceSet,
                       ExperimentRow, HypothesisScore, InvalidInput,
                       MetricKind, MetricPlan, MetricSpec, PointCloud,
                       RansacConfig, RansacRegError, RigidTransform,
                       build_index, cloud_resolution, estimate_rigid_transform,
                       evaluate_hypothesis, evaluate_hypothesis_cloud,
                       is_correct, rotation_about_axis, run_ransac,
                       score_correspondence, score_errors, triangle_area)
from ransacreg.spatial import COORD_LIMIT

_rng = np.random.default_rng(71)
GOOD = _rng.normal(size=(5, 3))
INDEX = build_index(_rng.normal(size=(12, 3)))
CORRS = CorrespondenceSet(GOOD, GOOD + 1.0)
IDENT = RigidTransform.identity()
PC_DIST = MetricSpec(kind=MetricKind.PC_DIST, t=1.0)
MAE = MetricSpec(kind=MetricKind.MAE, t=1.0)
# GOOD scaled to span [-COORD_LIMIT, COORD_LIMIT], both ends exactly: for
# |x| <= 1, x * COORD_LIMIT rounds to at most COORD_LIMIT.
AT_LIMIT = GOOD / np.abs(GOOD).max()
AT_LIMIT[0, 0], AT_LIMIT[1, 1] = 1.0, -1.0
AT_LIMIT *= COORD_LIMIT

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
        "above COORD_LIMIT": _with(good, np.nextafter(COORD_LIMIT, np.inf)),
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
    "RigidTransform-1e200 translation":
        (lambda b: RigidTransform(np.eye(3), b), [1e200, 0.0, 0.0]),
    # Each component is within 4 COORD_LIMIT, the norm is not.
    "RigidTransform-translation norm above 4 COORD_LIMIT":
        (lambda b: RigidTransform(np.eye(3), b),
         [4 * COORD_LIMIT, 4 * COORD_LIMIT, 0.0]),
    "RigidTransform-(4,) translation":
        (lambda b: RigidTransform(np.eye(3), b), np.zeros(4)),
    "RigidTransform-ragged rotation":
        (lambda b: RigidTransform(b, np.zeros(3)), [[1, 0, 0], [0, 1], [0, 0, 1]]),
    "RigidTransform-reflection":
        (lambda b: RigidTransform(b, np.zeros(3)), np.diag([1.0, 1.0, -1.0])),
    # Out of the coordinate domain, so rejected before the k-d tree, whose
    # squared distance would overflow and find no neighbor.
    "cloud_resolution-1e308 apart":
        (lambda b: cloud_resolution(b), [[0.0, 0.0, 0.0], [1e308, 0.0, 0.0]]),
    # Out of the coordinate domain, so rejected before the solve, whose
    # cross-covariance would overflow (LAPACK's batched SVD can loop
    # forever on it).
    "estimate_rigid_transform-1e308 target":
        (lambda b: estimate_rigid_transform(GOOD * 100.0, b), _with(GOOD, 1e308)),
    # Would overflow in the error kernel (a RuntimeWarning and inf errors).
    "run_ransac-1e200 target":
        (lambda b: run_ransac(RansacConfig(metric=MAE, seed=0, iterations=2),
                              CorrespondenceSet(GOOD, b)), _with(GOOD, 1e200)),
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


@pytest.mark.parametrize("entries,good", [
    (ARRAY_ENTRIES, GOOD), (POINT_ENTRIES, GOOD[0]),
    (ARRAY_ENTRIES, AT_LIMIT), (POINT_ENTRIES, AT_LIMIT[0]),
    (POINT_ENTRIES, AT_LIMIT[1])])
def test_well_formed_points_pass_every_entry_point(entries, good):
    for call in entries.values():
        call(good)


_IN_DOMAIN = st.floats(-COORD_LIMIT, COORD_LIMIT)
_SHAPES = st.one_of(st.just((3,)),
                    st.tuples(st.integers(0, 12), st.just(3)))


@settings(max_examples=150)
@given(hnp.arrays(np.float64, _SHAPES, elements=_IN_DOMAIN))
def test_finite_points_are_accepted_bit_for_bit(points):
    got = PointCloud(points).points
    want = points.reshape(-1, 3)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_OUT_OF_DOMAIN = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.floats(min_value=COORD_LIMIT, exclude_min=True, allow_infinity=False),
    st.floats(max_value=-COORD_LIMIT, exclude_max=True, allow_infinity=False))


@st.composite
def _points_with_non_finite(draw):
    """In-domain points with one NaN, +-inf or |x| > COORD_LIMIT entry."""
    shape = draw(st.one_of(st.just((3,)),
                           st.tuples(st.integers(1, 12), st.just(3))))
    points = draw(hnp.arrays(np.float64, shape, elements=_IN_DOMAIN))
    at = draw(st.integers(0, points.size - 1))
    points.flat[at] = draw(_OUT_OF_DOMAIN)
    return points


@settings(max_examples=150)
@given(_points_with_non_finite())
def test_any_non_finite_coordinate_is_rejected(points):
    with pytest.raises(InvalidInput):
        PointCloud(points)
    with pytest.raises(InvalidInput):
        build_index(points)


def test_every_kind_runs_without_warning_at_the_coordinate_limit():
    """The extremes of the domain reach the sampler's triangle areas, the
    resolution, the solve, the error kernel and the nearest-neighbour
    pass; none of them may overflow."""
    sources = AT_LIMIT
    assert sources.max() == COORD_LIMIT and sources.min() == -COORD_LIMIT
    corrs = CorrespondenceSet(sources, -sources)
    index = build_index(-sources)
    far = RigidTransform(np.eye(3), [4 * COORD_LIMIT, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind, t in itertools.product(MetricKind, (1.0, COORD_LIMIT)):
            spec = MetricSpec(kind=kind, t=t, t_overlap=t)
            result = run_ransac(RansacConfig(metric=spec, seed=0,
                                             iterations=20),
                                corrs, source=sources, target_index=index)
            assert np.isfinite(result.best_score.value)
            if kind in CLOUD_KINDS:
                evaluate_hypothesis_cloud(spec, far, sources, index)
            else:
                evaluate_hypothesis(spec, far, corrs)
        assert np.isfinite(cloud_resolution(sources))
        # A triangle across the domain's cube: its squared cross product,
        # the largest intermediate of the degeneracy test, is 48 L^4.
        corners = np.array([[1, 1, 1], [-1, -1, 1], [-1, 1, -1]]) * COORD_LIMIT
        assert np.isfinite(triangle_area(*corners))
        assert far.inverse().translation[0] == -4 * COORD_LIMIT
