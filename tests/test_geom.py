"""Core geometry: clouds, rigid transforms, the minimal solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from ransacreg import (
    DegenerateSample,
    InsufficientPairs,
    PointCloud,
    RigidTransform,
    TooFewPoints,
    cloud_resolution,
    estimate_rigid_transform,
    rotation_about_axis,
    triangle_area,
)
from ransacreg.geom import _estimate_rigid_batch

from conftest import brute_force_resolution, random_rigid


# ---------------------------------------------------------------- PointCloud


def test_point_cloud_copies_input_and_freezes():
    raw = np.arange(12, dtype=np.float64).reshape(4, 3)
    cloud = PointCloud(raw)
    raw[0, 0] = 99.0
    assert cloud.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


def test_point_cloud_len_and_select():
    cloud = PointCloud(np.arange(15, dtype=np.float64).reshape(5, 3))
    assert len(cloud) == 5
    sub = cloud.select([4, 0, 2])
    np.testing.assert_array_equal(sub.points, cloud.points[[4, 0, 2]])
    assert len(sub) == 3


def test_point_cloud_select_with_no_indices_selects_nothing():
    cloud = PointCloud(np.arange(15, dtype=np.float64).reshape(5, 3))
    for none in ([], (), np.array([], dtype=np.int64), np.zeros(5, dtype=bool)):
        assert cloud.select(none).points.shape == (0, 3)
    mask = np.array([False, True, False, False, True])
    np.testing.assert_array_equal(cloud.select(mask).points, cloud.points[[1, 4]])


def test_point_cloud_resolution_matches_free_function():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(40, 3)))
    assert cloud.resolution == cloud_resolution(cloud.points)


def test_point_cloud_rejects_bad_input():
    with pytest.raises(ValueError):
        PointCloud(np.ones((3, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))


# ------------------------------------------------------------ RigidTransform


def test_rigid_transform_rejects_non_rotations():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        RigidTransform(reflection, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3), np.array([0.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        RigidTransform(np.eye(4), np.zeros(3))


def test_rigid_transform_tolerates_roundoff_sized_error():
    r = np.eye(3)
    r[0, 1] = 1e-12
    transform = RigidTransform(r, np.zeros(3))
    assert transform.rotation.shape == (3, 3)
    r_bad = np.eye(3)
    r_bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        RigidTransform(r_bad, np.zeros(3))


def test_identity_leaves_points_alone():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(10, 3))
    np.testing.assert_array_equal(RigidTransform.identity().apply(pts), pts)


def test_apply_matches_per_point_arithmetic():
    rng = np.random.default_rng(5)
    transform = random_rigid(rng)
    pts = rng.normal(size=(25, 3)) * 7
    expected = np.array([transform.rotation @ p + transform.translation
                         for p in pts])
    np.testing.assert_allclose(transform.apply(pts), expected, rtol=1e-13)
    # single-point call agrees with the row of the batch call
    np.testing.assert_allclose(transform.apply(pts[3]), expected[3], rtol=1e-13)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(6)
    a = random_rigid(rng)
    b = random_rigid(rng)
    pts = rng.normal(size=(8, 3))
    np.testing.assert_allclose((a @ b).apply(pts), a.apply(b.apply(pts)),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.compose(b).matrix3x4(), (a @ b).matrix3x4())


def test_inverse_roundtrip():
    rng = np.random.default_rng(7)
    transform = random_rigid(rng)
    pts = rng.normal(size=(12, 3)) * 5
    back = transform.inverse().apply(transform.apply(pts))
    np.testing.assert_allclose(back, pts, rtol=1e-12, atol=1e-12)
    ident = transform.inverse() @ transform
    np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-11)


def test_matrix3x4_layout():
    rng = np.random.default_rng(8)
    transform = random_rigid(rng)
    m = transform.matrix3x4()
    assert m.shape == (3, 4)
    np.testing.assert_array_equal(m[:, :3], transform.rotation)
    np.testing.assert_array_equal(m[:, 3], transform.translation)


# --------------------------------------------------------- rotation builders


def test_rotation_about_axis_hand_values():
    np.testing.assert_allclose(rotation_about_axis([0, 0, 1], 0.0), np.eye(3),
                               atol=1e-15)
    r = rotation_about_axis([0, 0, 1], math.pi / 2)
    np.testing.assert_allclose(r @ np.array([1.0, 0.0, 0.0]),
                               [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_about_axis_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        expected = Rotation.from_rotvec(axis * angle).as_matrix()
        np.testing.assert_allclose(rotation_about_axis(axis, angle), expected,
                                   rtol=1e-12, atol=1e-12)


def test_rotation_about_axis_rejects_zero_axis():
    with pytest.raises(ValueError):
        rotation_about_axis([0.0, 0.0, 0.0], 1.0)


def test_triangle_area_hand_values():
    assert triangle_area([0, 0, 0], [3, 0, 0], [0, 4, 0]) == pytest.approx(6.0)
    assert triangle_area([0, 0, 0], [1, 1, 1], [2, 2, 2]) == 0.0
    side = 1.0
    height = math.sqrt(3) / 2
    area = triangle_area([0, 0, 0], [side, 0, 0], [side / 2, height, 0])
    assert area == pytest.approx(math.sqrt(3) / 4, rel=1e-12)


# ------------------------------------------------------------ pr / resolution


def test_cloud_resolution_matches_brute_force():
    rng = np.random.default_rng(10)
    for n in (2, 3, 7, 33, 60):
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 40.0)
        assert cloud_resolution(pts) == brute_force_resolution(pts)


def test_cloud_resolution_accepts_cloud_or_array():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(20, 3))
    assert cloud_resolution(PointCloud(pts)) == cloud_resolution(pts)


def test_cloud_resolution_unit_lattice_is_one():
    x, y, z = np.mgrid[0:4, 0:4, 0:4]
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()]).astype(float)
    assert cloud_resolution(pts) == 1.0


def test_cloud_resolution_needs_two_points():
    with pytest.raises(TooFewPoints):
        cloud_resolution(np.zeros((1, 3)))


# ------------------------------------------------------------- rigid solver


def test_estimate_recovers_exact_transform():
    rng = np.random.default_rng(12)
    for n in (3, 4, 10, 100):
        transform = random_rigid(rng)
        src = rng.normal(size=(n, 3)) * 10
        tgt = transform.apply(src)
        est = estimate_rigid_transform(src, tgt)
        np.testing.assert_allclose(est.rotation, transform.rotation, atol=1e-9)
        np.testing.assert_allclose(est.translation, transform.translation,
                                   atol=1e-8)


def test_estimate_matches_scipy_align_vectors_on_noisy_data():
    rng = np.random.default_rng(13)
    for _ in range(20):
        transform = random_rigid(rng)
        src = rng.normal(size=(50, 3)) * 10
        tgt = transform.apply(src) + rng.normal(size=(50, 3)) * 0.3
        est = estimate_rigid_transform(src, tgt)
        c_src = src.mean(axis=0)
        c_tgt = tgt.mean(axis=0)
        r_oracle = Rotation.align_vectors(tgt - c_tgt, src - c_src)[0].as_matrix()
        t_oracle = c_tgt - r_oracle @ c_src
        np.testing.assert_allclose(est.rotation, r_oracle, atol=1e-8)
        np.testing.assert_allclose(est.translation, t_oracle, atol=1e-7)


def test_estimate_is_a_least_squares_minimum():
    rng = np.random.default_rng(14)
    src = rng.normal(size=(30, 3)) * 10
    tgt = random_rigid(rng).apply(src) + rng.normal(size=(30, 3)) * 0.5
    est = estimate_rigid_transform(src, tgt)

    def sse(rotation, translation):
        d = src @ rotation.T + translation - tgt
        return float(np.sum(d * d))

    best = sse(est.rotation, est.translation)
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        wobble = rotation_about_axis(axis, rng.uniform(1e-4, 1e-2))
        r = wobble @ est.rotation
        t = tgt.mean(axis=0) - r @ src.mean(axis=0)
        assert sse(r, t) >= best
        assert sse(est.rotation, est.translation + rng.standard_normal(3) * 0.01) >= best


def test_estimate_rejects_bad_inputs():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(2, 3))
    with pytest.raises(InsufficientPairs):
        estimate_rigid_transform(pts, pts)
    with pytest.raises(ValueError):
        estimate_rigid_transform(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
    line3 = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    with pytest.raises(DegenerateSample):
        estimate_rigid_transform(line3, line3)
    line5 = np.outer(np.arange(5.0), [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSample):
        estimate_rigid_transform(line5, line5 + 1.0)


def test_estimate_min_triangle_area_override():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 1e-4, 0]])
    with pytest.raises(DegenerateSample):
        estimate_rigid_transform(src, src, min_triangle_area=1e-3)
    est = estimate_rigid_transform(src, src, min_triangle_area=1e-9)
    np.testing.assert_allclose(est.rotation, np.eye(3), atol=1e-7)


def test_estimate_never_returns_a_reflection():
    # A noisy near-planar configuration pushes the raw SVD solution toward
    # a reflection; the determinant correction must keep det(R) = +1.
    rng = np.random.default_rng(16)
    for _ in range(100):
        src = rng.normal(size=(3, 3))
        tgt = rng.normal(size=(3, 3))
        try:
            est = estimate_rigid_transform(src, tgt, min_triangle_area=0.0)
        except DegenerateSample:
            continue
        assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)


def test_scalar_solver_equals_batch_solver_bitwise():
    rng = np.random.default_rng(17)
    src = rng.normal(size=(100, 3, 3)) * 10
    tgt = np.empty_like(src)
    for i in range(100):
        tgt[i] = random_rigid(rng).apply(src[i]) + rng.normal(size=(3, 3)) * 0.1
    rotations, translations = _estimate_rigid_batch(src, tgt)
    for i in range(100):
        est = estimate_rigid_transform(src[i], tgt[i], min_triangle_area=0.0)
        np.testing.assert_array_equal(est.rotation, rotations[i])
        np.testing.assert_array_equal(est.translation, translations[i])


_COORD = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def _near_degenerate_samples(draw):
    """(source, target) of 3 to 6 pairs: sources on a line through a and
    a + u, each pushed off it by a drawn tiny amount (0 included), so the
    sample is collinear, coincident or nearly so; targets are the sources
    under a drawn rigid motion, mirrored through a plane or not, plus
    drawn noise."""
    n = draw(st.integers(3, 6))
    a, u, w = (draw(hnp.arrays(np.float64, 3, elements=_COORD))
               for _ in range(3))
    along = draw(hnp.arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    off = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        [0.0, 1e-300, 1e-15, 1e-9, 1e-6, 1e-3, 0.1, 1.0])))
    src = a + along[:, None] * u + off[:, None] * w
    axis = draw(hnp.arrays(np.float64, 3, elements=st.floats(0.1, 1.0)))
    rot = rotation_about_axis(axis, draw(st.floats(-math.pi, math.pi)))
    mirror = np.diag([1.0, 1.0, draw(st.sampled_from([1.0, -1.0]))])
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    shift = draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-1.0, 1.0)))
    tgt = src @ (rot @ mirror).T + noise * shift
    return src, tgt


@settings(max_examples=150)
@given(_near_degenerate_samples(), st.sampled_from([None, 0.0]))
def test_solver_on_near_collinear_and_mirrored_samples(sample, min_area):
    """DegenerateSample, or a proper rotation bit-equal to the batch
    kernel that RANSAC runs."""
    src, tgt = sample
    try:
        est = estimate_rigid_transform(src, tgt, min_triangle_area=min_area)
    except DegenerateSample:
        return
    rotations, translations = _estimate_rigid_batch(src[np.newaxis],
                                                    tgt[np.newaxis])
    np.testing.assert_array_equal(est.rotation.view(np.uint64),
                                  rotations[0].view(np.uint64))
    np.testing.assert_array_equal(est.translation.view(np.uint64),
                                  translations[0].view(np.uint64))
    assert abs(np.linalg.det(est.rotation) - 1.0) <= 1e-9
