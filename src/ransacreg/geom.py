"""Core geometry: point clouds, rigid transforms, and the minimal solver.

All types are immutable values; every operation is pure, so everything here
is safe to share across threads. Distances are Euclidean and all coordinates
are float64 world units. The one distance unit used throughout the package
is the cloud resolution ("pr"): the mean distance from each point to its
nearest other point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateSample, InsufficientPairs, InvalidInput,
                     TooFewPoints)
from .spatial import (COORD_LIMIT, _as_indices, _as_points, _frozen_points,
                      _in_coord_domain, build_index)

__all__ = [
    "PointCloud",
    "RigidTransform",
    "cloud_resolution",
    "estimate_rigid_transform",
    "rotation_about_axis",
    "triangle_area",
]

# SO(3) membership tolerance for constructed rotations.
ROTATION_TOL = 1e-9

# A 3-point sample counts as degenerate when its triangle area falls at or
# below this multiple of the squared source-cloud resolution.
DEGENERACY_AREA_FACTOR = 1e-6


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An immutable ordered set of 3D points with a lazily cached resolution.

    The constructor takes an (N, 3) array-like (N = 0 included), one (3,)
    point or a PointCloud (else :class:`InvalidInput`). It copies its input
    and freezes the array, so the cached resolution can never go stale.
    """

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_points(self.points))

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def resolution(self) -> float:
        """Mean nearest-other-point distance (the pr unit); needs >= 2 points."""
        return cloud_resolution(self)

    def select(self, indices) -> "PointCloud":
        """New cloud containing self.points[indices] in the given order."""
        return PointCloud(self.points[_as_indices(indices)])


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A 6-DoF pose: proper rotation plus translation, p -> R p + t.

    The constructor raises :class:`InvalidInput` unless the rotation is
    3x3, orthonormal with determinant +1 within ``ROTATION_TOL``, and the
    translation has 3 entries and a norm of at most 4 ``COORD_LIMIT``.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        try:
            r = np.array(self.rotation, dtype=np.float64, copy=True)
            t = np.array(self.translation, dtype=np.float64, copy=True)
        except (TypeError, ValueError) as exc:  # e.g. ragged or non-numeric
            raise InvalidInput(f"transform entries must be numbers: {exc}") from None
        if r.shape != (3, 3):
            raise InvalidInput(f"rotation must be 3x3, got {r.shape}")
        if t.size != 3:
            raise InvalidInput(f"translation must have 3 entries, got {t.shape}")
        t = t.reshape(3)
        # Components first: np.linalg.norm itself warns on overflow.
        if not (_in_coord_domain(r) and _in_coord_domain(t, 4 * COORD_LIMIT)
                and np.linalg.norm(t) <= 4 * COORD_LIMIT):
            raise InvalidInput("transform is outside the coordinate domain")
        if np.linalg.norm(r.T @ r - np.eye(3)) > ROTATION_TOL:
            raise InvalidInput("rotation is not orthonormal within tolerance")
        if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
            raise InvalidInput("rotation determinant is not +1 within tolerance")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Map a point (3,) or point array (N, 3) through R p + t."""
        pts = _as_points(points)
        if np.ndim(points) == 1:  # one (3,) point in, one (3,) point out
            pts = pts[0]
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """The transform that applies `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -(rt @ self.translation))

    def matrix3x4(self) -> np.ndarray:
        """The transform as a 3x4 matrix [R | t]."""
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation of `angle` radians
    about `axis` (Rodrigues formula). InvalidInput unless `axis` is three
    finite numbers, not all zero, and `angle` is finite."""
    try:
        axis = np.asarray(axis, dtype=np.float64).reshape(3)
        angle = float(angle)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"rotation axis and angle must be numbers: {exc}") from None
    norm = np.linalg.norm(axis)
    if not (np.isfinite(norm) and math.isfinite(angle)):
        raise InvalidInput("rotation axis and angle must be finite")
    if norm == 0.0:
        raise InvalidInput("rotation axis must be nonzero")
    x, y, z = axis / norm
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def triangle_area(a, b, c) -> float:
    """Area of the triangle spanned by three 3D points.

    Scalar arithmetic: `sample_minimal` calls this once per draw, where
    array-API cross products cost more than the whole draw. The engine
    computes the same expression elementwise (`_triangle_areas`), so every
    area it tests is bit-equal to this one.
    """
    ux = float(b[0]) - float(a[0])
    uy = float(b[1]) - float(a[1])
    uz = float(b[2]) - float(a[2])
    vx = float(c[0]) - float(a[0])
    vy = float(c[1]) - float(a[1])
    vz = float(c[2]) - float(a[2])
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    return 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz)


def _triangle_areas(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """`triangle_area` of each row of three (m, 3) float64 arrays: the same
    operations in the same order, so each area is bit-equal to the scalar."""
    u = b - a
    v = c - a
    cx = u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1]
    cy = u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2]
    cz = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


def cloud_resolution(cloud) -> float:
    """Mean distance from each point to its nearest other point.

    Exact: the neighbor found by the spatial index is re-measured with the
    same numpy formula a brute-force scan uses. Accepts a PointCloud or a
    raw (N, 3) array; raises :class:`InvalidInput` for malformed points and
    :class:`TooFewPoints` below 2 points.
    """
    pts = _as_points(cloud, "cloud")
    if pts.shape[0] < 2:
        raise TooFewPoints("cloud resolution needs at least 2 points")
    index = build_index(pts)
    return float(np.mean(index.nearest_other_distances()))


def _degeneracy_threshold(source: np.ndarray) -> float:
    """Default minimal triangle area below which a sample is degenerate."""
    res = cloud_resolution(source)
    return DEGENERACY_AREA_FACTOR * res * res


def estimate_rigid_transform(source, target, *,
                             min_triangle_area: float | None = None
                             ) -> RigidTransform:
    """Least-squares rigid transform mapping source points onto target points.

    Solves min_{R,t} sum ||R p_s + t - p_t||^2 by the SVD of the demeaned
    cross-covariance, with the usual determinant-sign correction so the
    result is a proper rotation even for reflective configurations.

    For a 3-pair sample, the source triangle area must exceed
    `min_triangle_area` (default: ``DEGENERACY_AREA_FACTOR`` times the
    squared resolution of the source points); larger inputs are rejected
    only when the source points are rank-deficient (collinear).

    Raises :class:`InvalidInput` for malformed points or source/target
    arrays of different shapes, :class:`InsufficientPairs` for < 3 pairs
    and :class:`DegenerateSample` for collinear/coincident source points.
    """
    src = _as_points(source, "source")
    tgt = _as_points(target, "target")
    if src.shape != tgt.shape:
        raise InvalidInput(
            f"source/target shapes differ: {src.shape} vs {tgt.shape}")
    n = src.shape[0]
    if n < 3:
        raise InsufficientPairs(f"need at least 3 pairs, got {n}")

    if n == 3:
        if min_triangle_area is None:
            min_triangle_area = _degeneracy_threshold(src)
        if triangle_area(src[0], src[1], src[2]) <= min_triangle_area:
            raise DegenerateSample("source triangle is collinear or coincident")
    else:
        sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
        if sv[1] <= 1e-9 * max(sv[0], np.finfo(np.float64).tiny):
            raise DegenerateSample("source points are collinear")
    # Every solve runs through the batch kernel, so a minimal sample solved
    # alone matches the same sample solved inside a RANSAC batch.
    r, t = _estimate_rigid_batch(src[np.newaxis], tgt[np.newaxis])
    return RigidTransform(r[0], t[0])


def _estimate_rigid_batch(source: np.ndarray, target: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized least-squares rigid solve for a batch of samples.

    source, target: (H, N, 3) stacks of pre-screened non-degenerate samples
    of N >= 3 pairs. Returns (rotations (H, 3, 3), translations (H, 3)):
    the SVD solve of :func:`estimate_rigid_transform`, batched through
    LAPACK.
    """
    c_src = source.mean(axis=1, keepdims=True)
    c_tgt = target.mean(axis=1, keepdims=True)
    h = np.einsum("nij,nik->njk", source - c_src, target - c_tgt)
    u, _, vt = np.linalg.svd(h)
    v_ut = np.einsum("nji,nkj->nik", vt, u)  # V @ U^T
    sign = np.sign(np.linalg.det(v_ut))
    sign[sign == 0.0] = 1.0
    # Fold the reflection fix into the last row of V^T, then R = V @ U^T.
    vt = vt.copy()
    vt[:, 2, :] *= sign[:, None]
    r = np.einsum("nji,nkj->nik", vt, u)
    t = c_tgt[:, 0, :] - np.einsum("nij,nj->ni", r, c_src[:, 0, :])
    return r, t
