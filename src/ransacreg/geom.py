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

from .errors import DegenerateSample, InsufficientPairs, TooFewPoints
from .spatial import build_index

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


def _as_xyz(points, name: str = "points") -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.shape == (3,):
        return pts
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N, 3) or (3,), got {pts.shape}")
    return pts


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An immutable ordered set of 3D points with a lazily cached resolution.

    The constructor copies its input and freezes the array, so the cached
    resolution can never go stale.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_xyz(self.points)
        if pts.ndim == 1:
            pts = pts.reshape(1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts = np.array(pts, copy=True)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def resolution(self) -> float:
        """Mean nearest-other-point distance (the pr unit); needs >= 2 points."""
        return cloud_resolution(self)

    def select(self, indices) -> "PointCloud":
        """New cloud containing self.points[indices] in the given order."""
        return PointCloud(self.points[np.asarray(indices)])


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A 6-DoF pose: proper rotation plus translation, p -> R p + t.

    The constructor rejects rotations that are not orthonormal with
    determinant +1 within ``ROTATION_TOL``.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64, copy=True)
        t = np.array(self.translation, dtype=np.float64, copy=True).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("transform entries must be finite")
        if np.linalg.norm(r.T @ r - np.eye(3)) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal within tolerance")
        if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation determinant is not +1 within tolerance")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Map a point (3,) or point array (N, 3) through R p + t."""
        pts = _as_xyz(points)
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
    about `axis` (Rodrigues formula)."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = axis / norm
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def triangle_area(a, b, c) -> float:
    """Area of the triangle spanned by three 3D points.

    Scalar arithmetic: this sits on the RANSAC sampling hot path, where
    array-API cross products cost more than the whole draw.
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


def cloud_resolution(cloud) -> float:
    """Mean distance from each point to its nearest other point.

    Exact: the neighbor found by the spatial index is re-measured with the
    same numpy formula a brute-force scan uses. Accepts a PointCloud or a
    raw (N, 3) array; raises :class:`TooFewPoints` below 2 points.
    """
    pts = getattr(cloud, "points", None)
    if pts is None:
        pts = _as_xyz(cloud)
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

    Raises :class:`InsufficientPairs` for < 3 pairs and
    :class:`DegenerateSample` for collinear/coincident source points.
    """
    src = _as_xyz(source, "source")
    tgt = _as_xyz(target, "target")
    if src.ndim == 1 or tgt.ndim == 1:
        raise InsufficientPairs("need point arrays of shape (N, 3)")
    if src.shape != tgt.shape:
        raise ValueError(f"source/target shapes differ: {src.shape} vs {tgt.shape}")
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
