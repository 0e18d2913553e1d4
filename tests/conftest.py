"""Shared test helpers.

Random rotations here come from QR decomposition, deliberately a different
construction than the library's Rodrigues/SVD paths, so tests that compare
against them act as independent inputs rather than echoes of the code under
test.

Every `hypothesis` property runs under one profile: examples derived from
the test itself, no example database (so runs repeat exactly) and no
per-example deadline. Each property sets only its `max_examples`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from ransacreg import RigidTransform

settings.register_profile("ransacreg", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("ransacreg")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniform-ish proper rotation built by QR orthogonalization."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_rigid(rng: np.random.Generator, t_scale: float = 10.0) -> RigidTransform:
    """A random proper rigid transform."""
    return RigidTransform(random_rotation(rng), rng.standard_normal(3) * t_scale)


def scan_distances(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Brute-force distances from every point to the query."""
    d = points - q
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def scan_nearest(points: np.ndarray, q: np.ndarray) -> tuple[int, float]:
    """Brute-force nearest neighbor; ties go to the lowest index."""
    dists = scan_distances(points, q)
    i = int(np.argmin(dists))  # first minimum = lowest index on ties
    return i, float(dists[i])


def scan_knn(points: np.ndarray, q: np.ndarray, k: int):
    """Brute-force k nearest, ordered by (distance, index)."""
    dists = scan_distances(points, q)
    order = np.lexsort((np.arange(len(points)), dists))[:k]
    return order, dists[order]


def brute_force_resolution(points: np.ndarray) -> float:
    """O(n^2) mean nearest-other-point distance."""
    diffs = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    np.fill_diagonal(dist, np.inf)
    return float(np.mean(dist.min(axis=1)))
