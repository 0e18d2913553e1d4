"""Exact nearest-neighbor search over 3D point sets.

A :class:`NeighborIndex` wraps a k-d tree but guarantees *linear-scan
semantics*: queries return exactly what a brute-force scan over the indexed
points would return, with distance ties broken by the lowest point index.
The tree is only used to find candidates; final distances are recomputed
with plain numpy so results are bit-identical to a scan, which keeps every
downstream quantity (cloud resolution, overlap counts) reproducible.

The batch queries (:meth:`NeighborIndex.nearest_distances` and
:meth:`NeighborIndex.nearest_other_distances`) run on every CPU core.
The tree traverses each query row on its own, so their results do not
depend on the thread count. Single-point queries stay serial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud, InvalidInput, KTooLarge

__all__ = ["NeighborIndex", "build_index"]

# Relative slack added to candidate radii so that a last-ulp difference
# between the tree's internal distance and the numpy recomputation can never
# exclude a true nearest neighbor.
_RADIUS_SLACK = 1e-9


def _as_points(cloud) -> np.ndarray:
    pts = getattr(cloud, "points", cloud)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
    return pts


def _query_point(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(q)):
        raise InvalidInput(f"query point must be finite, got {q}")
    return q


def _scan_distances(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances from q to every row of points, the reference formula."""
    d = points - q
    return np.sqrt(np.einsum("ij,ij->i", d, d))


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Immutable exact nearest-neighbor index over a frozen copy of a cloud."""

    points: np.ndarray
    _tree: cKDTree = field(repr=False)

    @property
    def point_count(self) -> int:
        return self.points.shape[0]

    def nearest(self, q) -> tuple[int, float]:
        """Index and distance of the closest indexed point to `q`.

        Ties are broken by the lowest point index.
        """
        q = _query_point(q)
        d0, _ = self._tree.query(q)
        r = d0 * (1.0 + _RADIUS_SLACK)
        candidates = self._tree.query_ball_point(q, r)
        cand = np.sort(np.asarray(candidates, dtype=np.intp))
        dists = _scan_distances(self.points[cand], q)
        best = int(np.argmin(dists))  # argmin takes the first (lowest) index
        return int(cand[best]), float(dists[best])

    def knn(self, q, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest indexed points to `q`.

        Returns (indices, distances) sorted ascending by distance, ties by
        index. Raises :class:`KTooLarge` unless 1 <= k <= point_count.
        """
        if not 1 <= k <= self.point_count:
            raise KTooLarge(f"k={k} not in [1, {self.point_count}]")
        q = _query_point(q)
        kth = self._tree.query(q, k=k)[0]
        kth = float(np.atleast_1d(kth)[-1])
        r = kth * (1.0 + _RADIUS_SLACK)
        cand = np.asarray(self._tree.query_ball_point(q, r), dtype=np.intp)
        dists = _scan_distances(self.points[cand], q)
        order = np.lexsort((cand, dists))[:k]
        return cand[order].astype(np.intp), dists[order]

    def nearest_distances(self, queries: np.ndarray) -> np.ndarray:
        """Distance from each query row to its closest indexed point.

        Batch companion to :meth:`nearest` for whole-cloud metrics; only the
        distances are returned, so tie resolution is irrelevant here. The
        rows are split across every CPU core; each distance is the same for
        any thread count.
        """
        queries = np.asarray(queries, dtype=np.float64)
        d, _ = self._tree.query(queries, workers=-1)
        return np.asarray(d, dtype=np.float64)

    def nearest_other_distances(self) -> np.ndarray:
        """For each indexed point, distance to its nearest *other* point.

        Distances are recomputed in numpy against the neighbor the tree
        reports, so they match a brute-force scan. Needs >= 2 points. Like
        :meth:`nearest_distances`, the query uses every CPU core and its
        result does not depend on the thread count.
        """
        if self.point_count < 2:
            raise EmptyCloud("need at least 2 points for neighbor distances")
        _, idx = self._tree.query(self.points, k=2, workers=-1)
        other = idx[:, 1]
        d = self.points - self.points[other]
        return np.sqrt(np.einsum("ij,ij->i", d, d))


def build_index(cloud) -> NeighborIndex:
    """Build an immutable exact NN index over a cloud's points.

    Accepts a PointCloud or a raw (N, 3) array; the points are copied so
    later mutation of the source cannot corrupt the index. Raises
    :class:`EmptyCloud` for an empty input, :class:`InvalidInput` for
    non-finite coordinates and ValueError for a wrong shape.
    """
    pts = _as_points(cloud)
    if pts.shape[0] == 0:
        raise EmptyCloud("cannot index an empty cloud")
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("point coordinates must be finite")
    pts = np.array(pts, dtype=np.float64, copy=True)
    pts.setflags(write=False)
    return NeighborIndex(points=pts, _tree=cKDTree(pts))
