"""Exact nearest-neighbor search over 3D point sets.

Single-point search is a linear scan, `_scan_knn`: numpy distances to
every point, the k smallest, ties broken by the lowest point index.
:meth:`NeighborIndex.knn`, :meth:`NeighborIndex.nearest` and hole
punching use it. The k-d tree, with leaves of up to `_LEAF_SIZE` points,
serves only the batch queries. :meth:`NeighborIndex.nearest_distances` is
the one per-hypothesis query: it runs on the calling thread and returns
the tree's own distances (they may differ from a scan's in the last
bits). The cloud metrics' scoring pass
(:func:`~ransacreg.metrics._cloud_values_batch`) runs it on a pool, one
hypothesis per task, on consecutive blocks of the source points in
`_leaf_order`, until an earlier hypothesis provably scores at least as
high. Before every block, the first one included, that proof may use the
unqueried points' gaps to the target's bounding sphere, which never
exceed this method's distances, so a hypothesis can stop unqueried.
:meth:`NeighborIndex.nearest_other_distances` splits its rows across
every CPU core and re-measures in numpy. The tree resolves each query
point on its own, so no distance depends on the thread count.
`_as_points` checks point input and `_in_coord_domain` every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud, InvalidInput, KTooLarge

__all__ = ["COORD_LIMIT", "NeighborIndex", "build_index"]

# The coordinate domain: point coordinates |x| <= L and translation norms
# <= 4 L (a pose solved between in-domain points has |t| <= 2 sqrt(3) L).
# triangle_area's squared cross product binds: <= 192 L^4, finite below
# L ~ 9.8e76 (inf at L = 1e100, NaN at 1e200). The error kernel stays
# <= 3 (7.5 L)^2, a minimal sample's cross-covariance <= 12 L^2.
COORD_LIMIT = 1e75

# The bound on a moved point's coordinates: an in-domain point moved by an
# in-domain pose has |R p + t| <= sqrt(3) L + 4 L < 6 L.
_MOVED_LIMIT = 6 * COORD_LIMIT

# Points per k-d tree leaf. The `cloud-holes` benchmark's single-threaded
# queries of source points in `_leaf_order` ran about 10 % faster at 32
# than at scipy's default of 16, and no faster at 64 (2-core AMD EPYC);
# the search is exact, so a query's distances are the same at any size.
_LEAF_SIZE = 32


def _as_array(values, name: str) -> np.ndarray:
    """`np.asarray(values)`; InvalidInput where numpy cannot make one array
    of them (e.g. ragged nesting)."""
    try:
        return np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be a numeric array: {exc}") from None


def _as_indices(indices) -> np.ndarray:
    """`np.asarray(indices)` as a row index; an empty one selects no row
    (numpy reads `[]` as float64, which cannot index)."""
    idx = np.asarray(indices)
    return idx if idx.size else idx.astype(np.intp)


def _in_coord_domain(values: np.ndarray, limit: float = COORD_LIMIT) -> bool:
    """False if `values` holds a NaN, +-inf or |x| > limit; allocates nothing."""
    return values.size == 0 or bool(-limit <= values.min()
                                    and values.max() <= limit)


def _as_points(points, name: str = "points", *, one: bool = False,
               limit: float = COORD_LIMIT) -> np.ndarray:
    """The float64 (N, 3) points of a PointCloud, an (N, 3) array-like or
    one (3,) point (float64 input is not copied). Raises InvalidInput for
    non-numeric input, any other shape, a NaN, inf or |x| > `limit`, or
    (with `one`) other than one point; N = 0 passes: the caller decides.
    """
    pts = _as_array(getattr(points, "points", points), name)
    if pts.dtype.kind not in "biuf":
        raise InvalidInput(f"{name} must be numeric, got dtype {pts.dtype}")
    pts = pts.astype(np.float64, copy=False)
    if pts.shape == (3,):
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3 or (one and pts.shape[0] != 1):
        want = "one (3,) point" if one else "an (N, 3) array or one (3,) point"
        raise InvalidInput(f"{name} must be {want}, got shape {pts.shape}")
    if not _in_coord_domain(pts, limit):
        raise InvalidInput(f"{name} has a coordinate outside +-{limit:g}")
    return pts


def _frozen_points(points, name: str = "points", *, one: bool = False
                   ) -> np.ndarray:
    """A read-only copy of `_as_points(points, name, one=one)`."""
    pts = np.array(_as_points(points, name, one=one), copy=True)
    pts.setflags(write=False)
    return pts


def _scan_distances(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances from q to every row of points, the reference formula."""
    d = points - q
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _scan_knn(points: np.ndarray, q: np.ndarray, k: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """The k rows of `points` nearest to `q`, 1 <= k <= len(points), as
    (indices, distances) sorted ascending by distance, ties by index."""
    d = _scan_distances(points, q)
    kth = np.partition(d, k - 1)[k - 1]
    cand = np.flatnonzero(d <= kth)
    near = cand[np.lexsort((cand, d[cand]))[:k]]
    return near, d[near]


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Immutable exact nearest-neighbor index over a frozen copy of a cloud."""

    points: np.ndarray
    _tree: cKDTree = field(repr=False)

    @property
    def point_count(self) -> int:
        return self.points.shape[0]

    def nearest(self, q) -> tuple[int, float]:
        """Index and distance of the closest indexed point to `q`: the
        :meth:`knn` answer for k = 1, so ties go to the lowest point index.
        """
        idx, dists = self.knn(q, 1)
        return int(idx[0]), float(dists[0])

    def knn(self, q, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest indexed points to `q`, by a linear scan.

        Returns (indices, distances) sorted ascending by distance, ties by
        index. Raises :class:`KTooLarge` unless 1 <= k <= point_count and
        :class:`InvalidInput` unless `q` is exactly one in-domain point.
        """
        if not 1 <= k <= self.point_count:
            raise KTooLarge(f"k={k} not in [1, {self.point_count}]")
        return _scan_knn(self.points, _as_points(q, "query", one=True)[0], k)

    def nearest_distances(self, queries) -> np.ndarray:
        """Distance from each query point, (N, 3) or one (3,), to its
        closest indexed point, as shape (N,).

        Batch companion to :meth:`nearest`; only the distances are
        returned, so tie resolution is irrelevant here. They are the tree's
        own, not re-measured. The queries may be in-domain points moved by
        an in-domain pose, so a coordinate may reach `_MOVED_LIMIT`;
        :class:`InvalidInput` otherwise, as for :func:`_as_points`. The
        query runs on the calling thread, with scipy's default of one
        worker: a caller that scores many hypotheses runs one call per
        thread, as the cloud metrics' pass does, and every distance is the
        same on any thread.
        """
        queries = _as_points(queries, "queries", limit=_MOVED_LIMIT)
        d, _ = self._tree.query(queries)
        return d

    def nearest_other_distances(self) -> np.ndarray:
        """For each indexed point, distance to its nearest *other* point.

        Distances are recomputed in numpy against the neighbor the tree
        reports, so they match a brute-force scan. Needs >= 2 points. The
        query splits its rows across every CPU core, on purpose: the cloud
        resolution calls it once per target, on the critical path of every
        registration, where a k=2 self-query of 10k points took 8.1 ms on
        one thread against 4.3 ms on two (min of 30, 2-core AMD EPYC).
        Its result does not depend on the thread count.
        """
        if self.point_count < 2:
            raise EmptyCloud("need at least 2 points for neighbor distances")
        _, idx = self._tree.query(self.points, k=2, workers=-1)
        return _scan_distances(self.points, self.points[idx[:, 1]])


def build_index(cloud) -> NeighborIndex:
    """Build an immutable exact NN index over a cloud's points.

    Accepts a PointCloud, a raw (N, 3) array or one (3,) point; the points
    are copied so later mutation of the source cannot corrupt the index.
    Raises :class:`EmptyCloud` for an empty input and :class:`InvalidInput`
    (also a ValueError) for malformed points.
    """
    pts = _frozen_points(cloud, "cloud")
    if pts.shape[0] == 0:
        raise EmptyCloud("cannot index an empty cloud")
    return NeighborIndex(points=pts, _tree=cKDTree(pts, leafsize=_LEAF_SIZE))


def _leaf_order(points: np.ndarray) -> np.ndarray:
    """A permutation of the rows of `points` that lists them leaf by leaf
    of a k-d tree built on them, so that neighbouring rows lie close in
    space and consecutive queries walk the same branches of a tree."""
    return cKDTree(points, leafsize=_LEAF_SIZE).indices
