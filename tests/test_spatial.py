"""Exact nearest-neighbor search, checked against brute-force scans."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ransacreg import EmptyCloud, InvalidInput, KTooLarge, build_index

from conftest import scan_distances, scan_knn, scan_nearest


def test_nearest_matches_linear_scan_exactly():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.01, 50.0)
        index = build_index(pts)
        queries = np.vstack([
            rng.normal(size=(10, 3)) * 10,
            pts[rng.integers(0, n, size=5)],       # exact hits
            rng.normal(size=(3, 3)) * 1e4,          # far away
        ])
        for q in queries:
            assert index.nearest(q) == scan_nearest(pts, q)


def test_nearest_breaks_ties_by_lowest_index():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]])
    index = build_index(pts)
    i, d = index.nearest([0.0, 0.0, 0.0])
    assert i == 0 and d == 1.0
    # duplicated coordinates: the first copy wins
    i, d = index.nearest([1.0, 0.1, 0.0])
    assert i == 0


def test_knn_matches_linear_scan_exactly():
    rng = np.random.default_rng(22)
    for _ in range(15):
        n = int(rng.integers(2, 200))
        pts = rng.normal(size=(n, 3)) * 5
        index = build_index(pts)
        for _ in range(8):
            q = rng.normal(size=3) * 5
            k = int(rng.integers(1, n + 1))
            idx, dists = index.knn(q, k)
            oracle_idx, oracle_d = scan_knn(pts, q, k)
            np.testing.assert_array_equal(idx, oracle_idx)
            np.testing.assert_array_equal(dists, oracle_d)


def test_knn_tie_order_on_lattice():
    x, y, z = np.mgrid[0:3, 0:3, 0:3]
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()]).astype(float)
    index = build_index(pts)
    q = pts[13]  # lattice center; 6 axis neighbors tie at distance 1
    idx, dists = index.knn(q, 7)
    oracle_idx, oracle_d = scan_knn(pts, q, 7)
    np.testing.assert_array_equal(idx, oracle_idx)
    np.testing.assert_array_equal(dists, oracle_d)
    assert dists[0] == 0.0 and np.all(dists[1:] == 1.0)
    assert np.all(np.diff(idx[1:]) > 0)  # ties sorted by index


def test_knn_rejects_bad_k():
    index = build_index(np.zeros((4, 3)) + np.arange(4)[:, None])
    with pytest.raises(KTooLarge):
        index.knn([0.0, 0.0, 0.0], 0)
    with pytest.raises(KTooLarge):
        index.knn([0.0, 0.0, 0.0], 5)


def test_nearest_distances_matches_scan():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(150, 3)) * 3
    index = build_index(pts)
    queries = rng.normal(size=(60, 3)) * 3
    got = index.nearest_distances(queries)
    want = np.array([scan_nearest(pts, q)[1] for q in queries])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_nearest_other_distances_matches_brute_force():
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(80, 3)) * 2
    index = build_index(pts)
    got = index.nearest_other_distances()
    diffs = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    np.fill_diagonal(dist, np.inf)
    np.testing.assert_array_equal(got, dist.min(axis=1))


def test_nearest_other_distances_needs_two_points():
    index = build_index(np.zeros((1, 3)))
    with pytest.raises(EmptyCloud):
        index.nearest_other_distances()


def test_build_index_validates_and_copies():
    with pytest.raises(EmptyCloud):
        build_index(np.empty((0, 3)))
    with pytest.raises(ValueError):
        build_index(np.zeros((3, 2)))
    raw = np.arange(9, dtype=np.float64).reshape(3, 3)
    index = build_index(raw)
    raw[0] = 1e9
    assert index.nearest([0.0, 1.0, 2.0]) == (0, 0.0)
    with pytest.raises(ValueError):
        index.points[0, 0] = 5.0


def test_point_count():
    assert build_index(np.zeros((7, 3)) + np.arange(7)[:, None]).point_count == 7


def test_non_finite_points_are_invalid_input():
    pts = np.arange(12, dtype=np.float64).reshape(4, 3)
    index = build_index(pts)
    for bad in (np.nan, np.inf, -np.inf):
        broken = pts.copy()
        broken[2, 1] = bad
        with pytest.raises(InvalidInput):
            build_index(broken)
        with pytest.raises(InvalidInput):
            index.nearest([0.0, bad, 0.0])
        with pytest.raises(InvalidInput):
            index.knn([bad, 0.0, 0.0], 2)


def test_batch_queries_do_not_depend_on_thread_count():
    rng = np.random.default_rng(25)
    pts = np.vstack([rng.normal(size=(400, 3)) * 4, np.zeros((3, 3))])
    index = build_index(pts)
    queries = np.vstack([rng.normal(size=(500, 3)) * 4, pts[:50]])
    serial, _ = index._tree.query(queries, workers=1)
    got = index.nearest_distances(queries)
    np.testing.assert_array_equal(got.view(np.uint64), serial.view(np.uint64))
    _, idx = index._tree.query(pts, k=2, workers=1)
    d = pts - pts[idx[:, 1]]
    serial_other = np.sqrt(np.einsum("ij,ij->i", d, d))
    np.testing.assert_array_equal(index.nearest_other_distances(), serial_other)


@st.composite
def _tied_clouds(draw):
    """Points on a small integer grid, some rows repeated, in drawn order,
    times a drawn scale; queries on the half grid, so exact distance ties
    (equidistant points, duplicates, queries on a point) are common. Up to
    200 rows, so the k-d tree splits into several leaves, repeats included."""
    base = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 150), st.just(3)),
                           elements=st.integers(-2, 2).map(float)))
    repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=50))
    pts = np.vstack([base, base[repeats]])
    pts = pts[draw(st.permutations(range(len(pts))))]
    queries = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
                              elements=st.integers(-5, 5).map(lambda v: v / 2)))
    scale = draw(st.sampled_from([1.0, 0.25, 0.1, 3.0]))
    return pts * scale, queries * scale


@settings(max_examples=120)
@given(_tied_clouds())
def test_queries_match_linear_scan_on_duplicates_and_ties(cloud):
    pts, queries = cloud
    index = build_index(pts)
    n = len(pts)
    for q in queries:
        assert index.nearest(q) == scan_nearest(pts, q)
        for k in {1, min(2, n), n // 2 + 1, n}:
            idx, dists = index.knn(q, k)
            oracle_idx, oracle_d = scan_knn(pts, q, k)
            np.testing.assert_array_equal(idx, oracle_idx)
            np.testing.assert_array_equal(dists, oracle_d)
    want = np.array([scan_nearest(pts, q)[1] for q in queries])
    np.testing.assert_allclose(index.nearest_distances(queries), want,
                               rtol=1e-12, atol=0.0)
    if n > 1:
        other = np.array([np.min(np.delete(scan_distances(pts, p), i))
                          for i, p in enumerate(pts)])
        np.testing.assert_array_equal(index.nearest_other_distances(), other)
