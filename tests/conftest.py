"""Shared test helpers.

Random rotations here come from QR decomposition, deliberately a different
construction than the library's Rodrigues/SVD paths, so tests that compare
against them act as independent inputs rather than echoes of the code under
test.

Every `hypothesis` property runs under one profile: examples derived from
the test itself, no example database (so runs repeat exactly) and no
per-example deadline. Each property sets only its `max_examples`.

A scoring pass returns only each spec's prefix winners;
`record_score_passes` rebuilds the per-hypothesis scores behind them, and
`check_prefix_winners` checks each winner against them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from ransacreg import RigidTransform
from ransacreg import metrics as metrics_module

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


_SCORE_PASS = metrics_module._score_pass


def record_score_passes(monkeypatch) -> list:
    """Wrap `metrics._score_pass` so that every pass is recorded, and
    return the list of records: (specs, ends, values, result) per pass,
    where values[k, i] is the score that spec k's `reduce` gave hypothesis
    i (-inf for a hypothesis a cloud pass stopped) and result is what the
    real pass returned."""
    passes = []

    def recorder(specs, order, ends, blocks, reduce, *rest):
        scores_of = [{} for _ in specs]
        where = None

        def watched():
            nonlocal where
            for where, data in blocks:
                yield where, data

        def recording(spec, data):
            scores = reduce(spec, data)
            scores_of[list(specs).index(spec)].update(
                zip(range(where.start, where.stop), np.atleast_1d(scores)))
            return scores

        result = _SCORE_PASS(specs, order, ends, watched(), recording, *rest)
        values = np.array([[row[i] for i in range(len(row))]
                           for row in scores_of], dtype=np.float64)
        passes.append((tuple(specs), ends, values, result))
        return result

    monkeypatch.setattr(metrics_module, "_score_pass", recorder)
    return passes


def check_prefix_winners(record) -> None:
    """Each winner of a recorded pass is the first maximum of the recorded
    scores over its prefix, in index and in score bits."""
    specs, ends, values, result = record
    assert len(result) == len(specs)
    for k, (winners, seconds) in enumerate(result):
        assert len(winners) == len(ends) and seconds >= 0.0
        for end, (i, score) in zip(ends, winners):
            best = int(np.argmax(values[k, :end]))
            assert i == best, (specs[k], end)
            assert (np.float64(score).view(np.uint64)
                    == values[k, best:best + 1].view(np.uint64)[0]), (
                specs[k], end)
