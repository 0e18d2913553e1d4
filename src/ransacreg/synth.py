"""Synthetic scenes, correspondences, and data nuisances.

Stands in for a real detector/descriptor pipeline: builds a target cloud,
derives the source cloud by the inverse of a known ground-truth pose, and
fabricates correspondence sets with an exactly controlled inlier ratio.
Nuisance operators (Gaussian noise, uniform/random decimation, hole
punching) degrade clouds the way scanning artifacts would.

Every generator is a pure function of (inputs, seed) using numpy's PCG64
generator, so replays are bit-identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (BadConfig, InvalidInput, _check_integers, _check_reals,
                     _require_type)
from .geom import PointCloud, RigidTransform, rotation_about_axis
from .metrics import CorrespondenceSet
from .spatial import _as_array, _as_points, _frozen_points, _scan_knn

__all__ = [
    "CorrespondenceConfig",
    "SceneConfig",
    "ScenePair",
    "add_gaussian_noise",
    "decimate_random",
    "decimate_uniform",
    "generate_correspondences",
    "generate_scene",
    "punch_holes",
    "OUTLIER_CLEARANCE_PR",
]

SHAPES = ("random-blob", "lattice", "file")

# Synthetic outliers are forced at least this many resolution units from
# their true match, so inlier/outlier labels stay unambiguous across the
# whole studied threshold range.
OUTLIER_CLEARANCE_PR = 15.0

# Bounded retry rounds when rejection-sampling outlier targets.
_MAX_OUTLIER_ROUNDS = 1000


@dataclass(frozen=True, eq=False)
class SceneConfig:
    """Recipe for one registration scene.

    `shape` picks the target geometry: "random-blob" is uniform inside a
    ball of the given diameter, "lattice" is a unit-spaced grid (its
    resolution is exactly 1), "file" uses the supplied `points`: at least
    10 rows that pass the point boundary, kept as a read-only copy. The
    ground-truth pose rotates by `gt_rotation_angle` about a seeded random
    axis and translates by `gt_translation_magnitude` along a seeded
    random direction. Invalid fields raise :class:`BadConfig`. Configs
    compare and hash by identity, because a file scene holds an array.
    """

    n_points: int = 10000
    shape: str = "random-blob"
    gt_rotation_angle: float = 0.0
    gt_translation_magnitude: float = 0.0
    seed: int = 0
    diameter: float = 100.0
    points: np.ndarray | None = None

    def __post_init__(self):
        _check_integers(self, n_points=10, seed=0)
        _check_reals(gt_rotation_angle=self.gt_rotation_angle,
                     gt_translation_magnitude=self.gt_translation_magnitude,
                     diameter=self.diameter)
        if self.shape not in SHAPES:
            raise BadConfig(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.shape == "file":
            if self.points is None:
                raise BadConfig("shape 'file' needs explicit points")
            try:
                points = _frozen_points(self.points)
            except InvalidInput as exc:
                raise BadConfig(str(exc)) from None
            if points.shape[0] < 10:
                raise BadConfig("file-shaped scenes need at least 10 points")
            object.__setattr__(self, "points", points)
        if not 0.0 < self.diameter < math.inf:
            raise BadConfig("diameter must be positive and finite")
        if not math.isfinite(self.gt_rotation_angle):
            raise BadConfig("rotation angle must be finite")
        if not 0.0 <= self.gt_translation_magnitude < math.inf:
            raise BadConfig("translation magnitude must be >= 0 and finite")


def _check_inlier_ratio(inlier_ratio: float) -> None:
    if not (0.0 < inlier_ratio <= 1.0):
        raise BadConfig(f"inlier_ratio must lie in (0, 1], got {inlier_ratio}")


@dataclass(frozen=True)
class CorrespondenceConfig:
    """Recipe for a correspondence set with a controlled inlier ratio.

    round(n_correspondences * inlier_ratio) pairs are true matches whose
    target is jittered by an isotropic Gaussian of standard deviation
    inlier_sigma_pr resolution units; the rest pair a source point with a
    far random target-volume point.
    """

    n_correspondences: int
    inlier_ratio: float
    inlier_sigma_pr: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, n_correspondences=3, seed=0)
        _check_reals(inlier_ratio=self.inlier_ratio,
                     inlier_sigma_pr=self.inlier_sigma_pr)
        _check_inlier_ratio(self.inlier_ratio)
        if not 0.0 <= self.inlier_sigma_pr < math.inf:
            raise BadConfig("inlier_sigma_pr must be >= 0 and finite")
        if round(self.n_correspondences * self.inlier_ratio) < 3:
            raise BadConfig("need at least 3 inliers for a solvable problem")


@dataclass(frozen=True, eq=False)
class ScenePair:
    """A registration problem: clouds, true pose, and true matches.

    `gt_pairs` has shape (N, 2, 3); gt_pairs[j] = (p_s, p_t) where the
    ground-truth pose maps p_s onto p_t (exactly, when built noise-free).
    Ragged or non-numeric pairs, any other shape or a coordinate outside
    +-COORD_LIMIT raise :class:`InvalidInput`.
    """

    source: PointCloud
    target: PointCloud
    gt: RigidTransform
    gt_pairs: np.ndarray

    def __post_init__(self):
        pairs = np.array(_as_pairs(self.gt_pairs), copy=True)
        pairs.setflags(write=False)
        object.__setattr__(self, "gt_pairs", pairs)

    @property
    def pair_sources(self) -> np.ndarray:
        return self.gt_pairs[:, 0, :]

    @property
    def pair_targets(self) -> np.ndarray:
        return self.gt_pairs[:, 1, :]


def _as_pairs(gt_pairs) -> np.ndarray:
    """Ground-truth pairs as a float64 (N, 2, 3) array; InvalidInput for
    ragged nesting, any other shape or malformed points."""
    pairs = _as_array(gt_pairs, "gt_pairs")
    if pairs.ndim != 3 or pairs.shape[1:] != (2, 3):
        raise InvalidInput(
            f"gt_pairs must have shape (N, 2, 3), got {pairs.shape}")
    return _as_points(pairs.reshape(-1, 3), "gt_pairs").reshape(pairs.shape)


def _blob_points(rng: np.random.Generator, n: int, diameter: float) -> np.ndarray:
    # Uniform in a ball: isotropic direction, radius ~ cube root of uniform.
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radius = 0.5 * diameter * np.cbrt(rng.random(n))
    return v * radius[:, np.newaxis]


def _lattice_points(n: int) -> np.ndarray:
    # First n sites of a unit grid in row-major order. Every site has an
    # axis neighbor at distance exactly 1, so the resolution is exactly 1.
    # Integer search for the side keeps perfect cubes exact (fp cbrt of 27
    # lands a hair above 3).
    side = max(1, int(np.cbrt(n)) - 1)
    while side ** 3 < n:
        side += 1
    z, y, x = np.unravel_index(np.arange(n), (side, side, side))
    return np.column_stack([x, y, z]).astype(np.float64)


def _random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def generate_scene(cfg: SceneConfig) -> ScenePair:
    """Build a scene whose ground-truth pose maps source onto target.

    The target cloud is built by the configured shape; the source cloud is
    the target carried through the inverse pose, so gt_pairs align exactly.
    InvalidInput unless `cfg` is a SceneConfig.
    """
    _require_type(cfg, SceneConfig, "generate_scene")
    rng = np.random.default_rng(cfg.seed)
    axis = _random_unit_vector(rng)
    direction = _random_unit_vector(rng)
    gt = RigidTransform(rotation_about_axis(axis, cfg.gt_rotation_angle),
                        cfg.gt_translation_magnitude * direction)

    if cfg.shape == "random-blob":
        target_pts = _blob_points(rng, cfg.n_points, cfg.diameter)
    elif cfg.shape == "lattice":
        target_pts = _lattice_points(cfg.n_points)
    else:
        target_pts = cfg.points

    target = PointCloud(target_pts)
    source = PointCloud(gt.inverse().apply(target.points))
    gt_pairs = np.stack([source.points, target.points], axis=1)
    return ScenePair(source=source, target=target, gt=gt, gt_pairs=gt_pairs)


def generate_correspondences(scene: ScenePair, cfg: CorrespondenceConfig
                             ) -> tuple[CorrespondenceSet, np.ndarray]:
    """Fabricate a correspondence set with a controlled inlier ratio.

    Returns (correspondences, inlier_mask). k = round(n * inlier_ratio)
    items are true pairs with Gaussian-jittered targets; the remaining
    n - k pair a true source point with a uniform point in the target
    bounding box, redrawn until it clears OUTLIER_CLEARANCE_PR resolution
    units from the true match. Raises :class:`BadConfig` when the target
    volume is too small to place such outliers, and InvalidInput unless
    `scene` is a ScenePair and `cfg` a CorrespondenceConfig.
    """
    _require_type(scene, ScenePair, "generate_correspondences")
    _require_type(cfg, CorrespondenceConfig, "generate_correspondences")
    n = cfg.n_correspondences
    k = round(n * cfg.inlier_ratio)
    pairs = scene.gt_pairs
    if pairs.shape[0] == 0:
        raise BadConfig("scene has no ground-truth pairs")
    rng = np.random.default_rng(cfg.seed)
    pr = scene.target.resolution

    chosen = rng.choice(pairs.shape[0], size=n, replace=pairs.shape[0] < n)
    src = pairs[chosen, 0, :].copy()
    tgt_true = pairs[chosen, 1, :]
    tgt = tgt_true.copy()

    if k > 0:
        tgt[:k] += cfg.inlier_sigma_pr * pr * rng.standard_normal((k, 3))

    n_out = n - k
    if n_out > 0:
        lo = scene.target.points.min(axis=0)
        hi = scene.target.points.max(axis=0)
        clearance = OUTLIER_CLEARANCE_PR * pr
        out = np.empty((n_out, 3))
        todo = np.arange(n_out)
        for _ in range(_MAX_OUTLIER_ROUNDS):
            draw = lo + (hi - lo) * rng.random((todo.size, 3))
            out[todo] = draw
            far = np.linalg.norm(out[todo] - tgt_true[k + todo], axis=1) > clearance
            todo = todo[~far]
            if todo.size == 0:
                break
        else:
            raise BadConfig(
                "target volume too small to place outliers "
                f"{OUTLIER_CLEARANCE_PR} resolutions from their true match")
        tgt[k:] = out

    mask = np.zeros(n, dtype=bool)
    mask[:k] = True
    return CorrespondenceSet(src, tgt), mask


def _check_sigma_pr(sigma_pr: float) -> None:
    _check_reals(sigma_pr=sigma_pr)
    if not 0.0 <= sigma_pr < math.inf:
        raise BadConfig("sigma_pr must be >= 0 and finite")


def add_gaussian_noise(cloud: PointCloud, sigma_pr: float, seed: int) -> PointCloud:
    """Perturb every coordinate by N(0, (sigma_pr * resolution)^2)."""
    _require_type(cloud, PointCloud, "add_gaussian_noise")
    _check_sigma_pr(sigma_pr)
    if sigma_pr == 0.0:
        return PointCloud(cloud.points)
    rng = np.random.default_rng(seed)
    scale = sigma_pr * cloud.resolution
    return PointCloud(cloud.points + scale * rng.standard_normal((len(cloud), 3)))


def _check_keep_fraction(keep_fraction: float) -> None:
    _check_reals(keep_fraction=keep_fraction)
    if not (0.0 < keep_fraction <= 1.0):
        raise BadConfig(f"keep_fraction must lie in (0, 1], got {keep_fraction}")


def _uniform_keep_indices(n: int, keep_fraction: float) -> np.ndarray:
    _check_keep_fraction(keep_fraction)
    # Capping the step at n keeps the same indices, and keeps inf (from a
    # subnormal fraction) and steps beyond int64 away from round and arange.
    step = max(1, round(min(1.0 / keep_fraction, n)))
    return np.arange(0, n, step)


def decimate_uniform(cloud: PointCloud, keep_fraction: float) -> PointCloud:
    """Keep every round(1/keep_fraction)-th point by index; a step of at
    least the cloud's size keeps point 0 alone."""
    _require_type(cloud, PointCloud, "decimate_uniform")
    return cloud.select(_uniform_keep_indices(len(cloud), keep_fraction))


def _random_keep_indices(n: int, keep_fraction: float,
                         rng: np.random.Generator) -> np.ndarray:
    _check_keep_fraction(keep_fraction)
    k = round(n * keep_fraction)
    return np.sort(rng.choice(n, size=k, replace=False))


def decimate_random(cloud: PointCloud, keep_fraction: float, seed: int
                    ) -> PointCloud:
    """Keep a uniform random subset of round(n * keep_fraction) points."""
    _require_type(cloud, PointCloud, "decimate_random")
    rng = np.random.default_rng(seed)
    return cloud.select(_random_keep_indices(len(cloud), keep_fraction, rng))


def _check_holes(n_holes: int, hole_fraction: float) -> None:
    _check_reals(hole_fraction=hole_fraction)
    if not (isinstance(n_holes, numbers.Integral) and n_holes >= 0):
        raise BadConfig(
            f"n_holes must be non-negative and integral, got {n_holes!r}")
    if not (0.0 < hole_fraction < 1.0):
        raise BadConfig(f"hole_fraction must lie in (0, 1), got {hole_fraction}")
    if n_holes * hole_fraction >= 1.0:
        raise BadConfig("holes would consume the whole cloud")


def _hole_survivor_indices(points: np.ndarray, n_holes: int, hole_fraction: float,
                           rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    _check_holes(n_holes, hole_fraction)
    k = round(hole_fraction * n)
    alive = np.arange(n)
    for _ in range(n_holes):
        if k <= 0 or alive.size == 0:
            break
        seed_pos = points[alive[rng.integers(alive.size)]]
        removed, _ = _scan_knn(points[alive], seed_pos, min(k, alive.size))
        alive = np.delete(alive, removed)
    return alive


def punch_holes(cloud: PointCloud, n_holes: int, hole_fraction: float,
                seed: int) -> PointCloud:
    """Carve n_holes clusters out of the cloud.

    Each hole picks a random surviving point and removes its
    round(hole_fraction * n) nearest surviving neighbors (itself
    included), n being the original cloud size.
    """
    _require_type(cloud, PointCloud, "punch_holes")
    rng = np.random.default_rng(seed)
    return cloud.select(
        _hole_survivor_indices(cloud.points, n_holes, hole_fraction, rng))
