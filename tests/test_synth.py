"""Scene generation, controlled correspondences, and nuisance operators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import chi

from ransacreg import (
    BadConfig,
    CorrespondenceConfig,
    PointCloud,
    SceneConfig,
    ScenePair,
    add_gaussian_noise,
    decimate_random,
    decimate_uniform,
    generate_correspondences,
    generate_scene,
    punch_holes,
    transformation_errors,
)
from ransacreg.synth import (
    OUTLIER_CLEARANCE_PR,
    _hole_survivor_indices,
    _lattice_points,
)


def blob_scene(n=400, angle=0.8, translation=30.0, seed=5, diameter=100.0):
    return generate_scene(SceneConfig(
        n_points=n, shape="random-blob", gt_rotation_angle=angle,
        gt_translation_magnitude=translation, seed=seed, diameter=diameter))


# ---------------------------------------------------------------- configs


def test_scene_config_validation():
    with pytest.raises(BadConfig):
        SceneConfig(shape="sphere")
    with pytest.raises(BadConfig):
        SceneConfig(shape="file", points=None)
    with pytest.raises(BadConfig):
        SceneConfig(n_points=9)
    with pytest.raises(BadConfig):
        SceneConfig(diameter=0.0)
    with pytest.raises(BadConfig):
        SceneConfig(gt_translation_magnitude=-1.0)


def test_correspondence_config_validation():
    with pytest.raises(BadConfig):
        CorrespondenceConfig(n_correspondences=100, inlier_ratio=0.0)
    with pytest.raises(BadConfig):
        CorrespondenceConfig(n_correspondences=100, inlier_ratio=1.2)
    with pytest.raises(BadConfig):
        CorrespondenceConfig(n_correspondences=100, inlier_ratio=0.5,
                             inlier_sigma_pr=-0.1)
    # round(20 * 0.1) = 2 inliers cannot seat a 3-point solver
    with pytest.raises(BadConfig):
        CorrespondenceConfig(n_correspondences=20, inlier_ratio=0.1)
    CorrespondenceConfig(n_correspondences=30, inlier_ratio=0.1)


@pytest.mark.parametrize("make", [
    lambda: SceneConfig(seed=-1),
    lambda: CorrespondenceConfig(n_correspondences=100, inlier_ratio=0.5,
                                 seed=-1),
], ids=["SceneConfig", "CorrespondenceConfig"])
def test_negative_seed_is_bad_config(make):
    with pytest.raises(BadConfig, match="seed must be non-negative"):
        make()


_NON_FINITE_CONFIGS = {
    "diameter": lambda v: SceneConfig(diameter=v),
    "gt_rotation_angle": lambda v: SceneConfig(gt_rotation_angle=v),
    "gt_translation_magnitude":
        lambda v: SceneConfig(gt_translation_magnitude=v),
    "inlier_sigma_pr": lambda v: CorrespondenceConfig(
        n_correspondences=100, inlier_ratio=0.5, inlier_sigma_pr=v),
    "add_gaussian_noise.sigma_pr":
        lambda v: add_gaussian_noise(blob_scene(n=50).target, v, seed=0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(_NON_FINITE_CONFIGS))
def test_non_finite_config_values_are_bad_config(field, value):
    with pytest.raises(BadConfig):
        _NON_FINITE_CONFIGS[field](value)


def test_scene_pair_validation():
    scene = blob_scene(n=20)
    with pytest.raises(ValueError):
        ScenePair(source=scene.source, target=scene.target, gt=scene.gt,
                  gt_pairs=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        scene.gt_pairs[0, 0, 0] = 1.0
    np.testing.assert_array_equal(scene.pair_sources, scene.gt_pairs[:, 0, :])
    np.testing.assert_array_equal(scene.pair_targets, scene.gt_pairs[:, 1, :])


# ------------------------------------------------------------------ scenes


def test_blob_scene_geometry():
    scene = blob_scene(n=500, diameter=80.0)
    assert len(scene.source) == len(scene.target) == 500
    # targets live inside the configured ball
    radii = np.linalg.norm(scene.target.points, axis=1)
    assert np.all(radii <= 40.0 + 1e-9)
    # ground truth carries source onto target
    np.testing.assert_allclose(scene.gt.apply(scene.source.points),
                               scene.target.points, atol=1e-9)
    np.testing.assert_array_equal(scene.pair_sources, scene.source.points)
    np.testing.assert_array_equal(scene.pair_targets, scene.target.points)


def test_scene_ground_truth_magnitudes():
    scene = blob_scene(angle=0.8, translation=30.0)
    angle = math.acos((np.trace(scene.gt.rotation) - 1.0) / 2.0)
    assert angle == pytest.approx(0.8, rel=1e-9)
    assert np.linalg.norm(scene.gt.translation) == pytest.approx(30.0, rel=1e-12)
    still = blob_scene(angle=0.0, translation=0.0)
    np.testing.assert_allclose(still.gt.rotation, np.eye(3), atol=1e-15)
    np.testing.assert_array_equal(still.gt.translation, np.zeros(3))


def test_scene_seed_determinism():
    a = blob_scene(seed=12)
    b = blob_scene(seed=12)
    c = blob_scene(seed=13)
    np.testing.assert_array_equal(a.target.points, b.target.points)
    np.testing.assert_array_equal(a.source.points, b.source.points)
    np.testing.assert_array_equal(a.gt.rotation, b.gt.rotation)
    assert not np.array_equal(a.target.points, c.target.points)


def test_lattice_scene():
    scene = generate_scene(SceneConfig(n_points=27, shape="lattice", seed=3))
    assert scene.target.resolution == 1.0
    np.testing.assert_array_equal(scene.target.points[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(scene.target.points[1], [1.0, 0.0, 0.0])
    # 27 points fill the 3x3x3 grid exactly
    expect = {(x, y, z) for x in range(3) for y in range(3) for z in range(3)}
    got = {tuple(map(int, p)) for p in scene.target.points}
    assert got == expect


def test_file_scene_uses_points_verbatim():
    rng = np.random.default_rng(70)
    pts = rng.normal(size=(40, 3)) * 10
    scene = generate_scene(SceneConfig(shape="file", points=pts, seed=1,
                                       gt_rotation_angle=0.2))
    np.testing.assert_array_equal(scene.target.points, pts)
    with pytest.raises(BadConfig):
        generate_scene(SceneConfig(shape="file", points=pts[:5]))
    with pytest.raises(BadConfig):
        generate_scene(SceneConfig(shape="file", points=np.zeros((12, 2))))


def test_file_points_pass_the_point_boundary_and_are_frozen():
    pts = np.random.default_rng(71).normal(size=(40, 3)) * 10
    with pytest.raises(BadConfig, match="numeric"):
        SceneConfig(shape="file", points=pts.astype(str))
    with pytest.raises(BadConfig, match="outside"):
        SceneConfig(shape="file", points=np.vstack([pts, [[np.nan] * 3]]))
    cfg = SceneConfig(shape="file", points=pts, seed=1, gt_rotation_angle=0.2)
    want = generate_scene(cfg)
    pts[:] = 0.0
    got = generate_scene(cfg)
    np.testing.assert_array_equal(got.target.points, want.target.points)
    np.testing.assert_array_equal(got.source.points, want.source.points)
    assert not cfg.points.flags.writeable


def test_file_scene_configs_compare_and_hash_by_identity():
    """A file config holds an array, so value equality would ask numpy for
    the truth value of an array; configs compare by identity instead."""
    pts = np.random.default_rng(72).normal(size=(40, 3)) * 10
    a = SceneConfig(shape="file", points=pts)
    b = SceneConfig(shape="file", points=pts)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


# --------------------------------------------------------- correspondences


def test_correspondences_controlled_ratio():
    scene = blob_scene(n=2000)
    corrs, mask = generate_correspondences(
        scene, CorrespondenceConfig(n_correspondences=200, inlier_ratio=0.3,
                                    seed=8))
    assert corrs.n == 200
    k = round(200 * 0.3)
    assert int(mask.sum()) == k
    assert np.all(mask[:k]) and not np.any(mask[k:])


def test_correspondences_noise_free_inliers_align_exactly():
    scene = blob_scene(n=2000)
    corrs, mask = generate_correspondences(
        scene, CorrespondenceConfig(n_correspondences=100, inlier_ratio=0.4,
                                    inlier_sigma_pr=0.0, seed=9))
    errors = transformation_errors(scene.gt, corrs)
    assert np.all(errors[mask] < 1e-9)
    pr = scene.target.resolution
    # outliers were rejection-sampled to clear the label margin
    assert np.all(errors[~mask] > (OUTLIER_CLEARANCE_PR - 0.001) * pr)


def test_correspondences_determinism_and_seed_sensitivity():
    scene = blob_scene(n=2000)
    cfg = CorrespondenceConfig(n_correspondences=80, inlier_ratio=0.5,
                               inlier_sigma_pr=1.0, seed=14)
    a, mask_a = generate_correspondences(scene, cfg)
    b, mask_b = generate_correspondences(scene, cfg)
    np.testing.assert_array_equal(a.sources, b.sources)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(mask_a, mask_b)
    other = CorrespondenceConfig(n_correspondences=80, inlier_ratio=0.5,
                                 inlier_sigma_pr=1.0, seed=15)
    c, _ = generate_correspondences(scene, other)
    assert not np.array_equal(a.targets, c.targets)


def test_correspondences_on_an_unusable_scene_are_bad_config():
    cfg = CorrespondenceConfig(n_correspondences=10, inlier_ratio=0.5, seed=3)
    # a 3 x 3 x 2 box cannot hold an outlier 15 pr from its true match
    lattice = generate_scene(SceneConfig(n_points=10, shape="lattice"))
    with pytest.raises(BadConfig, match="too small to place outliers"):
        generate_correspondences(lattice, cfg)
    no_pairs = ScenePair(source=lattice.source, target=lattice.target,
                         gt=lattice.gt, gt_pairs=np.zeros((0, 2, 3)))
    with pytest.raises(BadConfig, match="no ground-truth pairs"):
        generate_correspondences(no_pairs, cfg)


def test_correspondences_can_exceed_scene_size():
    scene = blob_scene(n=20)
    corrs, mask = generate_correspondences(
        scene, CorrespondenceConfig(n_correspondences=50, inlier_ratio=1.0,
                                    seed=2))
    assert corrs.n == 50
    assert mask.all()


def test_correspondence_inlier_noise_follows_chi3():
    """With unit sigma, inlier error over resolution is chi with 3 degrees
    of freedom; check the tail mass inside 3 pr and the mean."""
    scene = blob_scene(n=3000, seed=21)
    corrs, mask = generate_correspondences(
        scene, CorrespondenceConfig(n_correspondences=4000, inlier_ratio=1.0,
                                    inlier_sigma_pr=1.0, seed=22))
    assert mask.all()
    pr = scene.target.resolution
    normalized = transformation_errors(scene.gt, corrs) / pr
    assert np.mean(normalized < 3.0) == pytest.approx(chi.cdf(3.0, 3), abs=0.02)
    assert normalized.mean() == pytest.approx(chi.mean(3), rel=0.03)


# ----------------------------------------------------------------- nuisances


def test_gaussian_noise_zero_sigma_copies():
    scene = blob_scene(n=50)
    noisy = add_gaussian_noise(scene.target, 0.0, seed=1)
    assert noisy is not scene.target
    np.testing.assert_array_equal(noisy.points, scene.target.points)


def test_gaussian_noise_magnitude_and_determinism():
    scene = blob_scene(n=2000, seed=30)
    sigma = 1.5
    a = add_gaussian_noise(scene.target, sigma, seed=4)
    b = add_gaussian_noise(scene.target, sigma, seed=4)
    np.testing.assert_array_equal(a.points, b.points)
    displacement = np.linalg.norm(a.points - scene.target.points, axis=1)
    expect = chi.mean(3) * sigma * scene.target.resolution
    assert displacement.mean() == pytest.approx(expect, rel=0.05)
    with pytest.raises(BadConfig):
        add_gaussian_noise(scene.target, -0.5, seed=0)


def test_decimate_uniform_strides():
    rng = np.random.default_rng(71)
    cloud = PointCloud(rng.normal(size=(10, 3)))
    np.testing.assert_array_equal(decimate_uniform(cloud, 0.5).points,
                                  cloud.points[::2])
    np.testing.assert_array_equal(decimate_uniform(cloud, 1.0).points,
                                  cloud.points)
    # round(1 / 0.7) = 1, so keep fractions above ~0.67 keep everything
    np.testing.assert_array_equal(decimate_uniform(cloud, 0.7).points,
                                  cloud.points)
    np.testing.assert_array_equal(decimate_uniform(cloud, 0.33).points,
                                  cloud.points[::3])
    # a step of 10 or more keeps point 0 alone, also where round(1 / f)
    # overflows int64 (1e-20, 1e-300) or 1 / f a float (1e-320)
    for tiny in (0.1, 1e-20, 1e-300, 1e-320):
        np.testing.assert_array_equal(decimate_uniform(cloud, tiny).points,
                                      cloud.points[:1])
    with pytest.raises(BadConfig):
        decimate_uniform(cloud, 0.0)
    with pytest.raises(BadConfig):
        decimate_uniform(cloud, 1.2)


def test_decimate_random_subset_properties():
    rng = np.random.default_rng(72)
    cloud = PointCloud(rng.normal(size=(100, 3)) * 10)
    kept = decimate_random(cloud, 0.35, seed=6)
    assert len(kept) == round(100 * 0.35)
    again = decimate_random(cloud, 0.35, seed=6)
    np.testing.assert_array_equal(kept.points, again.points)
    # rows are original rows, in original relative order
    lookup = {tuple(row): i for i, row in enumerate(cloud.points)}
    positions = [lookup[tuple(row)] for row in kept.points]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)
    with pytest.raises(BadConfig):
        decimate_random(cloud, 0.0, seed=0)


def test_punch_holes_sizes_and_determinism():
    rng = np.random.default_rng(73)
    cloud = PointCloud(rng.normal(size=(200, 3)) * 20)
    holed = punch_holes(cloud, n_holes=3, hole_fraction=0.05, seed=9)
    assert len(holed) == 200 - 3 * round(0.05 * 200)
    again = punch_holes(cloud, n_holes=3, hole_fraction=0.05, seed=9)
    np.testing.assert_array_equal(holed.points, again.points)
    untouched = punch_holes(cloud, n_holes=0, hole_fraction=0.05, seed=9)
    np.testing.assert_array_equal(untouched.points, cloud.points)
    # holes that outrun the cloud stop once nothing survives; k = 0 holes
    # remove nothing
    three = PointCloud(cloud.points[:3])
    assert len(punch_holes(three, n_holes=4, hole_fraction=0.2, seed=9)) == 0
    twenty = PointCloud(cloud.points[:20])
    np.testing.assert_array_equal(
        punch_holes(twenty, n_holes=4, hole_fraction=0.01, seed=9).points,
        twenty.points)
    with pytest.raises(BadConfig):
        punch_holes(cloud, n_holes=20, hole_fraction=0.05, seed=0)
    with pytest.raises(BadConfig):
        punch_holes(cloud, n_holes=-1, hole_fraction=0.05, seed=0)


@pytest.mark.parametrize("nuisance, args", [
    (punch_holes, (3, math.nan)),
    (punch_holes, (3, -0.1)),
    (punch_holes, (3, 0.0)),
    (punch_holes, (0, 1.0)),
    (punch_holes, (2.5, 0.05)),
    (punch_holes, ("3", 0.05)),
    (punch_holes, (3, "0.05")),
    (decimate_uniform, ("0.5",)),
    (decimate_random, ("0.5",)),
    (add_gaussian_noise, ("1.0",)),
])
def test_nuisance_parameters_outside_their_rules_raise_bad_config(nuisance,
                                                                  args):
    """n_holes is a non-negative integer, hole_fraction lies in (0, 1),
    as EvalConfig requires, and every fraction or sigma is a real number."""
    cloud = PointCloud(np.random.default_rng(76).normal(size=(50, 3)))
    seed = () if nuisance is decimate_uniform else (0,)
    with pytest.raises(BadConfig):
        nuisance(cloud, *args, *seed)


def test_punch_holes_removes_one_contiguous_neighborhood():
    """A single hole must equal the k-nearest-neighbor ball of some removed
    point, checked against a brute-force distance sort."""
    rng = np.random.default_rng(74)
    pts = rng.normal(size=(120, 3)) * 15
    cloud = PointCloud(pts)
    k = round(0.1 * 120)
    holed = punch_holes(cloud, n_holes=1, hole_fraction=0.1, seed=11)
    survivors = {tuple(row) for row in holed.points}
    removed = [i for i, row in enumerate(pts) if tuple(row) not in survivors]
    assert len(removed) == k
    found_seed = False
    for i in removed:
        d = np.linalg.norm(pts - pts[i], axis=1)
        ball = set(np.argsort(d)[:k].tolist())
        if ball == set(removed):
            found_seed = True
            break
    assert found_seed


# --------------------------------------------- hole punching vs a k-d tree
#
# A frozen copy of hole punching as it was when each hole built a k-d tree
# over the survivors and asked it for the k nearest: the tree's k-th
# distance, widened by a relative 1e-9, bounded a ball query whose
# candidates were re-measured in numpy and ordered by (distance, index).


def _tree_knn(points, q, k):
    tree = cKDTree(points)
    kth = float(np.atleast_1d(tree.query(q, k=k)[0])[-1])
    cand = np.asarray(tree.query_ball_point(q, kth * (1.0 + 1e-9)),
                      dtype=np.intp)
    d = points[cand] - q
    dists = np.sqrt(np.einsum("ij,ij->i", d, d))
    return cand[np.lexsort((cand, dists))[:k]]


def _ref_hole_survivors(points, n_holes, hole_fraction, rng):
    k = round(hole_fraction * points.shape[0])
    alive = np.arange(points.shape[0])
    for _ in range(n_holes):
        if k <= 0 or alive.size == 0:
            break
        seed_pos = points[alive[rng.integers(alive.size)]]
        removed = _tree_knn(points[alive], seed_pos, min(k, alive.size))
        alive = np.delete(alive, np.sort(removed))
    return alive


def _hole_clouds():
    rng = np.random.default_rng(75)
    blob = rng.normal(size=(300, 3)) * 20
    return {
        "blob": blob,
        # unit grid: whole shells of neighbors tie at the k-th distance
        "lattice": _lattice_points(343),
        "duplicates": np.vstack([blob[:150], blob[rng.integers(0, 150, 150)]]),
    }


@pytest.mark.parametrize("n_holes, hole_fraction",
                         [(1, 0.05), (3, 0.02), (4, 0.1), (10, 0.03)])
@pytest.mark.parametrize("cloud", sorted(_hole_clouds()))
def test_hole_survivors_match_the_tree_search(cloud, n_holes, hole_fraction):
    points = _hole_clouds()[cloud]
    for seed in range(6):
        got = _hole_survivor_indices(points, n_holes, hole_fraction,
                                     np.random.default_rng(seed))
        want = _ref_hole_survivors(points, n_holes, hole_fraction,
                                   np.random.default_rng(seed))
        assert np.array_equal(got, want)
