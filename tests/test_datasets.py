"""Generator geometry, imbalance profiles, and split carving."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.datasets import (
    MOON_LOWER_OFFSET,
    SPIN_RADIUS_MAX,
    SPIN_THETA_MAX,
    SPIN_THETA_MIN,
    CisslSplit,
    Dataset2D,
    SplitCapacityError,
    gen_four_spins,
    gen_two_moons,
    imbalance_counts,
    make_cissl_split,
    moon_arc_points,
    spin_arm_points,
    write_split_csv,
)

SPIN_B = SPIN_RADIUS_MAX / SPIN_THETA_MAX


def moon_arc_distance(points: np.ndarray, label: int) -> np.ndarray:
    """Exact distance to the class's circular arc (radial residual).

    Valid for points whose nearest arc point is interior, which holds for
    zero-noise samples by construction.
    """
    if label == 1:
        points = points - np.asarray(MOON_LOWER_OFFSET)
    return np.abs(np.hypot(points[:, 0], points[:, 1]) - 1.0)


def spin_arm_theta(points: np.ndarray, label: int) -> np.ndarray:
    """Unwrap each point's polar angle into the arm's theta range."""
    angle = np.arctan2(points[:, 1], points[:, 0]) - label * (math.pi / 2.0)
    theta = np.mod(angle, 2.0 * math.pi)
    # the arm spans [0.4*pi, 1.6*pi], width < 2*pi, so one representative
    theta = np.where(theta < SPIN_THETA_MIN - 1e-9, theta + 2.0 * math.pi, theta)
    return theta


def spin_arm_distance(points: np.ndarray, label: int) -> np.ndarray:
    theta = spin_arm_theta(points, label)
    radius = np.hypot(points[:, 0], points[:, 1])
    return np.abs(radius - SPIN_B * theta)


class TestTwoMoons:
    def test_zero_noise_points_lie_on_their_arcs(self):
        data = gen_two_moons(50, 0.0, 0)
        for label in (0, 1):
            dist = moon_arc_distance(data.points[data.labels == label], label)
            assert dist.max() < 1e-12

    def test_deterministic_in_seed(self):
        a = gen_two_moons(100, 0.1, 7)
        b = gen_two_moons(100, 0.1, 7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        c = gen_two_moons(100, 0.1, 8)
        assert not np.array_equal(a.points, c.points)

    def test_noise_displacement_matches_chi_square_expectation(self):
        # squared displacement from the base locus is sigma^2 * chi2(2),
        # so its mean over many points is ~ 2 sigma^2
        std = 0.1
        base = gen_two_moons(1000, 0.0, 3)
        noisy = gen_two_moons(1000, std, 3)
        msd = float(np.mean(np.sum((noisy.points - base.points) ** 2, axis=1)))
        assert 0.8 * 2.0 * std**2 < msd < 1.2 * 2.0 * std**2

    def test_arc_distance_never_exceeds_displacement(self):
        base = gen_two_moons(500, 0.0, 5)
        noisy = gen_two_moons(500, 0.15, 5)
        displacement = np.hypot(*(noisy.points - base.points).T)
        for label in (0, 1):
            mask = noisy.labels == label
            assert np.all(moon_arc_distance(noisy.points[mask], label)
                          <= displacement[mask] + 1e-12)

    def test_single_point_per_class(self):
        data = gen_two_moons(1, 0.0, 0)
        assert len(data) == 2
        assert moon_arc_distance(data.points[:1], 0)[0] < 1e-12
        assert moon_arc_distance(data.points[1:], 1)[0] < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_two_moons(0, 0.1, 0)
        for generator in (gen_two_moons, gen_four_spins):
            for noise_std in (-0.1, float("nan")):
                with pytest.raises(ValueError, match="noise_std"):
                    generator(10, noise_std, 0)


class TestFourSpins:
    def test_zero_noise_points_lie_on_their_arms(self):
        data = gen_four_spins(50, 0.0, 0)
        for label in range(4):
            points = data.points[data.labels == label]
            theta = spin_arm_theta(points, label)
            assert np.all(theta >= SPIN_THETA_MIN - 1e-9)
            assert np.all(theta <= SPIN_THETA_MAX + 1e-9)
            assert spin_arm_distance(points, label).max() < 1e-12

    def test_rotating_any_class_onto_arm_zero(self):
        data = gen_four_spins(200, 0.0, 11)
        for label in range(4):
            points = data.points[data.labels == label]
            rot = -label * (math.pi / 2.0)
            c, s = math.cos(rot), math.sin(rot)
            rotated = points @ np.array([[c, s], [-s, c]])
            assert spin_arm_distance(rotated, 0).max() < 1e-9

    def test_nearest_arm_classifies_noise_free_loci_perfectly(self):
        data = gen_four_spins(500, 0.0, 1)
        dense = np.linspace(SPIN_THETA_MIN, SPIN_THETA_MAX, 5001)
        arms = [spin_arm_points(k, dense) for k in range(4)]
        for start in range(0, len(data), 250):
            chunk = data.points[start:start + 250]
            dists = np.stack([
                np.min(np.sum((chunk[:, None, :] - arm[None, :, :]) ** 2, axis=2), axis=1)
                for arm in arms])
            predicted = dists.argmin(axis=0)
            assert np.array_equal(predicted, data.labels[start:start + 250])

    def test_adjacent_arms_separated_by_constant_radial_gap(self):
        # along any fixed direction, consecutive arms differ by b*pi/2 in radius
        theta = np.linspace(SPIN_THETA_MIN + math.pi / 2.0, SPIN_THETA_MAX, 100)
        inner = spin_arm_points(1, theta - math.pi / 2.0)
        outer = spin_arm_points(0, theta)
        r_inner = np.hypot(inner[:, 0], inner[:, 1])
        r_outer = np.hypot(outer[:, 0], outer[:, 1])
        gap = r_outer - r_inner
        assert np.allclose(gap, SPIN_B * math.pi / 2.0, atol=1e-12)
        # and the two points share a ray from the origin
        cross = inner[:, 0] * outer[:, 1] - inner[:, 1] * outer[:, 0]
        assert np.abs(cross).max() < 1e-9

    def test_noise_displacement_matches_chi_square_expectation(self):
        std = 0.05
        base = gen_four_spins(500, 0.0, 1)
        noisy = gen_four_spins(500, std, 1)
        msd = float(np.mean(np.sum((noisy.points - base.points) ** 2, axis=1)))
        assert 0.8 * 2.0 * std**2 < msd < 1.2 * 2.0 * std**2

    def test_deterministic_in_seed(self):
        a = gen_four_spins(64, 0.05, 9)
        b = gen_four_spins(64, 0.05, 9)
        assert np.array_equal(a.points, b.points)


class TestImbalanceCounts:
    def test_two_moons_labeled_profile(self):
        assert imbalance_counts(10, 5.0, 2).tolist() == [10, 2]

    def test_four_spins_labeled_profile(self):
        assert imbalance_counts(5, 5.0, 4).tolist() == [5, 3, 2, 1]

    def test_balanced_profile(self):
        assert imbalance_counts(7, 1.0, 3).tolist() == [7, 7, 7]

    def test_unlabeled_totals_match_protocol(self):
        # the toy protocol's unlabeled sets: 3000 on moons, 2658 on spins
        moons = imbalance_counts(2500, 5.0, 2)
        spins = imbalance_counts(1250, 5.0, 4)
        assert moons.tolist() == [2500, 500] and moons.sum() == 3000
        assert spins.tolist() == [1250, 731, 427, 250] and spins.sum() == 2658

    def test_round_half_up(self):
        # exact values 5*5^(-1/3)=2.924 and 5*5^(-2/3)=1.710 round to 3 and 2
        counts = imbalance_counts(5, 5.0, 4)
        assert counts[1] == 3 and counts[2] == 2

    def test_clamps_to_one(self):
        assert imbalance_counts(2, 100.0, 4).min() == 1

    @pytest.mark.parametrize("bad", [(0, 5.0, 2), (10, 0.5, 2), (10, 5.0, 1)])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            imbalance_counts(*bad)

    @given(n_max=st.integers(1, 100000), rho=st.floats(1.0, 1000.0),
           n_classes=st.integers(2, 12))
    @settings(max_examples=200, deadline=None)
    def test_profile_properties(self, n_max, rho, n_classes):
        counts = imbalance_counts(n_max, rho, n_classes)
        exact = n_max * rho ** (-np.arange(n_classes) / (n_classes - 1))
        assert counts[0] == n_max
        assert np.all(counts >= 1)
        assert np.all(np.diff(counts) <= 0)
        unclamped = exact >= 0.5
        assert np.all(np.abs(counts[unclamped] - exact[unclamped]) <= 0.5)

    def test_ratio_approaches_rho_for_large_n_max(self):
        counts = imbalance_counts(100000, 5.0, 4)
        assert abs(counts[0] / counts[-1] - 5.0) < 0.001


@pytest.fixture
def moon_pool():
    return gen_two_moons(800, 0.1, 21)


class TestMakeCisslSplit:
    def test_partitions_disjoint_and_sized(self, moon_pool):
        split = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 250, 100, 3)
        all_idx = np.concatenate([split.labeled_idx, split.unlabeled_idx,
                                  split.validation_idx])
        assert len(np.unique(all_idx)) == all_idx.size
        assert len(split.labeled) == 12
        assert len(split.unlabeled) == int(split.unlabeled_counts.sum())
        assert len(split.validation) == 200
        assert split.validation.class_counts().tolist() == [100, 100]

    def test_counts_describe_partitions(self, moon_pool):
        split = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 250, 100, 3)
        assert split.labeled.class_counts().tolist() == split.labeled_counts.tolist()
        assert split.unlabeled.class_counts().tolist() == split.unlabeled_counts.tolist()

    def test_uniform_profile(self, moon_pool):
        split = make_cissl_split(moon_pool, np.array([10, 2]), "uniform", 5.0, 250, 0, 3)
        assert np.all(split.unlabeled_counts == 250)

    def test_same_profile_follows_labeled_ranking(self, moon_pool):
        split = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 1500 // 3, 0, 3)
        # whichever class got the 10 labeled samples also gets the larger
        # unlabeled allocation
        major = int(np.argmax(split.labeled_counts))
        assert split.unlabeled_counts[major] == split.unlabeled_counts.max()

    def test_same_profile_sizes(self, moon_pool):
        split = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 500, 100, 3)
        assert sorted(split.unlabeled_counts.tolist()) == [100, 500]

    def test_half_profile(self, moon_pool):
        split = make_cissl_split(moon_pool, np.array([10, 2]), "half", 5.0, 500, 0, 3)
        assert sorted(split.unlabeled_counts.tolist()) == [200, 500]

    def test_deterministic_and_seed_sensitive(self, moon_pool):
        a = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 250, 100, 3)
        b = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 250, 100, 3)
        assert np.array_equal(a.labeled_idx, b.labeled_idx)
        assert np.array_equal(a.unlabeled_idx, b.unlabeled_idx)
        differing = [seed for seed in range(8)
                     if not np.array_equal(
                         make_cissl_split(moon_pool, np.array([10, 2]), "same",
                                          5.0, 250, 100, seed).labeled_idx,
                         a.labeled_idx)]
        assert differing

    def test_rank_permutation_varies_with_seed(self, moon_pool):
        majors = {
            int(np.argmax(make_cissl_split(moon_pool, np.array([10, 2]), "same",
                                           5.0, 250, 0, seed).labeled_counts))
            for seed in range(16)}
        assert majors == {0, 1}

    def test_capacity_error_names_the_short_class(self, moon_pool):
        with pytest.raises(SplitCapacityError, match=r"class \d: pool holds 800"):
            make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 2500, 100, 3)

    def test_unlabeled_trainer_view_has_no_labels(self, moon_pool):
        split = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 250, 0, 3)
        view = split.unlabeled_points()
        assert view.shape == (len(split.unlabeled), 2)

    @pytest.mark.parametrize("bad_counts", [[2, 10], [10, 0], [10]])
    def test_rejects_bad_labeled_counts(self, moon_pool, bad_counts):
        with pytest.raises(ValueError):
            make_cissl_split(moon_pool, np.array(bad_counts), "same", 5.0, 250, 0, 3)

    def test_rejects_unknown_unlabeled_type(self, moon_pool):
        with pytest.raises(ValueError, match="unlabeled_type"):
            make_cissl_split(moon_pool, np.array([10, 2]), "all", 5.0, 250, 0, 3)


class TestDataset2D:
    def test_validates_shapes_and_ranges(self):
        with pytest.raises(ValueError):
            Dataset2D(np.zeros((3, 3)), np.zeros(3, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            Dataset2D(np.zeros((3, 2)), np.array([0, 1, 2]), 2)
        with pytest.raises(ValueError):
            Dataset2D(np.array([[np.inf, 0.0]]), np.array([0]), 2)

    def test_subset_preserves_alignment(self):
        data = gen_two_moons(10, 0.1, 0)
        sub = data.subset(np.array([3, 17, 5]))
        assert np.array_equal(sub.points, data.points[[3, 17, 5]])
        assert np.array_equal(sub.labels, data.labels[[3, 17, 5]])


def test_split_csv_dump_round_trips_partition_sizes(tmp_path, moon_pool):
    split = make_cissl_split(moon_pool, np.array([10, 2]), "same", 5.0, 250, 50, 3)
    path = tmp_path / "split.csv"
    write_split_csv(split, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,label,partition"
    body = [line.split(",") for line in lines[1:]]
    by_partition = {name: sum(1 for row in body if row[3] == name)
                    for name in ("labeled", "unlabeled", "validation")}
    assert by_partition["labeled"] == len(split.labeled)
    assert by_partition["unlabeled"] == len(split.unlabeled)
    assert by_partition["validation"] == len(split.validation)
