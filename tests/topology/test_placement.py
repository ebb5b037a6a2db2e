"""Tests for node placement strategies."""

import math

import numpy as np
import pytest

from repro.topology.placement import (
    AP_POSITION,
    Placement,
    clustered_placement,
    explicit_placement,
    ring_placement,
    uniform_disc_placement,
)


class TestRingPlacement:
    def test_all_nodes_at_requested_radius(self):
        placement = ring_placement(12, radius=8.0)
        for station in range(placement.num_stations):
            assert placement.distance_to_ap(station) == pytest.approx(8.0)

    def test_station_count(self):
        assert ring_placement(25).num_stations == 25

    def test_max_pairwise_distance_is_diameter(self):
        placement = ring_placement(8, radius=8.0)
        widest = max(placement.distance(i, j)
                     for i in range(8) for j in range(i + 1, 8))
        assert widest == pytest.approx(16.0, rel=1e-6)

    def test_single_station(self):
        placement = ring_placement(1, radius=5.0)
        assert placement.num_stations == 1

    def test_phase_rotates_positions(self):
        a = ring_placement(4, radius=8.0, phase=0.0)
        b = ring_placement(4, radius=8.0, phase=math.pi / 4)
        assert a.stations[0] != b.stations[0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ring_placement(0)
        with pytest.raises(ValueError):
            ring_placement(4, radius=0.0)


class TestUniformDiscPlacement:
    def test_all_nodes_within_radius(self, rng):
        placement = uniform_disc_placement(200, radius=16.0, rng=rng)
        for station in range(placement.num_stations):
            assert placement.distance_to_ap(station) <= 16.0 + 1e-9

    def test_min_ap_distance_respected(self, rng):
        placement = uniform_disc_placement(100, radius=16.0, rng=rng,
                                           min_ap_distance=5.0)
        for station in range(placement.num_stations):
            assert placement.distance_to_ap(station) >= 5.0 - 1e-9

    def test_density_roughly_uniform_over_area(self, rng):
        # With area-uniform placement, about one quarter of the nodes should
        # land inside half the radius (area scales with r^2).
        placement = uniform_disc_placement(4000, radius=16.0, rng=rng)
        inside = sum(
            1 for i in range(placement.num_stations)
            if placement.distance_to_ap(i) <= 8.0
        )
        assert 0.18 <= inside / 4000 <= 0.32

    def test_reproducible_with_same_seed(self):
        a = uniform_disc_placement(10, 16.0, np.random.default_rng(7))
        b = uniform_disc_placement(10, 16.0, np.random.default_rng(7))
        assert a.stations == b.stations

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            uniform_disc_placement(0, 16.0, rng)
        with pytest.raises(ValueError):
            uniform_disc_placement(5, 0.0, rng)
        with pytest.raises(ValueError):
            uniform_disc_placement(5, 16.0, rng, min_ap_distance=20.0)


class TestClusteredPlacement:
    def test_station_counts_per_cluster(self, rng):
        placement = clustered_placement(
            [(-10, 0), (10, 0)], [3, 4], spread=0.5, rng=rng
        )
        assert placement.num_stations == 7

    def test_clusters_centered_correctly(self, rng):
        placement = clustered_placement(
            [(-14, 0), (14, 0)], [50, 50], spread=0.1, rng=rng
        )
        xs = [x for x, _ in placement.stations]
        assert np.mean(xs[:50]) == pytest.approx(-14, abs=0.2)
        assert np.mean(xs[50:]) == pytest.approx(14, abs=0.2)

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            clustered_placement([(-1, 0)], [1, 2], spread=0.5, rng=rng)

    def test_rejects_empty_placement(self, rng):
        with pytest.raises(ValueError):
            clustered_placement([(-1, 0)], [0], spread=0.5, rng=rng)


class TestExplicitPlacementAndHelpers:
    def test_explicit_positions_preserved(self):
        placement = explicit_placement([(1, 2), (3, 4)])
        assert placement.stations == ((1.0, 2.0), (3.0, 4.0))
        assert placement.ap == AP_POSITION

    def test_explicit_rejects_empty(self):
        with pytest.raises(ValueError):
            explicit_placement([])

    def test_distance_symmetry(self):
        placement = explicit_placement([(0, 0), (3, 4)])
        assert placement.distance(0, 1) == placement.distance(1, 0) == pytest.approx(5.0)
