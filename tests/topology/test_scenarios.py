"""Tests for the pre-packaged paper scenarios."""

import numpy as np
import pytest

from repro.topology.scenarios import (
    FULLY_CONNECTED_RING_RADIUS,
    HIDDEN_DISC_RADIUS_LARGE,
    HIDDEN_DISC_RADIUS_SMALL,
    fully_connected_scenario,
    hidden_node_scenario,
    two_cluster_hidden_scenario,
)


class TestPaperRadii:
    @pytest.mark.parametrize("radius", [12.0, 16.0, 20.0])
    def test_hidden_pairs_are_exactly_the_pairs_beyond_24(self, radius):
        """The disc widens the decode range to its radius; sensing stays 24."""
        graph = hidden_node_scenario(30, np.random.default_rng(3), radius=radius)
        placement, n = graph.placement, graph.num_stations
        beyond = {(i, j) for i in range(n) for j in range(i + 1, n)
                  if placement.distance(i, j) > 24.0}
        assert graph.hidden_pairs() == beyond
        if radius > 16.0:  # some station needs the widened decode range
            assert max(placement.distance_to_ap(i) for i in range(n)) > 16.0


    @pytest.mark.parametrize("radius", [28.0, 32.0])
    def test_disc_wider_than_24_widens_both_radii_to_its_own(self, radius):
        """Decode ``max(16, radius)``, sense ``max(24, decode)``."""
        graph = hidden_node_scenario(30, np.random.default_rng(3), radius=radius)
        placement, n = graph.placement, graph.num_stations
        beyond = {(i, j) for i in range(n) for j in range(i + 1, n)
                  if placement.distance(i, j) > radius}
        assert graph.hidden_pairs() == beyond
        assert any(placement.distance(i, j) > 24.0
                   for i in range(n) for j in range(i + 1, n))

    @pytest.mark.parametrize("radius", [4.0, 8.0])
    def test_disc_inside_the_paper_radii_keeps_them(self, radius):
        """A disc of radius at most 12 has no pair beyond 24: connected."""
        graph = hidden_node_scenario(30, np.random.default_rng(3), radius=radius)
        assert graph.is_fully_connected()


class TestFullyConnectedScenario:
    @pytest.mark.parametrize("n", [2, 10, 40])
    def test_no_hidden_pairs(self, n):
        graph = fully_connected_scenario(n)
        assert graph.is_fully_connected()
        assert graph.num_stations == n

    def test_default_radius_is_papers(self):
        assert FULLY_CONNECTED_RING_RADIUS == 8.0

    def test_too_large_radius_rejected(self):
        # Ring of radius 16 has diameter 32 > sensing range 24.
        with pytest.raises(ValueError):
            fully_connected_scenario(10, radius=16.0)


class TestHiddenNodeScenario:
    def test_radii_constants_match_paper(self):
        assert HIDDEN_DISC_RADIUS_SMALL == 16.0
        assert HIDDEN_DISC_RADIUS_LARGE == 20.0

    def test_require_hidden_pairs_produces_hidden_pairs(self):
        rng = np.random.default_rng(5)
        graph = hidden_node_scenario(30, rng, radius=20.0, require_hidden_pairs=True)
        assert not graph.is_fully_connected()

    def test_every_station_covered_by_ap(self):
        rng = np.random.default_rng(5)
        graph = hidden_node_scenario(20, rng, radius=16.0)
        placement = graph.placement
        assert all(placement.distance_to_ap(i) <= 16.0
                   for i in range(graph.num_stations))

    def test_reproducible_given_seeded_rng(self):
        a = hidden_node_scenario(15, np.random.default_rng(9), radius=16.0)
        b = hidden_node_scenario(15, np.random.default_rng(9), radius=16.0)
        assert a.placement.stations == b.placement.stations


class TestTwoClusterScenario:
    def test_cross_cluster_pairs_all_hidden(self):
        graph = two_cluster_hidden_scenario(3, separation=28.0, spread=0.5)
        hidden = graph.hidden_pairs()
        cross_pairs = {(i, j) for i in range(3) for j in range(3, 6)}
        for i, j in cross_pairs:
            pair = (min(i, j), max(i, j))
            assert pair in hidden

    def test_intra_cluster_pairs_sense_each_other(self):
        graph = two_cluster_hidden_scenario(3, separation=28.0, spread=0.5)
        sensing = graph.sensing_sets()
        for i in range(3):
            for j in range(3):
                assert j in sensing[i]

    def test_rejects_empty_clusters(self):
        with pytest.raises(ValueError):
            two_cluster_hidden_scenario(0)
