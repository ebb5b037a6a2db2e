"""Tests for connectivity graphs and hidden-node analysis."""

import numpy as np
import pytest

from repro.topology.graph import ConnectivityGraph
from repro.topology.placement import explicit_placement, ring_placement


class TestFullyConnectedDetection:
    def test_ring_radius_8_is_fully_connected(self):
        graph = ConnectivityGraph(ring_placement(20, radius=8.0))
        assert graph.is_fully_connected()
        assert graph.hidden_pairs() == frozenset()

    def test_each_station_senses_everyone(self):
        graph = ConnectivityGraph(ring_placement(10, radius=8.0))
        for station in range(10):
            assert graph.sensing_sets()[station] == frozenset(range(10))

    def test_report_for_connected_network(self):
        graph = ConnectivityGraph(ring_placement(10, radius=8.0))
        report = graph.hidden_node_report()
        assert report.is_fully_connected
        assert report.num_hidden_pairs == 0
        assert report.hidden_pair_fraction == 0.0


class TestHiddenPairDetection:
    def make_hidden_triangle(self):
        # Stations at (-14, 0) and (14, 0): both within 16 of the AP at the
        # origin, but 28 > 24 apart so they are hidden from each other.  A
        # third station at (0, 5) senses both.
        placement = explicit_placement([(-14, 0), (14, 0), (0, 5)])
        return ConnectivityGraph(placement)

    def test_hidden_pair_found(self):
        graph = self.make_hidden_triangle()
        assert graph.hidden_pairs() == frozenset({(0, 1)})
        assert not graph.is_fully_connected()

    def test_sensing_sets_are_asymmetry_free(self):
        sensing = self.make_hidden_triangle().sensing_sets()
        assert 1 not in sensing[0]
        assert 0 not in sensing[1]
        assert 2 in sensing[0] and 0 in sensing[2]
        assert 2 in sensing[1] and 1 in sensing[2]

    def test_hidden_peers(self):
        pairs = self.make_hidden_triangle().hidden_pairs()
        peers = [{j for pair in pairs if i in pair for j in pair if j != i}
                 for i in range(3)]
        assert peers == [{1}, {0}, set()]

    def test_report_counts(self):
        report = self.make_hidden_triangle().hidden_node_report()
        assert report.num_hidden_pairs == 1
        assert report.num_possible_pairs == 3
        assert report.stations_with_hidden_peer == 2
        assert report.hidden_pair_fraction == pytest.approx(1 / 3)

    def test_sensing_matrix_symmetric_with_true_diagonal(self):
        graph = self.make_hidden_triangle()
        matrix = graph.sensing_matrix()
        assert matrix.shape == (3, 3)
        assert np.all(np.diag(matrix))
        assert np.array_equal(matrix, matrix.T)
        assert not matrix[0, 1]


class TestApCoverage:
    def test_station_outside_ap_range_rejected(self):
        placement = explicit_placement([(30, 0)])
        with pytest.raises(ValueError):
            ConnectivityGraph(placement)

    @pytest.mark.parametrize("radii, decode", [
        ({}, 16.0),
        ({"decode_range": 10.0}, 10.0),
        ({"decode_range": 10.0, "sense_range": 15.0}, 10.0),
    ])
    def test_station_exactly_at_the_decode_range_is_covered(self, radii, decode):
        ConnectivityGraph(explicit_placement([(decode, 0.0)]), **radii)
        with pytest.raises(ValueError, match="outside the AP decode range"):
            ConnectivityGraph(explicit_placement([(decode + 0.01, 0.0)]), **radii)


class TestRadii:
    """Two stations sense each other within ``sense_range`` (24 by
    default), which is at least the decode range (16 by default)."""

    @pytest.mark.parametrize("radii, sense", [
        ({}, 24.0),
        ({"sense_range": 20.0}, 20.0),
        ({"decode_range": 10.0, "sense_range": 15.0}, 15.0),
    ])
    def test_station_exactly_at_the_sense_range_is_sensed(self, radii, sense):
        half = sense / 2.0
        at_edge = ConnectivityGraph(
            explicit_placement([(-half, 0.0), (half, 0.0)]), **radii)
        assert at_edge.is_fully_connected()
        assert at_edge.sensing_matrix().all()
        beyond = ConnectivityGraph(
            explicit_placement([(-half, 0.0), (half + 0.01, 0.0)]), **radii)
        assert beyond.hidden_pairs() == frozenset({(0, 1)})

    @pytest.mark.parametrize("decode_range, sense_range",
                             [(20.0, 10.0), (16.0, 15.99)])
    def test_sense_range_below_decode_range_rejected(self, decode_range,
                                                     sense_range):
        with pytest.raises(ValueError, match="sense_range"):
            ConnectivityGraph(ring_placement(2, radius=8.0),
                              decode_range=decode_range, sense_range=sense_range)

    def test_stations_that_decode_each_other_also_sense_each_other(self):
        """Sensing reaches at least as far as decoding."""
        for gap in np.linspace(0.5, 16.0, 32):
            graph = ConnectivityGraph(
                explicit_placement([(-gap / 2, 0.0), (gap / 2, 0.0)]))
            assert graph.is_fully_connected()

    def test_equal_radii_accepted(self):
        graph = ConnectivityGraph(ring_placement(2, radius=8.0),
                                  decode_range=20.0, sense_range=20.0)
        assert graph.is_fully_connected()

    @pytest.mark.parametrize("decode_range", [0.0, -1.0])
    def test_non_positive_decode_range_rejected(self, decode_range):
        with pytest.raises(ValueError, match="decode_range"):
            ConnectivityGraph(ring_placement(2, radius=8.0),
                              decode_range=decode_range)


class TestConflictMatrixHelpers:
    """The matrix views the batched conflict simulator is built on."""

    def _random_hidden_graph(self, n=12, seed=4):
        from repro.topology.scenarios import hidden_node_scenario

        return hidden_node_scenario(
            n, np.random.default_rng(seed), radius=16.0,
            require_hidden_pairs=True,
        )

    def test_sensing_matrix_is_symmetric_with_true_diagonal(self):
        graph = self._random_hidden_graph()
        matrix = graph.sensing_matrix()
        assert matrix.dtype == bool
        assert np.array_equal(matrix, matrix.T)
        assert matrix.diagonal().all()

    def test_sensing_matrix_matches_sensing_sets(self):
        graph = self._random_hidden_graph()
        matrix = graph.sensing_matrix()
        for i, sensed in enumerate(graph.sensing_sets()):
            assert set(np.flatnonzero(matrix[i])) == set(sensed)

    def test_hidden_complement_agrees_with_hidden_pair_report(self):
        graph = self._random_hidden_graph()
        off_diagonal = ~np.eye(graph.num_stations, dtype=bool)
        hidden = ~graph.sensing_matrix() & off_diagonal
        report = graph.hidden_node_report()
        assert int(hidden.sum()) // 2 == report.num_hidden_pairs
        assert np.array_equal(hidden, hidden.T)
        pairs = {(i, j) for i, j in zip(*np.nonzero(hidden)) if i < j}
        assert pairs == set(graph.hidden_pairs())
        with_peer = int((hidden.any(axis=1)).sum())
        assert with_peer == report.stations_with_hidden_peer

    def test_connected_topology_degenerates_to_all_ones(self):
        graph = ConnectivityGraph(ring_placement(9, radius=8.0))
        assert graph.sensing_matrix().all()
        assert graph.hidden_node_report().is_fully_connected
