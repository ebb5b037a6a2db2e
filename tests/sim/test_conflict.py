"""Tests for the conflict-matrix vectorized hidden-node simulator.

The load-bearing guarantees:

* cross-validation: on the hidden-node cells of Figures 4-7 (paper schemes
  and open-loop sweeps, disc radii 16 and 20) the conflict-matrix backend
  agrees with the scalar event-driven simulator — the two share no hot-path
  code, so agreement is an end-to-end check of both;
* a fully connected sensing matrix degenerates to the connected model (the
  conflict backend then agrees with the slotted renewal simulator too);
* hidden pairs actually behave like hidden pairs: stations that cannot
  sense each other collide at the AP instead of deferring;
* per-cell results are bit-identical regardless of batch composition (the
  Hypothesis suite in tests/properties covers the exhaustive version);
* frame errors, reporting time lines and input validation behave like the
  other simulators.
"""

import numpy as np
import pytest

from repro.experiments.campaign import RunTask, SchemeSpec, TopologySpec, execute_task
from repro.mac.batched import BatchedIdleSenseBank
from repro.sim.batched import make_batched_system, run_batched
from repro.sim.conflict import (
    BatchedConflictSimulator,
    run_conflict,
    stack_sensing_matrices,
)
from repro.topology.scenarios import (
    fully_connected_scenario,
    hidden_node_scenario,
    two_cluster_hidden_scenario,
)

#: The four paper schemes with the warm-up each needs before steady state.
PAPER_SCHEMES = [
    ("standard-802.11", {}, 0.3),
    ("idlesense", {}, 2.0),
    ("wtop-csma", {"update_period": 0.05}, 2.0),
    ("tora-csma", {"update_period": 0.05}, 2.0),
]


def _pair(phy, kind, params, topology, warmup, duration=1.0, **kwargs):
    """Run one cell on both backends; return (batched, event) results."""
    results = {}
    for simulator in ("batched", "event"):
        task = RunTask(
            scheme=SchemeSpec.make(kind, **params),
            topology=topology,
            seed=3,
            duration=duration,
            warmup=warmup,
            simulator=simulator,
            phy=phy,
            **kwargs,
        )
        results[simulator] = execute_task(task)
    return results["batched"], results["event"]


class TestCrossValidationAgainstEventDriven:
    """The fig4-fig7 envelope: same cells, same seeds, 8 % agreement.

    Collapsed cells (IdleSense with hidden nodes drops to a fraction of a
    Mbps — the paper's headline IdleSense failure) additionally get a
    1 Mbps absolute floor: at near-zero throughput the relative error is
    dominated by Poisson noise in a handful of successes, not by modelling
    differences.
    """

    @pytest.mark.parametrize("num_stations", [2, 8])
    @pytest.mark.parametrize("kind, params, warmup", PAPER_SCHEMES)
    def test_fig6_cells_agree(self, phy, kind, params, warmup, num_stations):
        topology = TopologySpec.hidden_disc(num_stations, 16.0, 11)
        batched, event = _pair(phy, kind, params, topology, warmup)
        assert batched.extra["simulator"] == "batched"
        assert batched.extra["hidden_pairs"] == event.extra["hidden_pairs"]
        assert batched.total_throughput_bps == pytest.approx(
            event.total_throughput_bps, rel=0.08, abs=1e6
        )

    @pytest.mark.parametrize("kind, params, warmup", PAPER_SCHEMES)
    def test_fig7_cells_agree(self, phy, kind, params, warmup):
        topology = TopologySpec.hidden_disc(8, 20.0, 12)
        batched, event = _pair(phy, kind, params, topology, warmup)
        assert batched.total_throughput_bps == pytest.approx(
            event.total_throughput_bps, rel=0.08, abs=1e6
        )

    @pytest.mark.parametrize("kind, params", [
        ("fixed-p", {"p": 0.02}),
        ("fixed-p", {"p": 0.1}),
        ("fixed-randomreset", {"stage": 0, "p0": 0.5}),
    ])
    def test_fig4_fig5_open_loop_cells_agree(self, phy, kind, params):
        topology = TopologySpec.hidden_disc(8, 16.0, 21)
        batched, event = _pair(phy, kind, params, topology, warmup=0.3)
        assert batched.total_throughput_bps == pytest.approx(
            event.total_throughput_bps, rel=0.08, abs=1e6
        )

    def test_frame_error_rate_cells_agree(self, phy):
        topology = TopologySpec.hidden_disc(6, 16.0, 31)
        batched, event = _pair(phy, "standard-802.11", {}, topology,
                               warmup=0.3, frame_error_rate=0.2)
        assert batched.total_throughput_bps == pytest.approx(
            event.total_throughput_bps, rel=0.1, abs=1e6
        )


class TestConnectedDegeneration:
    """An all-ones sensing matrix reproduces the connected-cell models."""

    @pytest.mark.parametrize("kind, params, warmup", [
        ("standard-802.11", {}, 0.3),
        ("fixed-p", {"p": 0.05}, 0.3),
        ("tora-csma", {"update_period": 0.05}, 2.0),
    ])
    def test_agrees_with_renewal_batched_backend(self, phy, kind, params,
                                                 warmup):
        n = 6
        graph = fully_connected_scenario(n)
        assert graph.sensing_matrix().all()
        [conflict] = run_conflict(kind, params, [graph], [7],
                                  duration=1.0, warmup=warmup, phy=phy)
        assert conflict.extra["hidden_pairs"] == 0
        [renewal] = run_batched(kind, params, [n], [7],
                                duration=1.0, warmup=warmup, phy=phy)
        assert conflict.total_throughput_bps == pytest.approx(
            renewal.total_throughput_bps, rel=0.1
        )


class TestHiddenPairSemantics:
    def test_hidden_pair_collides_instead_of_deferring(self, phy):
        """A mutually hidden p-persistent pair counts down through each
        other's frames and collides at the AP, while the same connected pair
        shares the channel — the defining hidden-node effect (and the reason
        the paper's Figure 5 favours exponential backoff there)."""
        hidden = two_cluster_hidden_scenario(1)
        assert len(hidden.hidden_pairs()) == 1
        [collided] = run_conflict("fixed-p", {"p": 0.05}, [hidden], [5],
                                  duration=0.5, phy=phy)
        connected = fully_connected_scenario(2)
        [shared] = run_conflict("fixed-p", {"p": 0.05}, [connected], [5],
                                duration=0.5, phy=phy)
        assert collided.total_failures > 2 * collided.total_successes
        assert shared.total_successes > 2 * shared.total_failures
        assert collided.total_throughput_bps < 0.5 * shared.total_throughput_bps

    def test_idlesense_hidden_cluster_livelock_pinned_seeds(self, phy):
        """The IdleSense hidden-pair livelock on the conflict backend, at
        the same documented known-good seeds as the event-driven test
        (tests/sim/test_simulation.py): seeds 1-8 all livelock — collision
        fraction 1.00, throughput <= 0.10 Mbps (verified 2026-08).  Pinned
        so a change to default seeding cannot flake the assertion."""
        seeds = [1, 5]
        hidden = two_cluster_hidden_scenario(3, separation=28.0, spread=0.5)
        results = run_conflict("idlesense", {}, [hidden] * len(seeds), seeds,
                               duration=1.0, warmup=1.0, phy=phy)
        for seed, result in zip(seeds, results):
            assert result.collision_fraction > 0.95, seed
            assert result.total_throughput_mbps < 1.0, seed

    def test_hidden_pair_count_reported_per_cell(self, phy):
        graphs = [
            two_cluster_hidden_scenario(2),
            fully_connected_scenario(3),
        ]
        results = run_conflict("standard-802.11", {}, graphs, [1, 2],
                               duration=0.2, phy=phy)
        assert results[0].extra["hidden_pairs"] == 4  # the cross pairs
        assert results[1].extra["hidden_pairs"] == 0


class TestCompositionIndependence:
    def test_mixed_topology_batch_equals_cells_alone(self, phy):
        rng = np.random.default_rng(0)
        graphs = [
            hidden_node_scenario(4, rng, radius=16.0, require_hidden_pairs=True),
            fully_connected_scenario(7),
            hidden_node_scenario(9, rng, radius=20.0),
        ]
        seeds = [11, 22, 33]
        batch = run_conflict("tora-csma", {"update_period": 0.05}, graphs,
                             seeds, duration=0.3, warmup=0.2, phy=phy)
        for graph, seed, together in zip(graphs, seeds, batch):
            [alone] = run_conflict("tora-csma", {"update_period": 0.05},
                                   [graph], [seed], duration=0.3, warmup=0.2,
                                   phy=phy)
            assert together == alone


class TestReportingAndValidation:
    def test_timeline_sampled_on_the_reporting_grid(self, phy):
        graph = two_cluster_hidden_scenario(2)
        [result] = run_conflict("wtop-csma", {"update_period": 0.05}, [graph],
                                [3], duration=1.0, warmup=0.5, phy=phy,
                                report_interval=0.25)
        times = [t for t, _ in result.throughput_timeline]
        assert times == pytest.approx([0.75, 1.0, 1.25, 1.5])
        assert len(result.control_timeline) == len(times)

    def test_frame_errors_cost_throughput(self, phy):
        graph = fully_connected_scenario(1)
        [clean] = run_conflict("standard-802.11", {}, [graph], [1],
                               duration=0.5, phy=phy)
        [noisy] = run_conflict("standard-802.11", {}, [graph], [1],
                               duration=0.5, phy=phy, frame_error_rate=0.5)
        assert clean.total_failures == 0
        assert noisy.total_failures > 0
        assert noisy.total_successes < 0.75 * clean.total_successes

    def test_asymmetric_sensing_matrix_rejected(self, phy):
        sensing = np.ones((1, 2, 2), dtype=bool)
        sensing[0, 0, 1] = False
        bank, controller, _ = make_batched_system(
            "standard-802.11", {}, 1, 2, phy, station_observations=True
        )
        with pytest.raises(ValueError, match="symmetric"):
            BatchedConflictSimulator(bank, controller, sensing, [2], [1],
                                     duration=0.1, phy=phy)

    def test_per_cell_observing_bank_rejected(self, phy):
        """A per-cell IdleSense bank assumes a fully connected cell."""
        bank = BatchedIdleSenseBank(phy, 1)
        _, controller, _ = make_batched_system(
            "standard-802.11", {}, 1, 2, phy
        )
        sensing = stack_sensing_matrices(
            [fully_connected_scenario(2).sensing_matrix()]
        )
        with pytest.raises(ValueError, match="per-station"):
            BatchedConflictSimulator(bank, controller, sensing, [2], [1],
                                     duration=0.1, phy=phy)

    def test_observing_bank_width_must_match_sensing(self, phy):
        """Observations address stations by flat index, so widths agree."""
        bank, controller, _ = make_batched_system(
            "idlesense", {}, 1, 3, phy, station_observations=True
        )
        sensing = stack_sensing_matrices(
            [fully_connected_scenario(2).sensing_matrix()]
        )
        with pytest.raises(ValueError, match="shape must match"):
            BatchedConflictSimulator(bank, controller, sensing, [2], [1],
                                     duration=0.1, phy=phy)

    def test_padding_region_must_be_false(self, phy):
        sensing = np.ones((1, 4, 4), dtype=bool)
        bank, controller, _ = make_batched_system(
            "standard-802.11", {}, 1, 4, phy
        )
        with pytest.raises(ValueError, match="station count"):
            BatchedConflictSimulator(bank, controller, sensing, [2], [1],
                                     duration=0.1, phy=phy)

    def test_stack_sensing_matrices_pads_with_false(self):
        a = np.ones((2, 2), dtype=bool)
        b = np.ones((3, 3), dtype=bool)
        stacked = stack_sensing_matrices([a, b])
        assert stacked.shape == (2, 3, 3)
        assert not stacked[0, 2, :].any() and not stacked[0, :, 2].any()
        assert stacked[1].all()
