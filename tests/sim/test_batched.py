"""Tests for the vectorized batched slotted simulator.

The load-bearing guarantees:

* per-cell results are bit-identical whether a cell runs alone or inside any
  batch (composition independence — the planner relies on it);
* batched results agree statistically with the scalar slotted simulator for
  all four paper schemes (they share the renewal model but consume their
  random streams in a different order);
* the batched simulator honours frame errors, activity schedules (including
  population changes during the warm-up) and timeline sampling exactly like
  the scalar simulator does.
"""

import numpy as np
import pytest

from repro.analysis.persistent import system_throughput_weighted
from repro.mac.schemes import (
    fixed_p_persistent_scheme,
    standard_80211_scheme,
)
from repro.sim.batched import (
    BATCHABLE_SCHEME_KINDS,
    CellStreams,
    batchable_scheme,
    run_batched,
)
from repro.sim.slotted import run_slotted

#: The four paper schemes with the warm-up each needs before steady state.
PAPER_SCHEMES = [
    ("standard-802.11", {}, 0.3),
    ("idlesense", {}, 2.0),
    ("wtop-csma", {"update_period": 0.05}, 2.0),
    ("tora-csma", {"update_period": 0.05}, 2.0),
]


def _scalar_scheme(kind, params, phy):
    from repro.experiments.campaign import SchemeSpec

    return SchemeSpec.make(kind, **params).build(phy)


class TestCrossValidationAgainstSlotted:
    @pytest.mark.parametrize("num_stations", [2, 8])
    @pytest.mark.parametrize("kind, params, warmup", PAPER_SCHEMES)
    def test_paper_schemes_match_slotted(self, phy, kind, params, warmup,
                                         num_stations):
        """Seeded sweep over all four schemes at N in {2, 8}.

        The two simulators draw identically distributed randomness through
        different stream orders, so this is a statistical comparison: the
        8% band matches the slotted-vs-event cross-validation tolerance.
        """
        slotted = run_slotted(
            _scalar_scheme(kind, params, phy), num_stations,
            duration=1.0, warmup=warmup, phy=phy, seed=3,
        )
        [batched] = run_batched(
            kind, params, [num_stations], [3],
            duration=1.0, warmup=warmup, phy=phy,
        )
        assert batched.total_throughput_bps == pytest.approx(
            slotted.total_throughput_bps, rel=0.08
        )

    def test_fixed_p_matches_eq3_and_slotted(self, phy):
        n, p = 10, 0.02
        analytic = system_throughput_weighted(p, [1.0] * n, phy)
        slotted = run_slotted(fixed_p_persistent_scheme(p), n,
                              duration=1.0, warmup=0.2, phy=phy, seed=4)
        [batched] = run_batched("fixed-p", {"p": p}, [n], [4],
                                duration=1.0, warmup=0.2, phy=phy)
        assert batched.total_throughput_bps == pytest.approx(analytic, rel=0.10)
        assert batched.total_throughput_bps == pytest.approx(
            slotted.total_throughput_bps, rel=0.10
        )

    def test_fixed_randomreset_matches_slotted(self, phy):
        from repro.mac.schemes import fixed_randomreset_scheme

        slotted = run_slotted(fixed_randomreset_scheme(1, 0.5, phy), 10,
                              duration=1.0, warmup=0.2, phy=phy, seed=5)
        [batched] = run_batched("fixed-randomreset", {"stage": 1, "p0": 0.5},
                                [10], [5], duration=1.0, warmup=0.2, phy=phy)
        assert batched.total_throughput_bps == pytest.approx(
            slotted.total_throughput_bps, rel=0.10
        )

    def test_per_station_fairness(self, phy):
        # Long-term fairness check on the memoryless policy (DCF's capture
        # effect makes it short-term unfair by design, as in the scalar
        # simulator's fairness test).
        [result] = run_batched("fixed-p", {"p": 0.03}, [8], [6], duration=1.5,
                               warmup=0.2, phy=phy)
        throughputs = result.per_station_throughput_bps
        mean = sum(throughputs) / len(throughputs)
        assert all(abs(t - mean) / mean < 0.35 for t in throughputs)


class TestCompositionIndependence:
    @pytest.mark.parametrize("kind, params, warmup", PAPER_SCHEMES)
    def test_cell_results_do_not_depend_on_batch_neighbours(self, phy, kind,
                                                            params, warmup):
        [alone] = run_batched(kind, params, [8], [42], duration=0.4,
                              warmup=warmup, phy=phy)
        batch = run_batched(kind, params, [20, 8, 3], [7, 42, 9],
                            duration=0.4, warmup=warmup, phy=phy)
        assert batch[1] == alone

    def test_batch_is_deterministic(self, phy):
        first = run_batched("wtop-csma", {"update_period": 0.05}, [5, 10],
                            [1, 2], duration=0.4, warmup=0.5, phy=phy)
        second = run_batched("wtop-csma", {"update_period": 0.05}, [5, 10],
                            [1, 2], duration=0.4, warmup=0.5, phy=phy)
        assert first == second

    def test_different_seeds_differ(self, phy):
        a, b = run_batched("standard-802.11", {}, [10, 10], [1, 2],
                           duration=0.4, warmup=0.1, phy=phy)
        assert a.total_throughput_bps != b.total_throughput_bps

    def test_large_cells_independent_of_wider_neighbours(self, phy):
        """Regression: stream block sizes must derive from each cell's own
        station count, not the batch-wide padded width — otherwise refill
        points (and results) shift when a wider cell joins the batch."""
        [alone] = run_batched("standard-802.11", {}, [600], [7],
                              duration=0.2, warmup=0.0, phy=phy)
        batch = run_batched("standard-802.11", {}, [1200, 600], [1, 7],
                            duration=0.2, warmup=0.0, phy=phy)
        assert batch[1] == alone

    def test_multi_draw_cells_independent_of_wider_neighbours(self, phy):
        # Same regression for a 3-draw scheme, whose blocks outgrow the
        # 4096 floor at a much smaller station count.
        [alone] = run_batched("fixed-randomreset", {"stage": 0, "p0": 0.5},
                              [200], [7], duration=0.2, warmup=0.0, phy=phy)
        batch = run_batched("fixed-randomreset", {"stage": 0, "p0": 0.5},
                            [400, 200], [1, 7], duration=0.2, warmup=0.0,
                            phy=phy)
        assert batch[1] == alone


class TestMechanics:
    def test_single_station_never_collides(self, phy):
        [result] = run_batched("standard-802.11", {}, [1], [3],
                               duration=0.4, warmup=0.0, phy=phy)
        assert result.total_failures == 0
        assert result.total_successes > 0

    def test_metrics_exclude_warmup(self, phy):
        [warm] = run_batched("standard-802.11", {}, [10], [5],
                             duration=0.5, warmup=1.0, phy=phy)
        [cold] = run_batched("standard-802.11", {}, [10], [5],
                             duration=0.5, warmup=0.0, phy=phy)
        assert warm.total_throughput_bps == pytest.approx(
            cold.total_throughput_bps, rel=0.15
        )

    def test_frame_errors_reduce_throughput_and_count_as_failures(self, phy):
        [clean] = run_batched("fixed-p", {"p": 0.05}, [5], [7],
                              duration=0.8, warmup=0.1, phy=phy)
        [noisy] = run_batched("fixed-p", {"p": 0.05}, [5], [7],
                              duration=0.8, warmup=0.1, phy=phy,
                              frame_error_rate=0.3)
        assert noisy.total_throughput_bps < clean.total_throughput_bps
        assert noisy.total_failures > clean.total_failures

    def test_result_metadata(self, phy):
        [result] = run_batched("idlesense", {}, [6], [1], duration=0.5,
                               warmup=0.4, phy=phy)
        assert result.extra["simulator"] == "batched"
        assert result.extra["num_stations"] == 6
        assert result.extra["warmup"] == 0.4
        assert result.extra["scheme"] == "IdleSense"
        assert result.extra["station_observed_idle"] > 0
        assert result.num_stations == 6

    def test_idle_slot_accounting_positive(self, phy):
        [result] = run_batched("standard-802.11", {}, [10], [2],
                               duration=0.5, warmup=0.0, phy=phy)
        assert result.idle_slots > 0
        assert result.busy_periods > 0
        assert result.average_idle_slots_per_transmission > 0

    def test_heterogeneous_station_counts_padded_correctly(self, phy):
        results = run_batched("standard-802.11", {}, [3, 12], [1, 1],
                              duration=0.5, warmup=0.1, phy=phy)
        assert results[0].num_stations == 3
        assert results[1].num_stations == 12
        # No phantom traffic from padded stations.
        assert all(s.successes >= 0 for s in results[1].station_stats)
        assert results[0].total_successes > 0

    def test_rejects_invalid_arguments(self, phy):
        with pytest.raises(ValueError):
            run_batched("standard-802.11", {}, [5], [1], duration=0.0, phy=phy)
        with pytest.raises(ValueError):
            run_batched("standard-802.11", {}, [5], [1], duration=1.0,
                        warmup=-0.1, phy=phy)
        with pytest.raises(ValueError):
            run_batched("standard-802.11", {}, [5], [1, 2], duration=1.0,
                        phy=phy)
        with pytest.raises(ValueError):
            run_batched("standard-802.11", {}, [0], [1], duration=1.0, phy=phy)
        with pytest.raises(ValueError):
            run_batched("standard-802.11", {}, [5], [1], duration=1.0,
                        frame_error_rate=1.0, phy=phy)

    def test_unknown_scheme_kind_rejected(self, phy):
        with pytest.raises(ValueError):
            run_batched("n-estimating", {}, [5], [1], duration=1.0, phy=phy)

    def test_batchable_scheme_vocabulary(self):
        assert "standard-802.11" in BATCHABLE_SCHEME_KINDS
        assert batchable_scheme("wtop-csma")
        assert not batchable_scheme("n-estimating")
        assert not batchable_scheme("carrier-pigeon")


class TestDynamicActivity:
    def test_only_active_stations_get_throughput(self, phy):
        [result] = run_batched(
            "standard-802.11", {}, [4], [3], duration=1.0, warmup=0.0,
            phy=phy, activity=_schedule([(0.0, 2), (0.5, 4)]),
        )
        first_two = sum(s.payload_bits for s in result.station_stats[:2])
        last_two = sum(s.payload_bits for s in result.station_stats[2:])
        assert first_two > last_two > 0

    def test_population_change_during_warmup(self, phy):
        """Satellite case: the schedule steps while metrics are discarded.

        Stations that join mid-warmup must contend (and be measured) after
        the boundary, and a population that shrinks back before measurement
        must leave the silent stations without recorded traffic.
        """
        [grew] = run_batched(
            "standard-802.11", {}, [6], [3], duration=1.0, warmup=0.5,
            phy=phy, activity=_schedule([(0.0, 2), (0.25, 6)]),
        )
        # All six stations were active for the whole measured window.
        assert all(s.successes > 0 for s in grew.station_stats)

        [shrank] = run_batched(
            "standard-802.11", {}, [6], [3], duration=1.0, warmup=0.5,
            phy=phy, activity=_schedule([(0.0, 6), (0.25, 2)]),
        )
        assert all(s.successes > 0 for s in shrank.station_stats[:2])
        assert all(s.payload_bits == 0 for s in shrank.station_stats[2:])

    def test_mid_warmup_change_matches_slotted(self, phy):
        schedule = [(0.0, 2), (0.3, 8)]
        slotted = run_slotted(
            standard_80211_scheme(phy), 8, duration=1.0, warmup=0.6,
            phy=phy, seed=3, activity=_schedule(schedule),
        )
        [batched] = run_batched(
            "standard-802.11", {}, [8], [3], duration=1.0, warmup=0.6,
            phy=phy, activity=_schedule(schedule),
        )
        assert batched.total_throughput_bps == pytest.approx(
            slotted.total_throughput_bps, rel=0.10
        )

    def test_schedule_larger_than_stations_rejected(self, phy):
        with pytest.raises(ValueError):
            run_batched("standard-802.11", {}, [3], [1], duration=1.0,
                        phy=phy, activity=_schedule([(0.0, 5)]))

    def test_cells_cross_breakpoints_at_their_own_pace(self, phy):
        """Cells reach breakpoint times at different wall clocks; the batch
        must apply each cell's change when *its* clock crosses it."""
        schedule = _schedule([(0.0, 2), (0.4, 5)])
        batch = run_batched("standard-802.11", {}, [5, 5], [1, 2],
                            duration=1.0, warmup=0.0, phy=phy,
                            activity=schedule)
        for result in batch:
            assert all(s.successes > 0 for s in result.station_stats)


class TestTimelineSampling:
    def test_sample_grid_matches_slotted(self, phy):
        duration, warmup, interval = 1.0, 0.4, 0.1
        slotted = run_slotted(
            standard_80211_scheme(phy), 6, duration=duration, warmup=warmup,
            phy=phy, seed=2, report_interval=interval,
        )
        [batched] = run_batched(
            "standard-802.11", {}, [6], [2], duration=duration, warmup=warmup,
            phy=phy, report_interval=interval,
        )
        assert len(batched.throughput_timeline) == len(slotted.throughput_timeline)
        for (bt, _), (st, _) in zip(batched.throughput_timeline,
                                    slotted.throughput_timeline):
            assert bt == pytest.approx(st, abs=2 * phy.ts)

    def test_control_timeline_present_for_adaptive_schemes(self, phy):
        [wtop] = run_batched(
            "wtop-csma", {"update_period": 0.05}, [6], [2],
            duration=0.6, warmup=0.2, phy=phy, report_interval=0.1,
        )
        assert len(wtop.control_timeline) == len(wtop.throughput_timeline)
        assert all(0.0 < p <= 0.9 for _, p in wtop.control_timeline)

        [dcf] = run_batched(
            "standard-802.11", {}, [6], [2],
            duration=0.6, warmup=0.2, phy=phy, report_interval=0.1,
        )
        assert dcf.control_timeline == ()
        assert len(dcf.throughput_timeline) > 0

    def test_timeline_sums_to_total_throughput(self, phy):
        [result] = run_batched(
            "standard-802.11", {}, [6], [2], duration=1.0, warmup=0.0,
            phy=phy, report_interval=0.25,
        )
        sampled_bits = sum(v * 0.25 for _, v in result.throughput_timeline)
        total_bits = result.total_throughput_bps * result.duration
        assert sampled_bits == pytest.approx(total_bits, rel=0.3)


class TestCellStreams:
    def test_claims_are_per_cell_independent(self):
        a = CellStreams([1, 2], block=64)
        b = CellStreams([1], block=64)
        counts_a = np.array([3, 5], dtype=np.int64)
        base_a = a.claim(counts_a)
        base_b = b.claim(np.array([3], dtype=np.int64))
        assert np.allclose(
            a.gather(np.array([0, 0, 0]), base_a[0] + np.arange(3), 1)[:, 0],
            b.gather(np.array([0, 0, 0]), base_b[0] + np.arange(3), 1)[:, 0],
        )

    def test_refill_depends_only_on_own_consumption(self):
        heavy = CellStreams([7, 8], block=16)
        light = CellStreams([7], block=16)
        # Drain cell 0 identically in both; cell 1's draws must not matter.
        for counts_heavy, counts_light in [
            (np.array([10, 3]), np.array([10])),
            (np.array([10, 14]), np.array([10])),  # both refill cell 0
            (np.array([5, 2]), np.array([5])),
        ]:
            base_h = heavy.claim(counts_heavy.astype(np.int64))
            base_l = light.claim(counts_light.astype(np.int64))
            n = counts_light[0]
            got_h = heavy.gather(np.zeros(n, dtype=int),
                                 base_h[0] + np.arange(n), 1)
            got_l = light.gather(np.zeros(n, dtype=int),
                                 base_l[0] + np.arange(n), 1)
            assert np.array_equal(got_h, got_l)

    def test_oversized_claim_rejected(self):
        streams = CellStreams([1], block=8)
        with pytest.raises(ValueError):
            streams.claim(np.array([9], dtype=np.int64))
        # A rejected claim leaves every stream unchanged, including cell 0,
        # which would refill before cell 1's oversized count is seen.
        streams = CellStreams([1, 2], block=8)
        streams.claim(np.array([6, 1], dtype=np.int64))
        buffer = streams.buffer.copy()
        with pytest.raises(ValueError):
            streams.claim(np.array([4, 9], dtype=np.int64))
        assert np.array_equal(streams.buffer, buffer)
        # A zero claim reports the positions the rejected claim found.
        assert streams.claim(np.zeros(2, dtype=np.int64)).tolist() == [6, 1]


def _schedule(steps):
    from repro.sim.dynamics import step_activity

    return step_activity(steps)
