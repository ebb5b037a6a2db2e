"""Tests for the slotted (fully connected) simulator."""

import numpy as np
import pytest

from repro.analysis.bianchi import dcf_saturation_throughput
from repro.analysis.persistent import (
    optimal_attempt_probability,
    system_throughput_weighted,
)
from repro.core.controller import AccessPointController
from repro.mac.schemes import (
    Scheme,
    fixed_p_persistent_scheme,
    idlesense_scheme,
    standard_80211_scheme,
    tora_csma_scheme,
    wtop_csma_scheme,
)
from repro.phy.constants import PhyParameters
from repro.sim.dynamics import step_activity
from repro.sim.slotted import SlottedSimulator, run_slotted


class TestAgainstAnalyticalModels:
    def test_standard_80211_matches_bianchi(self, phy):
        for n in (5, 20):
            result = run_slotted(
                standard_80211_scheme(phy), num_stations=n,
                duration=1.5, warmup=0.3, phy=phy, seed=1,
            )
            expected = dcf_saturation_throughput(n, phy)
            assert result.total_throughput_bps == pytest.approx(expected, rel=0.08)

    def test_p_persistent_matches_eq3(self, phy):
        n, p = 15, 0.02
        result = run_slotted(
            fixed_p_persistent_scheme(p), num_stations=n,
            duration=1.5, warmup=0.3, phy=phy, seed=2,
        )
        expected = system_throughput_weighted(p, [1.0] * n, phy)
        assert result.total_throughput_bps == pytest.approx(expected, rel=0.08)

    def test_throughput_unimodal_in_p(self, phy):
        # Coarse simulated version of Figure 2's bell shape.
        n = 20
        ps = [0.001, 0.005, 0.02, 0.1, 0.4]
        values = [
            run_slotted(fixed_p_persistent_scheme(p), num_stations=n,
                        duration=0.6, warmup=0.2, phy=phy, seed=3).total_throughput_bps
            for p in ps
        ]
        peak = int(np.argmax(values))
        assert 0 < peak < len(ps) - 1
        assert values[peak] > values[0] and values[peak] > values[-1]

    def test_optimal_p_beats_standard_80211(self, phy):
        n = 40
        p_star = optimal_attempt_probability(n, phy)
        optimal = run_slotted(fixed_p_persistent_scheme(p_star), num_stations=n,
                              duration=1.0, warmup=0.3, phy=phy, seed=4)
        standard = run_slotted(standard_80211_scheme(phy), num_stations=n,
                               duration=1.0, warmup=0.3, phy=phy, seed=4)
        assert optimal.total_throughput_bps > standard.total_throughput_bps


class TestMechanics:
    def test_reproducible_with_same_seed(self, phy):
        a = run_slotted(standard_80211_scheme(phy), 10, duration=0.5, warmup=0.1,
                        phy=phy, seed=7)
        b = run_slotted(standard_80211_scheme(phy), 10, duration=0.5, warmup=0.1,
                        phy=phy, seed=7)
        assert a.total_throughput_bps == b.total_throughput_bps
        assert a.per_station_throughput_bps == b.per_station_throughput_bps

    def test_different_seeds_differ(self, phy):
        a = run_slotted(standard_80211_scheme(phy), 10, duration=0.5, phy=phy, seed=1)
        b = run_slotted(standard_80211_scheme(phy), 10, duration=0.5, phy=phy, seed=2)
        assert a.total_throughput_bps != b.total_throughput_bps

    def test_single_station_never_collides(self, phy):
        result = run_slotted(standard_80211_scheme(phy), 1, duration=0.5, phy=phy, seed=1)
        assert result.total_failures == 0
        assert result.total_throughput_bps > 0

    def test_metrics_exclude_warmup(self, phy):
        long_warmup = run_slotted(standard_80211_scheme(phy), 10,
                                  duration=0.5, warmup=1.0, phy=phy, seed=5)
        # Throughput is a rate, so it should be in the same ballpark with and
        # without warm-up, not double.
        no_warmup = run_slotted(standard_80211_scheme(phy), 10,
                                duration=0.5, warmup=0.0, phy=phy, seed=5)
        assert long_warmup.total_throughput_bps == pytest.approx(
            no_warmup.total_throughput_bps, rel=0.15
        )

    def test_result_metadata(self, phy):
        result = run_slotted(standard_80211_scheme(phy), 5, duration=0.2, phy=phy, seed=1)
        assert result.extra["simulator"] == "slotted"
        assert result.extra["num_stations"] == 5
        assert result.duration == pytest.approx(0.2)

    def test_idle_slot_accounting_positive(self, phy):
        result = run_slotted(standard_80211_scheme(phy), 5, duration=0.3, phy=phy, seed=1)
        assert result.idle_slots > 0
        assert result.busy_periods > 0

    def test_rejects_invalid_arguments(self, phy):
        simulator = SlottedSimulator(standard_80211_scheme(phy), num_stations=3, phy=phy)
        with pytest.raises(ValueError):
            simulator.run(duration=0.0)
        with pytest.raises(ValueError):
            simulator.run(duration=1.0, warmup=-1.0)
        with pytest.raises(ValueError):
            SlottedSimulator(standard_80211_scheme(phy))
        with pytest.raises(ValueError):
            SlottedSimulator(standard_80211_scheme(phy), num_stations=3,
                             report_interval=0.0)

    @pytest.mark.parametrize("bad_interval", [0.0, -0.25])
    def test_report_interval_must_be_positive(self, phy, bad_interval):
        with pytest.raises(ValueError):
            SlottedSimulator(standard_80211_scheme(phy), num_stations=3,
                             phy=phy, report_interval=bad_interval)

    @pytest.mark.parametrize("bad_rate", [-0.1, 1.0, 1.5])
    def test_frame_error_rate_bounds_rejected(self, phy, bad_rate):
        with pytest.raises(ValueError):
            SlottedSimulator(standard_80211_scheme(phy), num_stations=3,
                             phy=phy, frame_error_rate=bad_rate)

    def test_frame_error_rate_boundaries_accepted(self, phy):
        # 0.0 (no channel errors) is valid; rates just below 1.0 are valid
        # but catastrophic for throughput.
        for rate in (0.0, 0.99):
            SlottedSimulator(standard_80211_scheme(phy), num_stations=3,
                             phy=phy, frame_error_rate=rate)

    def test_frame_errors_reduce_throughput_and_count_as_failures(self, phy):
        clean = run_slotted(standard_80211_scheme(phy), 1, duration=0.5,
                            phy=phy, seed=9)
        noisy = run_slotted(standard_80211_scheme(phy), 1, duration=0.5,
                            phy=phy, seed=9, frame_error_rate=0.4)
        assert noisy.total_throughput_bps < clean.total_throughput_bps
        # A single station never collides, so every failure is a channel error.
        assert clean.total_failures == 0
        assert noisy.total_failures > 0


class TestDynamicActivity:
    def test_only_active_stations_get_throughput(self, phy):
        schedule = step_activity([(0.0, 2), (0.5, 4)])
        simulator = SlottedSimulator(
            standard_80211_scheme(phy), activity=schedule, phy=phy, seed=3
        )
        result = simulator.run(duration=1.0)
        # Stations 2 and 3 joined halfway: they must have received service
        # after joining but strictly less than stations 0 and 1 overall.
        assert result.station_stats[2].successes > 0
        assert result.station_stats[0].payload_bits > result.station_stats[2].payload_bits

    def test_timeline_sampling(self, phy):
        simulator = SlottedSimulator(
            wtop_csma_scheme(phy, update_period=0.05), num_stations=5, phy=phy,
            seed=1, report_interval=0.1,
        )
        result = simulator.run(duration=1.0)
        assert len(result.throughput_timeline) >= 8
        assert len(result.control_timeline) >= 8
        times = [t for t, _ in result.throughput_timeline]
        assert times == sorted(times)

    def test_activity_schedule_larger_than_stations_rejected(self, phy):
        schedule = step_activity([(0.0, 5)])
        with pytest.raises(ValueError):
            SlottedSimulator(standard_80211_scheme(phy), num_stations=3,
                             phy=phy, activity=schedule)

    def test_population_grows_during_warmup(self, phy):
        # The schedule steps while metrics are still being discarded; every
        # station active by the warmup boundary must show measured traffic.
        schedule = step_activity([(0.0, 2), (0.25, 6)])
        simulator = SlottedSimulator(
            standard_80211_scheme(phy), activity=schedule, phy=phy, seed=3
        )
        result = simulator.run(duration=1.0, warmup=0.5)
        assert all(s.successes > 0 for s in result.station_stats)

    def test_population_shrinks_during_warmup(self, phy):
        # Stations deactivated before measurement starts must record nothing.
        schedule = step_activity([(0.0, 6), (0.25, 2)])
        simulator = SlottedSimulator(
            standard_80211_scheme(phy), activity=schedule, phy=phy, seed=3
        )
        result = simulator.run(duration=1.0, warmup=0.5)
        assert all(s.successes > 0 for s in result.station_stats[:2])
        assert all(s.payload_bits == 0 for s in result.station_stats[2:])

    def test_joining_station_applies_current_control_values(self, phy):
        # A station activated by the schedule must pick up the controller's
        # *current* advertised control (and a fresh backoff) at the moment it
        # joins — stations that have not joined keep their defaults.
        scheme = wtop_csma_scheme(phy, update_period=50.0, initial_station_p=0.1)
        schedule = step_activity([(0.0, 2), (0.3, 3)])
        simulator = SlottedSimulator(
            scheme, activity=schedule, phy=phy, seed=4
        )
        advertised = simulator.controller.control()["p"]
        assert advertised != pytest.approx(0.1)
        counters = np.zeros(3, dtype=np.int64)
        simulator._handle_activity_change(2, 3, counters)
        assert simulator.policies[2].base_probability == pytest.approx(advertised)
        # Stations that did not join keep the default initial probability.
        assert simulator.policies[0].base_probability == pytest.approx(0.1)
        assert counters[2] >= 0

    def test_joining_station_tracks_controller_end_to_end(self, phy):
        # Whether it learns control from a broadcast ACK or at join time,
        # the late joiner must end the run on the controller's advertised
        # probability, not its construction default.
        scheme = wtop_csma_scheme(phy, update_period=50.0, initial_station_p=0.1)
        schedule = step_activity([(0.0, 2), (0.3, 3)])
        simulator = SlottedSimulator(
            scheme, activity=schedule, phy=phy, seed=4
        )
        simulator.run(duration=0.6)
        advertised = simulator.controller.control()["p"]
        assert simulator.policies[2].base_probability == pytest.approx(advertised)
        assert simulator.policies[2].base_probability != pytest.approx(0.1)

    def test_report_samples_cover_interval_straddling_warmup_end(self, phy):
        # Regression: the report countdown used to restart from the full
        # interval at every sample (and at the warmup boundary), so sample
        # times drifted late by one busy slot per sample and the final
        # samples of the run were silently dropped.
        cases = [(0.5, 0.2, 1.0), (0.35, 0.25, 1.0), (0.0, 0.25, 1.0)]
        for warmup, interval, duration in cases:
            result = run_slotted(
                standard_80211_scheme(phy), 10, duration=duration,
                warmup=warmup, phy=phy, seed=1, report_interval=interval,
            )
            times = [t for t, _ in result.throughput_timeline]
            expected = int(duration / interval + 1e-9)
            assert len(times) == expected, (warmup, interval, times)
            # Samples stay anchored to the warmup + k * interval grid
            # (within one busy-slot duration Ts of each grid point).
            for k, time_s in enumerate(times, start=1):
                grid_point = warmup + k * interval
                assert grid_point <= time_s <= grid_point + phy.ts + phy.slot_time


class TestControllerIntegration:
    def test_wtop_controller_receives_updates(self, phy):
        simulator = SlottedSimulator(
            wtop_csma_scheme(phy, update_period=0.02), num_stations=10, phy=phy, seed=1
        )
        simulator.run(duration=1.0)
        assert simulator.controller.updates > 5

    def test_station_policies_follow_advertised_p(self, phy):
        simulator = SlottedSimulator(
            wtop_csma_scheme(phy, update_period=0.02), num_stations=10, phy=phy, seed=1
        )
        simulator.run(duration=0.5)
        advertised = simulator.controller.control()["p"]
        for policy in simulator.policies:
            assert policy.base_probability == pytest.approx(advertised)

    def test_station_policies_follow_advertised_reset(self, phy):
        simulator = SlottedSimulator(
            tora_csma_scheme(phy, update_period=0.02), num_stations=10, phy=phy, seed=1
        )
        simulator.run(duration=0.5)
        advertised = simulator.controller.control()
        for policy in simulator.policies:
            assert policy.reset_probability == advertised["p0"]
            assert policy.reset_stage == int(advertised["stage"])

    def test_idlesense_achieves_target_idle_slots(self, phy):
        result = run_slotted(idlesense_scheme(phy), num_stations=20,
                             duration=1.5, warmup=1.5, phy=phy, seed=1)
        assert result.average_idle_slots_per_transmission == pytest.approx(3.1, rel=0.35)

    def test_starved_controller_recovers_via_ticks(self, phy):
        # Start wTOP from a absurdly aggressive probability: with 20 stations
        # the channel is jammed by collisions, so only the tick path can close
        # segments and move the probe away.  Throughput must become non-zero.
        scheme = wtop_csma_scheme(phy, update_period=0.02, initial_control=1.0)
        result = run_slotted(scheme, num_stations=20, duration=1.0, warmup=4.0,
                             phy=phy, seed=2)
        assert result.total_throughput_mbps > 5.0
