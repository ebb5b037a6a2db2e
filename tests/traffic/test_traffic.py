"""Unit tests for the traffic subsystem (repro.traffic)."""

import json
import math

import numpy as np
import pytest

from repro.phy.constants import PhyParameters
from repro.traffic import (
    ArrivalProcess,
    ArrivalStream,
    BatchedArrivals,
    FrameQueue,
    TRAFFIC_KINDS,
    saturation_frame_rate,
    station_arrival_rng,
)


class TestArrivalProcess:
    def test_saturated_carries_no_parameters(self):
        spec = ArrivalProcess.saturated()
        assert spec.is_saturated
        assert spec.mean_rate_fps == math.inf
        assert spec.to_json() == {"kind": "saturated"}

    def test_poisson_and_cbr_mean_rate(self):
        assert ArrivalProcess.poisson(120.0).mean_rate_fps == 120.0
        assert ArrivalProcess.cbr(80.0).mean_rate_fps == 80.0

    def test_on_off_mean_rate_scales_with_duty_cycle(self):
        spec = ArrivalProcess.on_off(100.0, on_mean_s=0.1, off_mean_s=0.3)
        assert spec.mean_rate_fps == pytest.approx(25.0)

    def test_to_json_tells_every_workload_apart(self):
        """``to_json`` feeds the task key, so two different workloads must
        never share a payload (and with it a cache entry)."""
        workloads = [
            ArrivalProcess.saturated(),
            ArrivalProcess.saturated(retry_limit=7),
            ArrivalProcess.poisson(50.0),
            ArrivalProcess.poisson(60.0),
            ArrivalProcess.poisson(50.0, queue_limit=7),
            ArrivalProcess.poisson(50.0, retry_limit=7),
            ArrivalProcess.poisson(50.0, downlink=True),
            ArrivalProcess.cbr(50.0),
            ArrivalProcess.cbr(50.0, retry_limit=3, downlink=True),
            ArrivalProcess.on_off(50.0, on_mean_s=0.2, off_mean_s=0.1),
            ArrivalProcess.on_off(50.0, on_mean_s=0.1, off_mean_s=0.2),
            ArrivalProcess.on_off(50.0, on_mean_s=0.2, off_mean_s=0.1,
                                  downlink=True),
            ArrivalProcess.window_limited(4),
            ArrivalProcess.window_limited(8),
            ArrivalProcess.window_limited(4, flow_frames=200),
            ArrivalProcess.window_limited(4, queue_limit=16),
            ArrivalProcess.window_limited(4, retry_limit=7),
            ArrivalProcess.incast(32, 0.25),
            ArrivalProcess.incast(16, 0.25),
            ArrivalProcess.incast(32, 0.5),
            ArrivalProcess.incast(32, 0.25, queue_limit=8),
            ArrivalProcess.incast(32, 0.25, retry_limit=7),
        ]
        assert {w.kind for w in workloads} == set(TRAFFIC_KINDS)
        assert len(set(workloads)) == len(workloads)
        payloads = {json.dumps(w.to_json(), sort_keys=True) for w in workloads}
        assert len(payloads) == len(workloads)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalProcess(kind="bogus")
        with pytest.raises(ValueError):
            ArrivalProcess.poisson(0.0)
        with pytest.raises(ValueError):
            ArrivalProcess.poisson(10.0, queue_limit=0)
        with pytest.raises(ValueError):
            ArrivalProcess.on_off(10.0, on_mean_s=0.0, off_mean_s=0.1)
        with pytest.raises(ValueError):
            # on/off durations are exclusive to the on-off kind
            ArrivalProcess(kind="poisson", rate_fps=1.0, on_mean_s=0.1)

    def test_saturation_frame_rate_is_service_capacity(self, phy):
        assert saturation_frame_rate(phy) == pytest.approx(1.0 / phy.ts)


class TestArrivalStream:
    @pytest.mark.parametrize("spec", [
        ArrivalProcess.poisson(200.0),
        ArrivalProcess.cbr(200.0),
        ArrivalProcess.on_off(400.0, on_mean_s=0.05, off_mean_s=0.05),
    ])
    def test_times_are_strictly_increasing(self, spec):
        stream = ArrivalStream(spec, np.random.default_rng(7))
        times = [stream.advance() for _ in range(500)]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0.0

    @pytest.mark.parametrize("spec", [
        ArrivalProcess.poisson(500.0),
        ArrivalProcess.cbr(500.0),
        ArrivalProcess.on_off(1000.0, on_mean_s=0.05, off_mean_s=0.05),
    ])
    def test_long_run_rate_matches_mean(self, spec):
        stream = ArrivalStream(spec, np.random.default_rng(11))
        count = 4000
        last = [stream.advance() for _ in range(count)][-1]
        assert count / last == pytest.approx(spec.mean_rate_fps, rel=0.10)

    def test_saturated_has_no_stream(self):
        with pytest.raises(ValueError):
            ArrivalStream(ArrivalProcess.saturated(), np.random.default_rng(0))

    def test_stream_is_deterministic_per_seed_and_station(self):
        spec = ArrivalProcess.poisson(100.0)
        a = ArrivalStream(spec, station_arrival_rng(3, 0))
        b = ArrivalStream(spec, station_arrival_rng(3, 0))
        c = ArrivalStream(spec, station_arrival_rng(3, 1))
        first_a = [a.advance() for _ in range(50)]
        first_b = [b.advance() for _ in range(50)]
        first_c = [c.advance() for _ in range(50)]
        assert first_a == first_b
        assert first_a != first_c


class TestFrameQueue:
    def test_fifo_order_and_delay(self):
        queue = FrameQueue(limit=4)
        assert queue.offer(1.0) and queue.offer(2.0)
        assert len(queue) == 2
        assert queue.head_time == 1.0
        assert queue.pop(5.0) == pytest.approx(4.0)
        assert queue.pop(5.0) == pytest.approx(3.0)
        assert len(queue) == 0

    def test_bounded_capacity_drops(self):
        queue = FrameQueue(limit=2)
        assert queue.offer(0.1) and queue.offer(0.2)
        assert not queue.offer(0.3)
        assert len(queue) == 2

    def test_flush_empties_and_counts(self):
        queue = FrameQueue(limit=4)
        queue.offer(0.1)
        queue.offer(0.2)
        assert queue.flush() == 2
        assert len(queue) == 0
        assert queue.flush() == 0


class TestBatchedArrivals:
    def test_ring_buffer_matches_scalar_queue_semantics(self):
        spec = ArrivalProcess.poisson(300.0, queue_limit=3)
        arrivals = BatchedArrivals(spec, seeds=[5], num_stations=[2])
        active = np.ones((1, 2), dtype=bool)
        now = np.array([1.0])
        rejoined = arrivals.advance(now, active)
        # Every station saw ~300 arrivals but holds at most queue_limit.
        assert arrivals.queue_lengths.max() <= 3
        assert rejoined.any()
        assert int(arrivals.offered[0]) > 0
        assert int(arrivals.dropped[0]) > 0
        conserved = (int(arrivals.offered[0]) - int(arrivals.dropped[0]))
        assert conserved == int(arrivals.queue_lengths.sum())

    def test_pop_success_returns_fifo_delays(self):
        spec = ArrivalProcess.cbr(10.0, queue_limit=8)
        arrivals = BatchedArrivals(spec, seeds=[1], num_stations=[1])
        active = np.ones((1, 1), dtype=bool)
        arrivals.advance(np.array([0.55]), active)
        queued = int(arrivals.queue_lengths[0, 0])
        assert queued >= 4
        before = float(arrivals.delay_sum[0])
        arrivals.pop_success(np.array([0]), np.array([0]), np.array([0.55]))
        assert int(arrivals.queue_lengths[0, 0]) == queued - 1
        assert float(arrivals.delay_sum[0]) > before

    def test_flush_moves_queue_to_drops(self):
        spec = ArrivalProcess.poisson(500.0, queue_limit=16)
        arrivals = BatchedArrivals(spec, seeds=[9], num_stations=[2])
        arrivals.advance(np.array([0.05]), np.ones((1, 2), dtype=bool))
        queued = int(arrivals.queue_lengths[0, 1])
        dropped = int(arrivals.dropped[0])
        arrivals.flush(np.array([0]), np.array([1]))
        assert int(arrivals.queue_lengths[0, 1]) == 0
        assert int(arrivals.dropped[0]) == dropped + queued

    def test_inactive_stations_drop_arrivals(self):
        spec = ArrivalProcess.poisson(500.0, queue_limit=16)
        arrivals = BatchedArrivals(spec, seeds=[9], num_stations=[2])
        active = np.array([[True, False]])
        arrivals.advance(np.array([0.05]), active)
        assert int(arrivals.queue_lengths[0, 1]) == 0
        assert int(arrivals.dropped[0]) > 0

    def test_reset_measurement_zeroes_counters(self):
        spec = ArrivalProcess.poisson(500.0, queue_limit=4)
        arrivals = BatchedArrivals(spec, seeds=[2], num_stations=[1])
        arrivals.advance(np.array([0.2]), np.ones((1, 1), dtype=bool))
        arrivals.reset_measurement(np.array([True]))
        assert int(arrivals.offered[0]) == 0
        assert int(arrivals.dropped[0]) == 0
        assert float(arrivals.delay_sum[0]) == 0.0
        # Queue state survives the measurement reset.
        assert int(arrivals.queue_lengths.sum()) > 0

    @pytest.mark.parametrize("spec", [
        ArrivalProcess.poisson(800.0),
        ArrivalProcess.cbr(800.0),
        ArrivalProcess.on_off(1600.0, on_mean_s=0.05, off_mean_s=0.05),
    ])
    def test_batched_rate_matches_spec(self, spec):
        arrivals = BatchedArrivals(spec, seeds=[3, 4], num_stations=[2, 1])
        horizon = 3.0
        # Drain the queues as we go so nothing is dropped.
        for step in np.linspace(0.01, horizon, 300):
            now = np.full(2, step)
            arrivals.advance(now, np.ones((2, 2), dtype=bool))
            lengths = arrivals.queue_lengths
            for cell in range(2):
                for station in range(2):
                    while lengths[cell, station] > 0:
                        arrivals.pop_success(np.array([cell]),
                                             np.array([station]), now)
                        lengths = arrivals.queue_lengths
        per_station = arrivals.offered / np.array([2.0, 1.0]) / horizon
        assert per_station[0] == pytest.approx(spec.mean_rate_fps, rel=0.15)
        assert per_station[1] == pytest.approx(spec.mean_rate_fps, rel=0.2)
