"""Measurement collection shared by both simulators.

:class:`MetricsCollector` accumulates per-station and system-wide counters
(successes, collisions, payload bits, idle slots) plus optional time series
(throughput per reporting interval) and renders them into a
:class:`SimulationResult`, the object every experiment runner consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["StationStats", "SimulationResult", "MetricsCollector"]


@dataclass(frozen=True)
class StationStats:
    """Per-station counters over a simulation run."""

    station: int
    successes: int
    failures: int
    payload_bits: int
    throughput_bps: float

    @property
    def attempts(self) -> int:
        return self.successes + self.failures

    @property
    def collision_fraction(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.failures / self.attempts


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    duration:
        Simulated time in seconds over which the metrics were collected
        (excluding any warm-up the caller discarded).
    station_stats:
        Per-station counters.
    total_throughput_bps:
        System throughput in bits/s.
    idle_slots / busy_periods:
        System-level counts used for the "average idle slots per
        transmission" column of Table III.
    throughput_timeline:
        Optional ``(time_s, throughput_bps)`` series sampled every reporting
        interval (Figures 8 and 10).
    control_timeline:
        Optional ``(time_s, value)`` series of the AP's control variable
        (Figures 9 and 11).
    offered_frames / dropped_frames / queue_delay_sum_s:
        Traffic-workload counters (zero for saturated runs): frames offered
        by the arrival processes during the measurement window, frames
        dropped (full queue, or flushed when a station left the network),
        and the summed FIFO queueing delay of every delivered frame.
    retry_discards:
        Frames the MAC discarded after exhausting the configured retry
        limit (zero under the default infinite-retry policy).
    queue_delay_p50_s / queue_delay_p99_s:
        Median and 99th-percentile FIFO queueing delay over the delivered
        frames of the measurement window (zero when nothing queued).
    flow_completions:
        ``(station, completion_time_s)`` pairs for every bounded
        closed-loop flow that finished (empty for open-loop workloads).
    extra:
        Free-form metadata (scheme name, topology description, seeds...).
    """

    duration: float
    station_stats: Tuple[StationStats, ...]
    total_throughput_bps: float
    idle_slots: int = 0
    busy_periods: int = 0
    throughput_timeline: Tuple[Tuple[float, float], ...] = ()
    control_timeline: Tuple[Tuple[float, float], ...] = ()
    offered_frames: int = 0
    dropped_frames: int = 0
    queue_delay_sum_s: float = 0.0
    retry_discards: int = 0
    queue_delay_p50_s: float = 0.0
    queue_delay_p99_s: float = 0.0
    flow_completions: Tuple[Tuple[int, float], ...] = ()
    extra: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_stations(self) -> int:
        return len(self.station_stats)

    @property
    def total_throughput_mbps(self) -> float:
        return self.total_throughput_bps / 1e6

    @property
    def per_station_throughput_bps(self) -> Tuple[float, ...]:
        return tuple(s.throughput_bps for s in self.station_stats)

    @property
    def total_successes(self) -> int:
        return sum(s.successes for s in self.station_stats)

    @property
    def total_failures(self) -> int:
        return sum(s.failures for s in self.station_stats)

    @property
    def collision_fraction(self) -> float:
        attempts = self.total_successes + self.total_failures
        if attempts == 0:
            return 0.0
        return self.total_failures / attempts

    @property
    def average_idle_slots_per_transmission(self) -> float:
        """System-level idle slots per busy period (Table III metric)."""
        if self.busy_periods == 0:
            return 0.0
        return self.idle_slots / self.busy_periods

    @property
    def drop_rate(self) -> float:
        """Fraction of offered frames dropped (0 when nothing was offered)."""
        if self.offered_frames == 0:
            return 0.0
        return self.dropped_frames / self.offered_frames

    @property
    def mean_queue_delay_s(self) -> float:
        """Mean FIFO queueing delay per delivered frame (seconds)."""
        delivered = self.total_successes
        if delivered == 0:
            return 0.0
        return self.queue_delay_sum_s / delivered

    @property
    def mean_flow_completion_s(self) -> float:
        """Mean flow-completion time over the finished closed-loop flows
        (0 when no bounded flow completed)."""
        if not self.flow_completions:
            return 0.0
        return sum(t for _, t in self.flow_completions) / len(
            self.flow_completions
        )


class MetricsCollector:
    """Mutable accumulator that both simulators write into."""

    def __init__(self, num_stations: int) -> None:
        if num_stations < 1:
            raise ValueError("num_stations must be at least 1")
        self._num_stations = num_stations
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        n = self._num_stations
        self._successes = np.zeros(n, dtype=np.int64)
        self._failures = np.zeros(n, dtype=np.int64)
        self._payload_bits = np.zeros(n, dtype=np.int64)
        self._idle_slots = 0
        self._busy_periods = 0
        self._offered_frames = 0
        self._dropped_frames = 0
        self._queue_delay_sum_s = 0.0
        self._retry_discards = 0
        self._queue_delays: List[float] = []
        self._flow_completions: List[Tuple[int, float]] = []
        self._throughput_timeline: List[Tuple[float, float]] = []
        self._control_timeline: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    @property
    def num_stations(self) -> int:
        return self._num_stations

    def record_success(self, station: int, payload_bits: int) -> None:
        self._successes[station] += 1
        self._payload_bits[station] += payload_bits

    def record_failure(self, station: int) -> None:
        self._failures[station] += 1

    def record_idle_slots(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self._idle_slots += count

    def record_busy_period(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self._busy_periods += count

    def record_arrival(self, count: int = 1) -> None:
        """Count frames offered by the arrival processes."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._offered_frames += count

    def record_drop(self, count: int = 1) -> None:
        """Count frames dropped (full queue, inactive station, or flush)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._dropped_frames += count

    def record_queue_delay(self, delay_s: float) -> None:
        """Accumulate one delivered frame's FIFO queueing delay."""
        self._queue_delay_sum_s += delay_s
        self._queue_delays.append(delay_s)

    def record_retry_discard(self, count: int = 1) -> None:
        """Count frames discarded at the MAC retry limit."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._retry_discards += count

    def record_flow_completion(self, station: int, time_s: float) -> None:
        """Record a bounded closed-loop flow finishing at ``time_s``."""
        self._flow_completions.append((int(station), float(time_s)))

    def record_throughput_sample(self, time_s: float, throughput_bps: float) -> None:
        self._throughput_timeline.append((time_s, throughput_bps))

    def record_control_sample(self, time_s: float, value: float) -> None:
        self._control_timeline.append((time_s, value))

    # ------------------------------------------------------------------
    @property
    def total_payload_bits(self) -> int:
        return int(self._payload_bits.sum())

    def successes(self, station: int) -> int:
        return int(self._successes[station])

    def failures(self, station: int) -> int:
        return int(self._failures[station])

    # ------------------------------------------------------------------
    def result(self, duration: float,
               extra: Optional[Mapping[str, object]] = None) -> SimulationResult:
        """Render the counters into an immutable :class:`SimulationResult`."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        stats = tuple(
            StationStats(
                station=i,
                successes=int(self._successes[i]),
                failures=int(self._failures[i]),
                payload_bits=int(self._payload_bits[i]),
                throughput_bps=float(self._payload_bits[i]) / duration,
            )
            for i in range(self._num_stations)
        )
        if self._queue_delays:
            p50, p99 = np.quantile(np.asarray(self._queue_delays),
                                   (0.5, 0.99))
        else:
            p50 = p99 = 0.0
        return SimulationResult(
            duration=duration,
            station_stats=stats,
            total_throughput_bps=self.total_payload_bits / duration,
            idle_slots=self._idle_slots,
            busy_periods=self._busy_periods,
            throughput_timeline=tuple(self._throughput_timeline),
            control_timeline=tuple(self._control_timeline),
            offered_frames=self._offered_frames,
            dropped_frames=self._dropped_frames,
            queue_delay_sum_s=self._queue_delay_sum_s,
            retry_discards=self._retry_discards,
            queue_delay_p50_s=float(p50),
            queue_delay_p99_s=float(p99),
            flow_completions=tuple(sorted(self._flow_completions)),
            extra=dict(extra or {}),
        )
