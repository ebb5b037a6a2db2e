"""Event-driven WLAN simulation (the ns-3 substitute).

:class:`WlanSimulation` wires together the event scheduler, the shared
medium, one :class:`~repro.sim.node.StationProcess` per station, and an
:class:`AccessPointProcess` that hosts the AP-side controller (wTOP-CSMA,
TORA-CSMA or a static/no-op controller) and generates ACK frames.

Unlike the slotted simulator, stations here freeze and resume their backoff
based on their *own* sensing sets, so hidden-node topologies are modelled
faithfully: stations that cannot hear each other count down concurrently and
their frames collide at the AP when they overlap in time.

Typical use::

    graph = hidden_node_scenario(num_stations=20, rng=np.random.default_rng(1))
    sim = WlanSimulation(scheme=tora_csma_scheme(), connectivity=graph, seed=1)
    result = sim.run(duration=5.0, warmup=2.0)
    print(result.total_throughput_mbps)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.controller import AccessPointController
from ..mac.backoff import BackoffPolicy
from ..mac.schemes import Scheme
from ..phy.constants import NS_PER_SECOND, PhyParameters, seconds_to_ns
from ..phy.frame import FrameFactory
from ..telemetry import current as _telemetry
from ..telemetry import probes as _probes
from ..topology.graph import ConnectivityGraph
from ..traffic import ArrivalProcess, ArrivalStream, FrameQueue, station_arrival_rng
from .dynamics import ActivitySchedule, constant_activity
from .engine import EventScheduler
from .medium import AP_NODE_ID, ActiveTransmission, Medium
from .metrics import MetricsCollector, SimulationResult
from .node import StationProcess

__all__ = ["AccessPointProcess", "WlanSimulation", "run_event_driven"]


@dataclass
class _PendingAck:
    """Book-keeping for an ACK frame queued or in flight."""

    destination: int
    control: Dict[str, float]
    transmission: Optional[ActiveTransmission] = None


class AccessPointProcess:
    """The access point: receives data frames, runs the controller, sends ACKs.

    Success/failure is decided by the medium's overlap rule: a data frame that
    was not corrupted is acknowledged after SIFS; a corrupted frame receives
    no ACK and the transmitter declares a failure immediately (its own
    subsequent DIFS deferral accounts for the remainder of ``Tc``).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        medium: Medium,
        frame_factory: FrameFactory,
        phy: PhyParameters,
        controller: AccessPointController,
        metrics: MetricsCollector,
        frame_error_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= frame_error_rate < 1.0:
            raise ValueError("frame_error_rate must lie in [0, 1)")
        self._scheduler = scheduler
        self._medium = medium
        self._frames = frame_factory
        self._phy = phy
        self._controller = controller
        self._metrics = metrics
        self._frame_error_rate = float(frame_error_rate)
        self._rng = rng or np.random.default_rng(0)
        self._stations: Dict[int, StationProcess] = {}
        self._ap_free_at_ns = 0
        # Frames already counted delivered (the AP decides the outcome when
        # the data frame ends) whose ACK has not yet reached the sender, so
        # they still sit at the head of the sender's queue.  Needed to keep
        # the end-of-run frame inventory exact: offered == delivered +
        # dropped + retry-discarded + awaiting-service.
        self._acked_in_flight = 0

    # ------------------------------------------------------------------
    def attach_stations(self, stations: Sequence[StationProcess]) -> None:
        self._stations = {station.station_id: station for station in stations}

    @property
    def controller(self) -> AccessPointController:
        return self._controller

    @property
    def acked_in_flight(self) -> int:
        """Frames counted delivered whose ACK is still in flight."""
        return self._acked_in_flight

    # ------------------------------------------------------------------
    def on_data_transmission_end(self, station_id: int,
                                 transmission: ActiveTransmission,
                                 now_ns: int) -> None:
        """Decide the outcome of a finished data frame."""
        station = self._stations[station_id]
        channel_error = (
            self._frame_error_rate > 0.0
            and self._rng.random() < self._frame_error_rate
        )
        if transmission.corrupted or channel_error:
            self._metrics.record_failure(station_id)
            station.deliver_failure()
            return

        payload_bits = getattr(transmission.frame, "payload_bits", 0)
        self._metrics.record_success(station_id, payload_bits)
        if station.queue_length > 0:
            self._acked_in_flight += 1
        self._controller.on_packet_received(
            station_id, payload_bits, now_ns / NS_PER_SECOND
        )
        control = self._controller.control()
        ack = _PendingAck(destination=station_id, control=dict(control))
        # The ACK starts after SIFS, or once the AP radio is free if a
        # previous ACK is still being transmitted (rare, hidden-node case).
        start_ns = max(now_ns + self._phy.sifs_ns, self._ap_free_at_ns)
        end_ns = start_ns + self._phy.ack_tx_time_ns
        self._ap_free_at_ns = end_ns
        self._scheduler.schedule_at(start_ns, self._start_ack, ack)

    # ------------------------------------------------------------------
    def _start_ack(self, ack: _PendingAck) -> None:
        frame = self._frames.ack(
            source=AP_NODE_ID,
            destination=ack.destination,
            acked_frame_id=0,
            control=ack.control,
        )
        ack.transmission = self._medium.start_transmission(
            AP_NODE_ID, frame, self._phy.ack_tx_time_ns
        )
        self._scheduler.schedule_in(self._phy.ack_tx_time_ns, self._end_ack, ack)

    def _end_ack(self, ack: _PendingAck) -> None:
        assert ack.transmission is not None
        self._medium.end_transmission(ack.transmission)
        destination = self._stations.get(ack.destination)
        if destination is not None:
            if destination.deliver_success(ack.control):
                self._acked_in_flight -= 1
        if ack.control:
            for station_id, station in self._stations.items():
                if station_id != ack.destination:
                    station.overhear_ack(ack.control)


class WlanSimulation:
    """End-to-end event-driven simulation of one WLAN scenario.

    Parameters
    ----------
    scheme:
        MAC scheme (station policies + AP controller).
    connectivity:
        Topology-derived sensing sets (decides who is hidden from whom).
    phy:
        PHY timing parameters (defaults to the paper's Table I).
    seed:
        Master seed; every station receives an independent child stream.
    activity:
        Optional dynamic-activity schedule (Figures 8-11).
    report_interval:
        Sampling period (seconds) for the throughput / control time lines.
    frame_error_rate:
        Probability that a collision-free frame is lost to an i.i.d. channel
        error (paper, footnote 1); lost frames receive no ACK.
    traffic:
        Optional :class:`~repro.traffic.ArrivalProcess` describing each
        station's frame arrivals.  ``None`` (or the saturated process)
        keeps the classic always-backlogged behaviour bit-identically;
        otherwise each station owns a bounded FIFO queue, parks while the
        queue is empty and rejoins contention on arrival.  Arrival
        generators derive from ``(seed, TRAFFIC_STREAM_SALT, station)`` —
        the same derivation the slotted simulator uses, so both scalar
        backends see bit-identical per-station arrival sequences.
    """

    def __init__(
        self,
        scheme: Scheme,
        connectivity: ConnectivityGraph,
        phy: Optional[PhyParameters] = None,
        seed: int = 0,
        activity: Optional[ActivitySchedule] = None,
        report_interval: Optional[float] = None,
        frame_error_rate: float = 0.0,
        traffic: Optional[ArrivalProcess] = None,
    ) -> None:
        self._scheme = scheme
        self._connectivity = connectivity
        self._phy = phy or PhyParameters()
        self._seed = int(seed)
        self._num_stations = connectivity.num_stations
        self._activity = activity or constant_activity(self._num_stations)
        if self._activity.max_active > self._num_stations:
            raise ValueError(
                "activity schedule requires more stations than the topology has"
            )
        if report_interval is not None and report_interval <= 0:
            raise ValueError("report_interval must be positive")
        self._report_interval = report_interval

        self._scheduler = EventScheduler()
        self._frame_factory = FrameFactory(self._phy)
        sensing_sets = [set(s) for s in connectivity.sensing_sets()]
        self._medium = Medium(self._scheduler, sensing_sets)
        self._metrics = MetricsCollector(self._num_stations)
        self._controller = scheme.make_controller()
        master = np.random.default_rng(seed)
        self._access_point = AccessPointProcess(
            scheduler=self._scheduler,
            medium=self._medium,
            frame_factory=self._frame_factory,
            phy=self._phy,
            controller=self._controller,
            metrics=self._metrics,
            frame_error_rate=frame_error_rate,
            rng=np.random.default_rng(master.integers(0, 2 ** 63 - 1)),
        )

        # The retry limit applies to the MAC regardless of workload, so it
        # is lifted off the spec before the saturated process canonicalises
        # to None (the bit-identical classic path).
        retry_limit = traffic.retry_limit if traffic is not None else None
        if traffic is not None and traffic.is_saturated:
            traffic = None
        self._traffic = traffic
        self._arrival_streams: List[ArrivalStream] = []
        if traffic is not None and not traffic.is_closed_loop:
            # Arrival generators are salted separately from the contention
            # streams (and drawn outside the master-seed sequence), so
            # enabling traffic never perturbs the stations' backoff draws.
            self._arrival_streams = [
                ArrivalStream(
                    traffic, station_arrival_rng(seed, station_id),
                    rate_fps=traffic.rate_for(station_id, self._num_stations),
                )
                for station_id in range(self._num_stations)
            ]
        # Closed-loop flow state (window kind): releases are clocked by
        # frames leaving the MAC via _on_frame_departed.
        self._flow_left = np.zeros(self._num_stations, dtype=np.int64)
        self._flow_done = np.zeros(self._num_stations, dtype=np.int64)
        self._flow_total = 0

        self._policies: List[BackoffPolicy] = scheme.make_policies(self._num_stations)
        self._stations: List[StationProcess] = []
        for station_id, policy in enumerate(self._policies):
            station_rng = np.random.default_rng(master.integers(0, 2 ** 63 - 1))
            station = StationProcess(
                station_id=station_id,
                policy=policy,
                scheduler=self._scheduler,
                medium=self._medium,
                frame_factory=self._frame_factory,
                phy=self._phy,
                rng=station_rng,
                on_transmission_end=self._access_point.on_data_transmission_end,
                queue=(None if traffic is None
                       else FrameQueue(traffic.queue_limit)),
                on_queue_delay=self._metrics.record_queue_delay,
                retry_limit=retry_limit,
                on_retry_discard=self._metrics.record_retry_discard,
                on_frame_departed=(self._on_frame_departed
                                   if traffic is not None
                                   and traffic.is_closed_loop else None),
            )
            self._stations.append(station)
        self._access_point.attach_stations(self._stations)

        # Time-line bookkeeping filled in during run().
        self._bits_at_last_report = 0
        self._measure_start_s = 0.0

        # Probe state (installed per-run when a ProbeConfig is ambient).
        self._probe_config: Optional[_probes.ProbeConfig] = None
        self._probe_buffer: Optional[_probes.ProbeBuffer] = None
        self._probe_bits_prev: List[int] = []
        self._probe_busy_prev_ns = 0
        self._probe_t0 = 0.0

    # ------------------------------------------------------------------
    @property
    def controller(self) -> AccessPointController:
        return self._controller

    @property
    def stations(self) -> Sequence[StationProcess]:
        return tuple(self._stations)

    @property
    def policies(self) -> Sequence[BackoffPolicy]:
        return tuple(self._policies)

    @property
    def phy(self) -> PhyParameters:
        return self._phy

    @property
    def scheduler(self) -> EventScheduler:
        return self._scheduler

    # ------------------------------------------------------------------
    def run(self, duration: float, warmup: float = 0.0) -> SimulationResult:
        """Simulate ``warmup + duration`` seconds and return measured metrics."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")

        # Closed-loop pre-fill happens before activation so that every
        # station starts contending with its window already queued.
        traffic = self._traffic
        if traffic is not None and traffic.is_closed_loop:
            flow = traffic.flow_frames
            prefill = (traffic.window if flow is None
                       else min(traffic.window, flow))
            remaining = 2 ** 62 if flow is None else flow - prefill
            self._flow_left[:] = remaining
            self._flow_total = 0 if flow is None else int(flow)
            for station in self._stations:
                for _ in range(prefill):
                    station.enqueue(0.0)
            self._metrics.record_arrival(prefill * self._num_stations)

        # Activate the initially-active stations and schedule later changes.
        initial_active = self._activity.active_count(0.0)
        initial_control = self._controller.control()
        for station_id in range(initial_active):
            self._stations[station_id].activate(initial_control)
        for change_time in self._activity.change_times():
            self._scheduler.schedule_at(
                seconds_to_ns(change_time), self._apply_activity_change, change_time
            )
        for station_id, stream in enumerate(self._arrival_streams):
            self._scheduler.schedule_at(
                seconds_to_ns(stream.next_time), self._on_arrival, station_id
            )

        # Periodic controller ticks (the paper's beacon-carried variant):
        # a starving probe value must not stall adaptation forever.
        tick = self._controller.tick_interval
        if tick is not None and tick > 0:
            self._scheduler.schedule_at(
                seconds_to_ns(tick), self._controller_tick, tick
            )

        # Simulator probes ride the event scheduler: a self-rescheduling
        # read-only callback samples controller/queue/throughput state on the
        # probe grid (from t = 0, so the warm-up transient is observed).  The
        # callback never touches a random stream or simulation state, so the
        # SimulationResult is bit-identical with probes on or off (the extra
        # scheduler events only shift event sequence numbers).
        probe = _probes.current()
        self._probe_config = probe
        if probe is not None:
            self._probe_buffer = _probes.ProbeBuffer(probe.capacity)
            self._probe_t0 = time.time()
            self._probe_bits_prev = [0] * self._num_stations
            self._probe_busy_prev_ns = 0
            self._scheduler.schedule_at(
                seconds_to_ns(probe.interval), self._sample_probe,
                probe.interval,
            )

        end_ns = seconds_to_ns(warmup + duration)
        if warmup > 0:
            self._scheduler.run_until(seconds_to_ns(warmup))
            self._metrics.reset()
            self._medium.reset_occupancy_statistics()
        self._measure_start_s = warmup
        self._bits_at_last_report = 0
        if self._report_interval is not None:
            first_report = warmup + self._report_interval
            if first_report <= warmup + duration:
                self._scheduler.schedule_at(
                    seconds_to_ns(first_report), self._sample_report, first_report
                )
        self._scheduler.run_until(end_ns)

        self._finalise_idle_statistics(duration)
        tel = _telemetry()
        if tel.enabled:
            # The scheduler maintains these counters anyway, so the event
            # backend's telemetry is free: one record per run, no loop cost.
            tel.counters("event", {
                "events_processed": self._scheduler.processed_events,
                "events_cancelled": self._scheduler.cancelled_events,
                "heap_compactions": self._scheduler.heap_compactions,
                "events_pending_at_end": self._scheduler.pending_events,
                "num_stations": self._num_stations,
            })
        if self._probe_buffer is not None:
            record = _probes.probe_record(
                "event", self._probe_buffer, self._probe_config,
                self._probe_t0, seed=self._seed,
            )
            if record is not None:
                tel.emit(record)
        extra: Dict[str, object] = {
            "scheme": self._scheme.name,
            "simulator": "event-driven",
            "num_stations": self._num_stations,
            "warmup": warmup,
            "topology": self._connectivity.placement.description,
            "hidden_pairs": len(self._connectivity.hidden_pairs()),
        }
        if self._traffic is not None:
            extra["traffic"] = self._traffic.kind
            extra["offered_rate_fps"] = self._traffic.mean_rate_fps
            # Frames awaiting service: a frame whose ACK is still in flight
            # at the horizon has already been counted delivered, so it must
            # not be double-counted as queued.
            extra["queued_frames"] = (
                sum(station.queue_length for station in self._stations)
                - self._access_point.acked_in_flight
            )
        return self._metrics.result(duration=duration, extra=extra)

    # ------------------------------------------------------------------
    def _controller_tick(self, tick_time: float) -> None:
        updated = self._controller.on_tick(tick_time)
        if updated:
            control = self._controller.control()
            for station in self._stations:
                if station.is_active:
                    station.overhear_ack(control)
        interval = self._controller.tick_interval or 0.0
        if interval > 0:
            next_time = tick_time + interval
            self._scheduler.schedule_at(
                seconds_to_ns(next_time), self._controller_tick, next_time
            )

    def _apply_activity_change(self, change_time: float) -> None:
        target = self._activity.active_count(change_time)
        control = self._controller.control()
        for station_id, station in enumerate(self._stations):
            if station_id < target and not station.is_active:
                station.activate(control)
            elif station_id >= target and station.is_active:
                station.deactivate()
                # A station leaving mid-burst must not leak its queued
                # frames into the next join: flush them as drops.
                flushed = station.flush_queue()
                if flushed:
                    self._metrics.record_drop(flushed)

    def _on_frame_departed(self, station_id: int) -> None:
        """Closed-loop clocking: a frame left ``station_id``'s MAC
        (delivered or retry-discarded), so release the next window frame
        and record the flow completion when the budget is spent."""
        now_s = self._scheduler.now_ns / NS_PER_SECOND
        self._flow_done[station_id] += 1
        if self._flow_left[station_id] > 0:
            self._flow_left[station_id] -= 1
            self._metrics.record_arrival()
            station = self._stations[station_id]
            if not station.is_active or not station.enqueue(now_s):
                self._metrics.record_drop()
        if self._flow_total and self._flow_done[station_id] == self._flow_total:
            self._metrics.record_flow_completion(station_id, now_s)

    def _on_arrival(self, station_id: int) -> None:
        """One frame arrived at ``station_id``; schedule the next arrival.

        Arrivals to schedule-inactive stations and to full queues count as
        drops.  Counters recorded before the warm-up boundary are wiped by
        the metrics reset at the boundary, so no gating is needed here.
        """
        stream = self._arrival_streams[station_id]
        arrival = stream.advance()
        self._metrics.record_arrival()
        station = self._stations[station_id]
        if not station.is_active or not station.enqueue(arrival):
            self._metrics.record_drop()
        self._scheduler.schedule_at(
            seconds_to_ns(stream.next_time), self._on_arrival, station_id
        )

    def _sample_probe(self, probe_time: float) -> None:
        """Read-only probe sample; self-reschedules on the probe grid.

        Cumulative metrics (per-station bits, channel busy time) are turned
        into windowed deltas against the previous boundary's snapshot; the
        warm-up metric reset makes a cumulative value fall below its
        snapshot, in which case the snapshot rebases to zero (the reset
        instant starts a fresh accumulation epoch).
        """
        probe = self._probe_config
        interval = probe.interval
        payload = self._phy.payload_bits
        values = _probes.controller_series(self._controller)
        for i, policy in enumerate(self._policies):
            values.update(_probes.station_series(i, policy))
        total_delta = 0
        for i in range(self._num_stations):
            bits = self._metrics.successes(i) * payload
            prev = self._probe_bits_prev[i]
            if bits < prev:
                prev = 0
            delta = bits - prev
            total_delta += delta
            values[f"tput_mbps[{i}]"] = delta / interval / 1e6
            self._probe_bits_prev[i] = bits
        values["throughput_mbps"] = total_delta / interval / 1e6
        busy_ns = self._medium.data_busy_total_ns
        prev_busy = self._probe_busy_prev_ns
        if busy_ns < prev_busy:
            prev_busy = 0
        values["busy_frac"] = (busy_ns - prev_busy) / seconds_to_ns(interval)
        self._probe_busy_prev_ns = busy_ns
        if self._traffic is not None:
            for i, station in enumerate(self._stations):
                values[f"queue[{i}]"] = float(station.queue_length)
        self._probe_buffer.sample(probe_time, values)
        next_time = probe_time + interval
        self._scheduler.schedule_at(
            seconds_to_ns(next_time), self._sample_probe, next_time
        )

    def _sample_report(self, report_time: float) -> None:
        interval = self._report_interval or 0.0
        cumulative_bits = self._metrics.total_payload_bits
        delta = cumulative_bits - self._bits_at_last_report
        self._bits_at_last_report = cumulative_bits
        self._metrics.record_throughput_sample(report_time, delta / interval)
        control = self._controller.control()
        if "p" in control:
            self._metrics.record_control_sample(report_time, control["p"])
        elif "p0" in control:
            self._metrics.record_control_sample(report_time, control["p0"])
        next_time = report_time + interval
        self._scheduler.schedule_at(
            seconds_to_ns(next_time), self._sample_report, next_time
        )

    def _finalise_idle_statistics(self, duration: float) -> None:
        """Convert channel-occupancy statistics to backoff-slot counts.

        The Table III metric is "idle (backoff) slots per transmission".  The
        medium reports the union of data-frame airtime and the number of
        maximal busy periods; subtracting the per-period framing overheads
        (DIFS always, SIFS + ACK for successes) leaves the contention idle
        time, which is divided by the slot duration.
        """
        busy_periods = self._medium.data_busy_periods
        busy_time_s = self._medium.data_busy_total_ns / NS_PER_SECOND
        successes = sum(self._metrics.successes(i) for i in range(self._num_stations))
        overhead_s = (
            busy_periods * self._phy.difs
            + successes * (self._phy.sifs + self._phy.ack_tx_time)
        )
        idle_time_s = max(duration - busy_time_s - overhead_s, 0.0)
        self._metrics.record_idle_slots(int(idle_time_s / self._phy.slot_time))
        self._metrics.record_busy_period(busy_periods)


def run_event_driven(
    scheme: Scheme,
    connectivity: ConnectivityGraph,
    duration: float,
    warmup: float = 0.0,
    phy: Optional[PhyParameters] = None,
    seed: int = 0,
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`WlanSimulation`."""
    simulation = WlanSimulation(
        scheme=scheme, connectivity=connectivity, phy=phy, seed=seed, **kwargs
    )
    return simulation.run(duration=duration, warmup=warmup)
