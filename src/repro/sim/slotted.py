"""Fast slotted simulator for *fully connected* saturated WLANs.

In a fully connected network every station observes the same channel, so the
system evolves as a renewal process over "virtual slots" (Bianchi's model,
also the basis of the paper's Eq. 2-3): a virtual slot is either

* idle (no station transmits)            — duration ``sigma``;
* a success (exactly one station)        — duration ``Ts``;
* a collision (two or more stations)     — duration ``Tc``.

Station backoff counters decrement only during idle slots and a station
transmits in the slot in which its counter is zero.  This is exact for fully
connected topologies and one to two orders of magnitude faster than the
event-driven simulator, which is why the fully connected experiments
(Figures 2, 3, 8-11, 13, Table II) and the controller-convergence studies use
it.  Hidden-node topologies *must* use :mod:`repro.sim.simulation` instead —
this simulator refuses to model them.

The simulator drives exactly the same station policies
(:mod:`repro.mac.backoff`) and AP controllers (:mod:`repro.core`) as the
event-driven one, so results are directly comparable (an ablation benchmark
checks their agreement).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.controller import AccessPointController
from ..mac.backoff import BackoffPolicy
from ..mac.schemes import Scheme
from ..phy.constants import PhyParameters
from ..telemetry import current as _telemetry
from ..telemetry import probes as _probes
from ..traffic import ArrivalProcess, ArrivalStream, FrameQueue, station_arrival_rng
from .dynamics import ActivitySchedule, constant_activity
from .metrics import MetricsCollector, SimulationResult

__all__ = ["SlottedSimulator", "run_slotted"]

#: Sentinel "minimum counter" when no station holds a frame: large enough
#: that the idle fast-forward always runs to its boundary.
_NO_CONTENDER = 2 ** 62


def _primary_control_value(control: Dict[str, float]) -> Optional[float]:
    """The scalar control value to log for convergence plots."""
    if "p" in control:
        return control["p"]
    if "p0" in control:
        return control["p0"]
    return None


class SlottedSimulator:
    """Virtual-slot simulator for fully connected saturated networks.

    Parameters
    ----------
    scheme:
        The MAC scheme (station policy factory + AP controller).
    num_stations:
        Number of stations; ignored when ``activity`` is given.
    phy:
        PHY timing parameters.
    seed:
        Seed of the simulator's random generator.
    activity:
        Optional :class:`ActivitySchedule` for dynamic scenarios; stations
        beyond the active count do not contend.
    report_interval:
        When set, the throughput and control-variable time lines are sampled
        every ``report_interval`` seconds (Figures 8-11).
    frame_error_rate:
        Probability that an otherwise collision-free transmission is lost to
        an i.i.d. channel error (paper, footnote 1).  Errored frames occupy
        the channel for ``Tc`` (no ACK follows) and count as failures for the
        transmitter's backoff policy.
    traffic:
        Optional :class:`~repro.traffic.ArrivalProcess` describing each
        station's frame arrivals.  ``None`` (or the saturated process)
        reproduces the classic always-backlogged behaviour bit-identically;
        otherwise stations hold a bounded FIFO queue, a station with an
        empty queue defers (its backoff counter freezes) and rejoins
        contention when a frame arrives.  Arrival randomness comes from
        per-station generators salted separately from the contention stream
        (:func:`repro.traffic.station_arrival_rng`), so enabling traffic
        never perturbs the backoff draws.
    """

    def __init__(
        self,
        scheme: Scheme,
        num_stations: Optional[int] = None,
        phy: Optional[PhyParameters] = None,
        seed: int = 0,
        activity: Optional[ActivitySchedule] = None,
        report_interval: Optional[float] = None,
        frame_error_rate: float = 0.0,
        traffic: Optional[ArrivalProcess] = None,
    ) -> None:
        if activity is None:
            if num_stations is None:
                raise ValueError("either num_stations or activity is required")
            activity = constant_activity(num_stations)
        self._activity = activity
        self._num_stations = activity.max_active
        if num_stations is not None and num_stations != self._num_stations:
            if num_stations < self._num_stations:
                raise ValueError(
                    "num_stations is smaller than the activity schedule's maximum"
                )
            self._num_stations = num_stations
        self._scheme = scheme
        self._phy = phy or PhyParameters()
        self._rng = np.random.default_rng(seed)
        if report_interval is not None and report_interval <= 0:
            raise ValueError("report_interval must be positive")
        self._report_interval = report_interval
        if not 0.0 <= frame_error_rate < 1.0:
            raise ValueError("frame_error_rate must lie in [0, 1)")
        self._frame_error_rate = float(frame_error_rate)
        self._seed = int(seed)
        # The retry limit applies to the MAC regardless of workload, so it
        # is lifted off the spec before the saturated process canonicalises
        # to None (the bit-identical classic path).
        self._retry_limit = traffic.retry_limit if traffic is not None else None
        if traffic is not None and traffic.is_saturated:
            traffic = None
        self._traffic = traffic
        self._queues: List[FrameQueue] = []
        if traffic is not None:
            self._queues = [
                FrameQueue(traffic.queue_limit)
                for _ in range(self._num_stations)
            ]

        self._policies: List[BackoffPolicy] = scheme.make_policies(self._num_stations)
        self._controller: AccessPointController = scheme.make_controller()
        self._observers = [p for p in self._policies if p.observes_channel]
        # The control every policy last picked up; applying a control is
        # idempotent, so an unchanged broadcast is skipped.
        self._applied_control: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    @property
    def controller(self) -> AccessPointController:
        return self._controller

    @property
    def policies(self) -> Sequence[BackoffPolicy]:
        return tuple(self._policies)

    @property
    def phy(self) -> PhyParameters:
        return self._phy

    # ------------------------------------------------------------------
    def run(self, duration: float, warmup: float = 0.0) -> SimulationResult:
        """Simulate ``warmup + duration`` seconds; metrics cover the last part.

        The warm-up lets adaptive schemes (IdleSense, wTOP, TORA) converge
        before throughput is measured, mirroring the paper's practice of
        reporting steady-state throughput.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")

        phy = self._phy
        sigma = phy.slot_time
        ts = phy.ts
        tc = phy.tc
        payload = phy.payload_bits
        end_time = warmup + duration

        counters = np.array(
            [policy.initial_backoff(self._rng) for policy in self._policies],
            dtype=np.int64,
        )
        # Stations pick up the AP's initial control values before contending
        # (the paper's stations start from a default and adopt the advertised
        # value on the first ACK; applying it up-front removes a transient
        # that has no bearing on steady state).
        self._apply_control_to_all(self._controller.control())

        metrics = MetricsCollector(self._num_stations)
        active = self._activity.active_count(0.0)
        change_times = list(self._activity.change_times())
        next_change_index = 0

        # Traffic state: parked (empty-queue) stations freeze their counters
        # and rejoin contention when a frame arrives.  The saturated path
        # allocates none of this, so it stays bit-identical to the classic
        # behaviour.
        traffic = self._traffic
        streams: List[ArrivalStream] = []
        has_frame = None
        flow_left = flow_done = None
        flow_total = 0
        if traffic is not None:
            has_frame = np.zeros(self._num_stations, dtype=bool)
            if traffic.is_closed_loop:
                # Closed loop: pre-fill each queue with the window at t=0;
                # later releases are clocked by departures, so there is no
                # autonomous arrival stream at all.
                flow = traffic.flow_frames
                prefill = (traffic.window if flow is None
                           else min(traffic.window, flow))
                remaining = 2 ** 62 if flow is None else flow - prefill
                flow_left = np.full(self._num_stations, remaining,
                                    dtype=np.int64)
                flow_done = np.zeros(self._num_stations, dtype=np.int64)
                flow_total = 0 if flow is None else int(flow)
                for station in range(self._num_stations):
                    for _ in range(prefill):
                        self._queues[station].offer(0.0)
                    has_frame[station] = prefill > 0
                if warmup == 0.0:
                    metrics.record_arrival(prefill * self._num_stations)
            else:
                streams = [
                    ArrivalStream(
                        traffic, station_arrival_rng(self._seed, s),
                        rate_fps=traffic.rate_for(s, self._num_stations),
                    )
                    for s in range(self._num_stations)
                ]
        retry_limit = self._retry_limit
        retry_counts = (np.zeros(self._num_stations, dtype=np.int64)
                        if retry_limit is not None else None)

        # Loop-level telemetry: the enabled flag is hoisted into a local so
        # the disabled (default) path costs one predictable branch per
        # iteration; counters are plain ints and never touch the RNG.
        tel = _telemetry()
        tel_on = tel.enabled
        t_virtual_slots = t_idle_ffwd = t_busy = t_discards = 0

        # Simulator probes: sampled retroactively at crossed virtual-time
        # boundaries, so they never change the fast-forward chunking, never
        # touch the RNG and never run when no ProbeConfig is installed.
        probe = _probes.current()
        probe_buf = None
        if probe is not None:
            probe_buf = _probes.ProbeBuffer(probe.capacity)
            probe_interval = probe.interval
            probe_next = probe_interval
            probe_t0 = time.time()
            probe_bits = np.zeros(self._num_stations, dtype=np.int64)
            probe_bits_prev = np.zeros(self._num_stations, dtype=np.int64)
            probe_busy = 0.0

            def probe_sample(boundary: float) -> None:
                nonlocal probe_busy
                values = _probes.controller_series(self._controller)
                for i, policy in enumerate(self._policies):
                    values.update(_probes.station_series(i, policy))
                delta = probe_bits - probe_bits_prev
                for i in range(self._num_stations):
                    values[f"tput_mbps[{i}]"] = delta[i] / probe_interval / 1e6
                values["throughput_mbps"] = (
                    int(delta.sum()) / probe_interval / 1e6
                )
                # Busy time is attributed at slot granularity: the slot that
                # crosses a boundary counts fully against the window it
                # started in, so the fraction may slightly exceed 1.
                values["busy_frac"] = probe_busy / probe_interval
                for i, queue in enumerate(self._queues):
                    values[f"queue[{i}]"] = float(len(queue))
                probe_buf.sample(boundary, values)
                probe_bits_prev[:] = probe_bits
                probe_busy = 0.0

        now = 0.0
        measuring = warmup == 0.0
        idle_run = 0
        # Reporting state.
        report_at = self._report_interval if self._report_interval else math.inf
        bits_at_last_report = 0
        cumulative_bits = 0
        # Controller tick state (segments must close even with zero traffic).
        tick_interval = self._controller.tick_interval
        next_tick = tick_interval if tick_interval else math.inf

        def frame_departed(station: int) -> None:
            """Closed-loop clocking on any departure (delivery or retry
            discard): release the next window frame, record finished flows.
            No-op for open-loop workloads."""
            if traffic is None or not traffic.is_closed_loop:
                return
            flow_done[station] += 1
            if flow_left[station] > 0:
                flow_left[station] -= 1
                self._queues[station].offer(now)
                has_frame[station] = True
                if measuring:
                    metrics.record_arrival()
            if flow_total and flow_done[station] == flow_total:
                metrics.record_flow_completion(station, now)

        while now < end_time:
            # Activity changes take effect at their breakpoint times.
            while (next_change_index < len(change_times)
                   and now >= change_times[next_change_index]):
                new_active = self._activity.active_count(
                    change_times[next_change_index]
                )
                if traffic is not None and new_active < active:
                    # Leaving stations must not carry queued frames into
                    # their next join: flush and account them as drops.
                    for station in range(new_active, active):
                        flushed = self._queues[station].flush()
                        has_frame[station] = False
                        if flushed and measuring:
                            metrics.record_drop(flushed)
                self._handle_activity_change(active, new_active, counters)
                active = new_active
                next_change_index += 1

            if not measuring and now >= warmup:
                measuring = True
                metrics.reset()
                bits_at_last_report = 0
                cumulative_bits = 0
                # Anchor the reporting grid at the warmup boundary itself:
                # `now` may have overshot it by part of a busy slot, and that
                # overshoot must count against the first reporting interval or
                # the entire timeline shifts late and the final sample (at
                # warmup + duration) is silently dropped.
                if self._report_interval:
                    report_at = self._report_interval - (now - warmup)
                else:
                    report_at = math.inf

            if traffic is not None:
                # Clamp at the horizon so the processed set is exactly the
                # arrivals inside the run, matching the batched backend's
                # composition-independent accounting.
                self._process_arrivals(streams, min(now, end_time), active,
                                       measuring, metrics, has_frame)

            window = counters[:active]
            if traffic is None:
                min_counter = int(window.min()) if active > 0 else 0
                contenders = None
            else:
                # Only stations with a queued frame contend; parked stations
                # keep their (frozen) counter until an arrival rejoins them.
                contenders = has_frame[:active]
                if contenders.any():
                    min_counter = int(window[contenders].min())
                else:
                    min_counter = _NO_CONTENDER
            if min_counter > 0:
                # Fast-forward through consecutive idle slots, but never past
                # the next activity change, arrival, report boundary or end
                # of run.
                limit_slots = min_counter
                next_boundary = min(end_time, next_tick)
                if streams:
                    next_boundary = min(
                        next_boundary,
                        min(stream.next_time for stream in streams),
                    )
                if next_change_index < len(change_times):
                    next_boundary = min(next_boundary, change_times[next_change_index])
                if measuring:
                    next_boundary = min(next_boundary, now + report_at)
                if not measuring:
                    next_boundary = min(next_boundary, warmup)
                slots_to_boundary = max(int(math.ceil((next_boundary - now) / sigma)), 1)
                advance = min(limit_slots, slots_to_boundary)
                if traffic is None:
                    window -= advance
                else:
                    window[contenders] -= advance
                now += advance * sigma
                idle_run += advance
                if tel_on:
                    t_idle_ffwd += 1
                    t_virtual_slots += advance
                if probe_buf is not None:
                    while now >= probe_next:
                        probe_sample(probe_next)
                        probe_next += probe_interval
                if measuring:
                    metrics.record_idle_slots(advance)
                    report_at -= advance * sigma
                    if report_at <= 0:
                        report_at = self._sample_reports(
                            metrics, now, cumulative_bits, bits_at_last_report,
                            report_at,
                        )
                        bits_at_last_report = cumulative_bits
                if now >= next_tick:
                    # Close a starved measurement segment (the paper's
                    # beacon-carried variant) and re-broadcast on updates.
                    if self._controller.on_tick(now):
                        self._apply_control_to_all(self._controller.control())
                    next_tick += tick_interval or math.inf
                continue

            if now >= next_tick:
                if self._controller.on_tick(now):
                    self._apply_control_to_all(self._controller.control())
                next_tick += tick_interval or math.inf

            if traffic is None:
                transmitters = np.flatnonzero(window == 0)
            else:
                transmitters = np.flatnonzero((window == 0) & contenders)
            success = transmitters.size == 1
            if success and self._frame_error_rate > 0.0:
                success = self._rng.random() >= self._frame_error_rate
            slot_duration = ts if success else tc
            if self._observers:
                for policy in self._observers:
                    policy.observe_transmission(idle_run)
            idle_run = 0
            now += slot_duration
            if tel_on:
                t_busy += 1
                t_virtual_slots += 1
            if probe_buf is not None:
                probe_busy += slot_duration
                while now >= probe_next:
                    probe_sample(probe_next)
                    probe_next += probe_interval
            if measuring:
                metrics.record_busy_period()
                report_at -= slot_duration

            # Non-transmitting stations decrement their counter once per
            # virtual slot, busy or idle (Bianchi's renewal model, which is
            # also what Eq. 2-3 assume).  The real-standard "freeze during
            # busy periods" behaviour is modelled by the event-driven
            # simulator instead.
            waiting = window > 0 if traffic is None else (window > 0) & contenders
            if success:
                station = int(transmitters[0])
                if retry_counts is not None:
                    retry_counts[station] = 0
                if traffic is not None:
                    # The delivered frame leaves the FIFO; the station parks
                    # if nothing else is queued.
                    delay = self._queues[station].pop(now)
                    if measuring:
                        metrics.record_queue_delay(delay)
                    frame_departed(station)
                    has_frame[station] = len(self._queues[station]) > 0
                if measuring:
                    metrics.record_success(station, payload)
                    cumulative_bits += payload
                if probe_buf is not None:
                    probe_bits[station] += payload
                self._controller.on_packet_received(station, payload, now)
                control = self._controller.control()
                if control:
                    self._apply_control_to_all(control)
                counters[station] = self._policies[station].on_success(self._rng)
            else:
                for station in transmitters:
                    station = int(station)
                    if measuring:
                        metrics.record_failure(station)
                    if retry_counts is not None:
                        retry_counts[station] += 1
                        if retry_counts[station] >= retry_limit:
                            # 802.11 retry limit: discard the frame, reset
                            # the contention window (a success draw) and
                            # move on to the next frame, if any.
                            retry_counts[station] = 0
                            if tel_on:
                                t_discards += 1
                            if measuring:
                                metrics.record_retry_discard()
                            if traffic is not None:
                                self._queues[station].pop(now)
                                frame_departed(station)
                                has_frame[station] = (
                                    len(self._queues[station]) > 0
                                )
                            counters[station] = (
                                self._policies[station].on_success(self._rng)
                            )
                            continue
                    counters[station] = self._policies[station].on_failure(self._rng)
            window[waiting] -= 1

            if measuring and report_at <= 0:
                report_at = self._sample_reports(
                    metrics, now, cumulative_bits, bits_at_last_report, report_at
                )
                bits_at_last_report = cumulative_bits

        if traffic is not None:
            # Final drain: count the tail arrivals between the last loop
            # iteration's clock and the horizon (the busy slot that ended
            # the run may have jumped past several of them).
            self._process_arrivals(streams, end_time, active, measuring,
                                   metrics, has_frame)
        if tel_on:
            tel.counters("slotted", {
                "virtual_slots": t_virtual_slots,
                "idle_fast_forwards": t_idle_ffwd,
                "busy_slots": t_busy,
                "retry_discards": t_discards,
                "num_stations": self._num_stations,
            })
        if probe_buf is not None:
            record = _probes.probe_record("slotted", probe_buf, probe,
                                          probe_t0, seed=self._seed)
            if record is not None:
                tel.emit(record)
        extra: Dict[str, object] = {
            "scheme": self._scheme.name,
            "simulator": "slotted",
            "num_stations": self._num_stations,
            "warmup": warmup,
        }
        if traffic is not None:
            extra["traffic"] = traffic.kind
            extra["offered_rate_fps"] = traffic.mean_rate_fps
            extra["queued_frames"] = sum(len(q) for q in self._queues)
        return metrics.result(duration=duration, extra=extra)

    # ------------------------------------------------------------------
    @property
    def queue_lengths(self) -> Tuple[int, ...]:
        """Per-station FIFO occupancy (empty tuple for saturated runs)."""
        return tuple(len(queue) for queue in self._queues)

    def _process_arrivals(
        self,
        streams: List[ArrivalStream],
        now: float,
        active: int,
        measuring: bool,
        metrics: MetricsCollector,
        has_frame: np.ndarray,
    ) -> None:
        """Offer every arrival at or before ``now`` to its station's queue.

        Arrivals to schedule-inactive stations and to full queues are
        dropped; a 0 -> 1 queue transition rejoins the station (its frozen
        counter re-enters the contention minimum on the next virtual slot).
        """
        for station, stream in enumerate(streams):
            while stream.next_time <= now:
                arrival = stream.advance()
                if measuring:
                    metrics.record_arrival()
                if station >= active or not self._queues[station].offer(arrival):
                    if measuring:
                        metrics.record_drop()
                else:
                    has_frame[station] = True

    def _apply_control_to_all(self, control: Dict[str, float]) -> None:
        if not control or control == self._applied_control:
            return
        for policy in self._policies:
            policy.apply_control(control)
        self._applied_control = dict(control)

    def _handle_activity_change(self, old_active: int, new_active: int,
                                counters: np.ndarray) -> None:
        """Stations joining the network draw a fresh backoff and control."""
        if new_active <= old_active:
            return
        control = self._controller.control()
        for station in range(old_active, new_active):
            policy = self._policies[station]
            if control:
                policy.apply_control(control)
            counters[station] = policy.initial_backoff(self._rng)

    def _sample_reports(self, metrics: MetricsCollector, now: float,
                        cumulative_bits: int, bits_at_last_report: int,
                        deficit: float = 0.0) -> float:
        """Record timeline samples and return the refreshed report countdown.

        ``deficit`` is the (non-positive) remainder of the countdown at the
        moment the sample fired; crediting it against the next interval keeps
        the samples anchored to the ``warmup + k * report_interval`` grid
        instead of drifting later by one busy slot per sample.
        """
        interval = self._report_interval or 0.0
        delta_bits = cumulative_bits - bits_at_last_report
        metrics.record_throughput_sample(now, delta_bits / interval if interval else 0.0)
        control_value = _primary_control_value(self._controller.control())
        if control_value is not None:
            metrics.record_control_sample(now, control_value)
        return interval + deficit


def run_slotted(
    scheme: Scheme,
    num_stations: int,
    duration: float,
    warmup: float = 0.0,
    phy: Optional[PhyParameters] = None,
    seed: int = 0,
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SlottedSimulator`."""
    simulator = SlottedSimulator(
        scheme, num_stations=num_stations, phy=phy, seed=seed, **kwargs
    )
    return simulator.run(duration=duration, warmup=warmup)
