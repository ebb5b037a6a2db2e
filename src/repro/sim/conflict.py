"""Conflict-matrix vectorized simulator for arbitrary sensing graphs.

:mod:`repro.sim.batched` vectorizes *fully connected* cells as a renewal
process over virtual slots — a model that is exact only when every station
observes the same channel.  Hidden-node topologies (Figures 4-7, the largest
grids of the reproduction) break that assumption: stations count down
*through* the transmissions of stations they cannot sense, frames overlap
partially in continuous time, and collisions happen at the AP between
transmitters that never deferred to each other.

This module vectorizes that regime too.  Each cell carries a boolean
station x station **sensing matrix** (derived from
:meth:`repro.topology.graph.ConnectivityGraph.sensing_matrix`), and the
simulator advances **many cells at once** by jumping every cell to its own
next event (a transmission start or end, a controller tick, a reporting
boundary), in integer nanoseconds exactly like the scalar event-driven
simulator.  Carrier sense is a masked matrix product (``sensing @
transmitting``), collision resolution follows the paper's Section II rule
(any temporal overlap between two data frames corrupts both, regardless of
where the transmitters are — the "interference matrix" at the AP is
all-pairs), and freezing/resuming replicates the per-station MAC state
machine of :mod:`repro.sim.node`: DIFS deferral, whole-slot freeze
accounting, and the committed-transmission rule (a countdown that expires at
the instant the channel turns busy still transmits).

The one deliberate simplification relative to the event-driven simulator is
the ACK: because a successful frame by definition overlapped no other data
frame, the channel is provably clear at its end, so the SIFS + ACK window
and the post-ACK DIFS are *scheduled eagerly* at the frame-end event instead
of being modelled as separate events (stations hidden from the transmitter
still consume the backoff slots that fit into the SIFS gap, and countdowns
committed inside the gap still fire).  This halves the event count; the only
divergence is the freeze instant of a station that senses a transmission
*started inside a SIFS gap* (16 us), which is statistically negligible and
covered by the cross-validation envelope.

Reproducibility contract
------------------------

Identical to :class:`~repro.sim.batched.BatchedSlottedSimulator`: each cell
owns a block-buffered :class:`~repro.sim.batched.CellStreams` generator, and
uniforms are consumed in an order that is a deterministic function of that
cell's own trajectory (fixed draw counts per event kind, fixed category
order inside an event instant, station order within a category).  A cell's
results are therefore bit-identical no matter which other cells share its
batch — topologies and station counts may differ freely inside one batch.

Results are statistically equivalent to :class:`repro.sim.simulation
.WlanSimulation` (the cross-validation oracle) but not bit-identical to it:
the random streams are consumed in a different order.

Cost per event instant
----------------------

At batch widths the loop is bound by interpreter dispatch, not arithmetic,
so its layout minimises the number and the cost of numpy calls per instant:

* **Flat per-station state.**  Every ``(cells, S)`` array has a 1-D view, and
  station ``s`` of cell ``c`` is addressed as ``c * S + s``.  One ``nonzero``
  over a flat mask yields the indices of an update (freeze, resume, frame
  start, frame end); ``cell = flat // S`` is formed only where a per-cell
  value is read.  A one-index gather or scatter costs a fraction of a
  two-index one.  The per-station IdleSense bank uses the same layout.
* **One fused observation per instant.**  Two groups of stations observe a
  transmission at an instant: the starters (their own frame) and the
  stations that freeze on the carrier-sense rising edge.  Every rising
  station sensed no frame before the instant — the stored busy view covers
  every earlier start, and frame ends only clear it — so it sensed one of
  the instant's starts.  The starters' observations are recorded when they
  start and handed to the bank together with the rising stations' in one
  call after the edge pass.  That is exact: the two groups are disjoint (a
  starter is transmitting, so it never contends), the bank touches each
  station's state only through its own index, and no bank draw happens
  between the two points.
* **Carrier sense in float32.**  The busy view is a batched matrix-vector
  product of the sensing matrices with a float32 mirror of the transmitting
  mask, which numpy hands to BLAS.  It is exact because every partial sum
  is an integer count of at most ``S`` transmitters, far below float32's
  2^24 limit for consecutive integers.
* **C-level guards and reductions.**  ``np.count_nonzero`` guards each
  branch, one reduction over the stacked ``(start_at, tx_end)`` schedule
  finds every cell's next own event and one comparison marks both starts
  and ends, and per-instant scratch arrays are allocated once.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..phy.constants import NS_PER_SECOND, PhyParameters, seconds_to_ns
from ..telemetry import current as _telemetry
from ..telemetry import probes as _probes
from ..topology.graph import ConnectivityGraph
from ..traffic import ArrivalProcess, BatchedArrivals
from .batched import CellStreams, batchable_scheme, make_batched_system
from .metrics import SimulationResult, StationStats

__all__ = [
    "BatchedConflictSimulator",
    "stack_sensing_matrices",
    "run_conflict",
]

#: Sentinel time for "no event scheduled"; far beyond any simulated horizon.
_NEVER = np.int64(2) ** 62


def _flat_nonzero(mask: np.ndarray) -> np.ndarray:
    """Ascending flat indices of the True entries of a C-contiguous mask.

    Same result as :func:`numpy.flatnonzero`, minus its Python-level
    wrapper, which costs several times the C call at batch widths.
    """
    return mask.ravel().nonzero()[0]


def stack_sensing_matrices(
    matrices: Sequence[np.ndarray],
    max_stations: Optional[int] = None,
) -> np.ndarray:
    """Pad per-cell sensing matrices into one ``(cells, S, S)`` array.

    ``matrices[c]`` is a square boolean matrix (station ``i`` senses station
    ``j``); cells may have different sizes.  Padded rows/columns are False,
    so padded stations sense nothing and are sensed by nobody.
    """
    if not matrices:
        raise ValueError("need at least one sensing matrix")
    sizes = []
    for matrix in matrices:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("sensing matrices must be square")
        sizes.append(matrix.shape[0])
    width = max(sizes) if max_stations is None else int(max_stations)
    if width < max(sizes):
        raise ValueError("max_stations is smaller than a cell's matrix")
    stacked = np.zeros((len(matrices), width, width), dtype=bool)
    for cell, matrix in enumerate(matrices):
        k = sizes[cell]
        stacked[cell, :k, :k] = np.asarray(matrix, dtype=bool)
    return stacked


class BatchedConflictSimulator:
    """Vectorized event-jump simulator over a batch of sensing-graph cells.

    All cells share the scheme (policy/controller banks), PHY, durations,
    frame error rate and reporting options; they differ in station count,
    topology (sensing matrix) and random seed — exactly the shape of one
    column of a hidden-node campaign grid.

    Parameters
    ----------
    policy_bank / controller_bank:
        Vectorized station policies and AP controller sized for this batch.
        Channel-observing policies must carry *per-station* observation
        state (``per_station_observations``), because stations of one cell
        see different channels on a general sensing graph.
    sensing:
        Boolean array of shape ``(cells, S, S)``; ``sensing[c, i, j]`` is
        True iff station ``i`` of cell ``c`` carrier-senses station ``j``'s
        transmissions.  Must be symmetric per cell; the diagonal is ignored
        (a station never senses its own transmission) and entries beyond
        each cell's station count must be False
        (:func:`stack_sensing_matrices` produces this layout).
    num_stations / seeds / duration / warmup / phy / frame_error_rate /
    report_interval:
        As in :class:`~repro.sim.batched.BatchedSlottedSimulator`.  Dynamic
        activity schedules are not supported on this backend.
    traffic:
        Optional :class:`~repro.traffic.ArrivalProcess` shared by every
        cell (``None``/saturated keeps the classic behaviour
        bit-identically).  Stations with empty queues park — their
        remaining backoff frozen, no transmission scheduled — and rejoin
        contention at their next frame arrival (DIFS first, exactly like a
        post-freeze resume).  Arrival draws come from separate per-cell
        salted streams, so the contention streams and their composition
        independence are untouched.
    """

    def __init__(
        self,
        policy_bank,
        controller_bank,
        sensing: np.ndarray,
        num_stations: Sequence[int],
        seeds: Sequence[int],
        duration: float,
        warmup: float = 0.0,
        phy: Optional[PhyParameters] = None,
        frame_error_rate: float = 0.0,
        report_interval: Optional[float] = None,
        scheme_name: Optional[str] = None,
        traffic: Optional[ArrivalProcess] = None,
    ) -> None:
        if len(num_stations) != len(seeds):
            raise ValueError("num_stations and seeds must have equal length")
        if not num_stations:
            raise ValueError("a batch needs at least one cell")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if report_interval is not None and report_interval <= 0:
            raise ValueError("report_interval must be positive")
        if not 0.0 <= frame_error_rate < 1.0:
            raise ValueError("frame_error_rate must lie in [0, 1)")
        self._n = np.asarray(num_stations, dtype=np.int64)
        if np.any(self._n < 1):
            raise ValueError("every cell needs at least one station")
        sensing = np.asarray(sensing, dtype=bool)
        if sensing.ndim != 3 or sensing.shape[1] != sensing.shape[2]:
            raise ValueError("sensing must have shape (cells, S, S)")
        if sensing.shape[0] != self._n.size:
            raise ValueError("sensing and num_stations disagree on cell count")
        if sensing.shape[1] < int(self._n.max()):
            raise ValueError("sensing matrices are smaller than num_stations")
        if not np.array_equal(sensing, sensing.transpose(0, 2, 1)):
            raise ValueError("sensing matrices must be symmetric")
        exists = (np.arange(sensing.shape[1])[None, :] < self._n[:, None])
        pair_exists = exists[:, :, None] & exists[:, None, :]
        if np.any(sensing & ~pair_exists):
            raise ValueError(
                "sensing entries beyond a cell's station count must be False"
            )
        sensing = sensing.copy()
        diag = np.arange(sensing.shape[1])
        sensing[:, diag, diag] = False
        self._sensing = sensing
        self._bank = policy_bank
        if policy_bank.observes_channel and not getattr(
                policy_bank, "per_station_observations", False):
            raise ValueError(
                "channel-observing policy banks need per-station observation "
                "state on a sensing graph (per-cell observation assumes a "
                "fully connected cell)"
            )
        if policy_bank.observes_channel and (
                policy_bank.windows.shape != sensing.shape[:2]):
            raise ValueError(
                "the policy bank's (cells, stations) shape must match the "
                "sensing matrices (observations use flat station indices)"
            )
        self._controller = controller_bank
        self._seeds = list(seeds)
        self._duration = float(duration)
        self._warmup = float(warmup)
        self._phy = phy or PhyParameters()
        self._fer = float(frame_error_rate)
        self._interval = report_interval
        self._scheme_name = scheme_name
        # The retry limit outlives the saturated -> None canonicalisation:
        # bounded retries are orthogonal to the arrival process.
        self._retry_limit = traffic.retry_limit if traffic is not None else None
        if traffic is not None and traffic.is_saturated:
            traffic = None
        self._traffic = traffic

    # ------------------------------------------------------------------
    def run(self) -> List[SimulationResult]:
        """Simulate every cell for ``warmup + duration`` seconds."""
        bank = self._bank
        controller = self._controller
        phy = self._phy
        sigma = np.int64(phy.slot_time_ns)
        difs = np.int64(phy.difs_ns)
        sifs = np.int64(phy.sifs_ns)
        data_ns = np.int64(phy.data_tx_time_ns)
        ack_ns = np.int64(phy.ack_tx_time_ns)
        payload = phy.payload_bits
        warmup_ns = np.int64(seconds_to_ns(self._warmup))
        end_ns = np.int64(seconds_to_ns(self._warmup + self._duration))
        interval = self._interval
        interval_ns = np.int64(seconds_to_ns(interval)) if interval else None
        fer = self._fer
        fer_on = fer > 0.0

        n = self._n
        num_cells = n.size
        max_n = int(self._sensing.shape[1])
        st_range = np.arange(max_n)
        exists = st_range[None, :] < n[:, None]
        # Carrier sense is a float32 batched matrix-vector product, which
        # numpy hands to BLAS (bool matmul is unsupported and integer matmul
        # is not BLAS).  It is exact: every partial sum is an integer count
        # of at most S transmitters, far below float32's 2^24 integer line.
        sense_f32 = self._sensing.astype(np.float32)

        k_init = bank.draws_initial
        k_succ = bank.draws_success
        k_fail = bank.draws_failure
        draws = max(k_init, k_succ, k_fail)
        # Block sizes depend on each cell's own parameters only — refill
        # points are part of the cell's random-stream trajectory (see
        # CellStreams).
        blocks = np.maximum(4096, 8 * n * draws)
        streams = CellStreams(self._seeds, block=blocks)
        observes = bank.observes_channel
        adaptive = controller.primary_control() is not None or (
            controller.tick_interval is not None
        )
        tick = controller.tick_interval
        tick_ns = np.int64(seconds_to_ns(tick)) if tick else None

        # Per-(cell, station) MAC state.  A station is in exactly one of:
        # counting/DIFS (start_at finite), frozen-deferring (start_at NEVER,
        # not transmitting) or transmitting (tx_end finite).  ``remaining``
        # holds the backoff slots not yet counted; it is only debited when a
        # countdown freezes, mirroring StationProcess.  Each array has a 1-D
        # view (suffix ``_f``) for per-station updates by flat index, and
        # ``start_at``/``tx_end`` are the two planes of one schedule array
        # (see the module docstring).
        remaining = np.zeros((num_cells, max_n), dtype=np.int64)
        counter_start = np.full((num_cells, max_n), _NEVER, dtype=np.int64)
        schedule = np.full((2, num_cells, max_n), _NEVER, dtype=np.int64)
        start_at, tx_end = schedule
        txing = np.zeros((num_cells, max_n), dtype=bool)
        # float32 mirror of ``txing`` shaped for the carrier-sense product.
        txing_f32 = np.zeros((num_cells, max_n, 1), dtype=np.float32)
        corrupt = np.zeros((num_cells, max_n), dtype=bool)
        busy = np.zeros((num_cells, max_n), dtype=bool)
        new_busy = np.zeros((num_cells, max_n), dtype=bool)
        sense_cnt = np.zeros((num_cells, max_n, 1), dtype=np.float32)
        hits = np.zeros((2, num_cells, max_n), dtype=bool)
        starting_f = hits[0].reshape(-1)
        ending_f = hits[1].reshape(-1)
        remaining_f = remaining.reshape(-1)
        counter_f = counter_start.reshape(-1)
        start_f = start_at.reshape(-1)
        end_f = tx_end.reshape(-1)
        txing_f = txing.reshape(-1)
        txing_f32_f = txing_f32.reshape(-1)
        corrupt_f = corrupt.reshape(-1)
        if observes:
            obs_idle_f = np.zeros(num_cells * max_n, dtype=np.int64)
        # Per-cell scratch reused by every success instant.
        smask = np.zeros(num_cells, dtype=bool)
        succ_counts = np.zeros(num_cells, dtype=np.int64)
        gap = np.zeros(num_cells, dtype=np.int64)

        # Traffic state lives in its own per-cell salted streams, so the
        # contention stream consumption is identical whether or not the
        # workload is saturated.
        traffic = self._traffic
        arrivals = (None if traffic is None
                    else BatchedArrivals(traffic, self._seeds, n, max_n))

        # Bounded-retry state (allocated only when a limit is configured, so
        # the default infinite-retry path is untouched).
        retry_limit = self._retry_limit
        if retry_limit is not None:
            retry_f = np.zeros(num_cells * max_n, dtype=np.int64)
            retry_disc = np.zeros(num_cells, dtype=np.int64)
        else:
            retry_f = None
            retry_disc = None

        # Initial backoffs for every station; everyone then waits DIFS from
        # t = 0, exactly like freshly activated StationProcess instances.
        init_cells, init_st = np.nonzero(exists)
        base = streams.claim(n * k_init)
        offsets = base[init_cells] + init_st * k_init
        remaining[init_cells, init_st] = bank.initial_draw(
            init_cells, init_st, streams.gather(init_cells, offsets, k_init)
        )
        counter_start[exists] = difs
        start_at[exists] = difs + remaining[exists] * sigma
        if traffic is not None:
            # Open-loop queues start empty: those stations park with the
            # drawn backoff frozen until the first arrival rejoins them.
            # Closed-loop windows prefill their queues, so stations holding
            # a frame keep the saturated-style DIFS schedule from t = 0.
            park = exists & ~arrivals.has_frame()
            counter_start[park] = _NEVER
            start_at[park] = _NEVER

        # Per-cell clocks, metrics and channel-occupancy accounting.
        now = np.zeros(num_cells, dtype=np.int64)
        measuring = np.full(num_cells, self._warmup == 0.0)
        all_measuring = bool(measuring.all())
        successes = np.zeros((num_cells, max_n), dtype=np.int64)
        failures = np.zeros((num_cells, max_n), dtype=np.int64)
        successes_f = successes.reshape(-1)
        failures_f = failures.reshape(-1)
        active_cnt = np.zeros(num_cells, dtype=np.int64)
        busy_since = np.zeros(num_cells, dtype=np.int64)
        busy_total = np.zeros(num_cells, dtype=np.int64)
        busy_periods = np.zeros(num_cells, dtype=np.int64)
        cum_bits = np.zeros(num_cells, dtype=np.int64)
        bits_last = np.zeros(num_cells, dtype=np.int64)
        throughput_tl: List[List[Tuple[float, float]]] = [
            [] for _ in range(num_cells)
        ]
        control_tl: List[List[Tuple[float, float]]] = [
            [] for _ in range(num_cells)
        ]
        # ``next_mark`` is the next measurement boundary: the warm-up
        # crossing first, then every reporting instant (exact times, so no
        # countdown-deficit bookkeeping is needed).
        if warmup_ns > 0:
            next_mark = np.full(num_cells, warmup_ns)
        elif interval_ns:
            next_mark = np.full(num_cells, interval_ns)
        else:
            next_mark = np.full(num_cells, _NEVER)
        next_tick = np.full(num_cells, tick_ns if tick_ns else _NEVER)
        resume = np.zeros((num_cells, max_n), dtype=bool)
        resume_f = resume.reshape(-1)

        # Phase flags let the hot loop skip measurement bookkeeping before
        # the warm-up boundary (the bulk of every adaptive run).  The state
        # machines themselves (claims, draws, controller updates, the eager
        # ACK scheduling) always run — only metric recording is gated.
        none_measuring = not measuring.any()
        ack_skip = np.int64(ack_ns + difs)
        any_resume = False

        # Loop-level telemetry: plain-int counters behind a hoisted enabled
        # flag; they never touch the random streams, so results are
        # bit-identical with telemetry on or off.  Each carrier-sense
        # recompute is one (cells x stations x stations) boolean matrix
        # product, so its work is tracked as ``recomputes x cells x S^2``.
        tel = _telemetry()
        tel_on = tel.enabled
        t_iterations = t_starts = t_ends = t_sense = t_discards = 0

        # Simulator probes: boundaries are drained right after each event
        # jump, *before* the instant's events are processed, so each sample
        # sees the state the cell carried across the boundary.  Probe
        # boundaries never enter the jump minimum and the channel-busy
        # bookkeeping below is kept separate from the warm-up-reset
        # measurement accounting, so trajectories are unchanged.
        probe = _probes.current()
        probe_bufs: Optional[List[_probes.ProbeBuffer]] = None
        if probe is not None:
            probe_interval_ns = np.int64(seconds_to_ns(probe.interval))
            probe_bufs = [_probes.ProbeBuffer(probe.capacity)
                          for _ in range(num_cells)]
            probe_next = np.full(num_cells, probe_interval_ns, dtype=np.int64)
            probe_t0 = time.time()
            probe_bits = np.zeros((num_cells, max_n), dtype=np.int64)
            probe_bits_f = probe_bits.reshape(-1)
            probe_bits_prev = np.zeros((num_cells, max_n), dtype=np.int64)
            p_busy_since = np.zeros(num_cells, dtype=np.int64)
            p_busy_total = np.zeros(num_cells, dtype=np.int64)
            p_busy_snap = np.zeros(num_cells, dtype=np.int64)

            def probe_drain() -> None:
                due_mask = now >= probe_next
                if not np.count_nonzero(due_mask):
                    return
                due = np.flatnonzero(due_mask)
                bank_state = bank.probe_state()
                ctrl_state = controller.probe_state()
                queues = (arrivals.queue_lengths
                          if arrivals is not None else None)
                p_interval_s = probe_interval_ns / NS_PER_SECOND
                for cell in due:
                    cell = int(cell)
                    stations = int(n[cell])
                    while now[cell] >= probe_next[cell]:
                        boundary = int(probe_next[cell])
                        busy_at = int(p_busy_total[cell])
                        if active_cnt[cell] > 0:
                            busy_at += boundary - int(p_busy_since[cell])
                        values = _probes.flatten_bank_state(
                            bank_state, cell, stations)
                        values.update(_probes.flatten_bank_state(
                            ctrl_state, cell, stations))
                        delta = probe_bits[cell] - probe_bits_prev[cell]
                        for i in range(stations):
                            values[f"tput_mbps[{i}]"] = (
                                delta[i] / p_interval_s / 1e6
                            )
                        values["throughput_mbps"] = (
                            int(delta[:stations].sum()) / p_interval_s / 1e6
                        )
                        values["busy_frac"] = (
                            (busy_at - int(p_busy_snap[cell]))
                            / float(probe_interval_ns)
                        )
                        if queues is not None:
                            for i in range(stations):
                                values[f"queue[{i}]"] = float(queues[cell, i])
                        probe_bufs[cell].sample(boundary / NS_PER_SECOND,
                                                values)
                        p_busy_snap[cell] = busy_at
                        probe_bits_prev[cell] = probe_bits[cell]
                        probe_next[cell] += probe_interval_ns

        while True:
            if not np.count_nonzero(now < end_ns):
                break
            if tel_on:
                t_iterations += 1

            # Jump every cell to its own next event instant.  Finished cells
            # have no schedulable event at or before end_ns, so the clamp
            # parks them exactly there.
            t = np.minimum.reduce(schedule, axis=(0, 2))
            if tick_ns is not None:
                np.minimum(t, next_tick, out=t)
            np.minimum(t, next_mark, out=t)
            if traffic is not None:
                # Pending frame arrivals are event instants too: a parked
                # station must rejoin at (the ns ceiling of) its arrival.
                # The extra nanosecond guarantees progress: float rounding
                # of ``next * 1e9`` may land just below the true product,
                # and a bare ceiling would then jump to an instant whose
                # seconds value still compares below the arrival time.
                next_arrival = arrivals.next_min()
                arrival_ns = np.where(
                    np.isfinite(next_arrival),
                    np.ceil(next_arrival * NS_PER_SECOND) + 1.0,
                    float(_NEVER),
                ).astype(np.int64)
                np.minimum(t, arrival_ns, out=t)
            np.minimum(t, end_ns, out=t)
            now = t
            # Frame starts (plane 0) and ends (plane 1) due now.  Nothing
            # below moves a schedule entry *to* ``now`` (rejoins, eager
            # post-ACK reschedules and new frames all land later, and a
            # countdown committed at ``now`` is never rescheduled), so both
            # masks stay exact for the whole instant.
            np.equal(schedule, now[:, None], out=hits)
            if probe_bufs is not None:
                probe_drain()

            # -- warm-up crossing (exact, the boundary bounds the jump) ----
            if not all_measuring:
                cross = (now >= warmup_ns) > measuring
                if np.count_nonzero(cross):
                    measuring |= cross
                    none_measuring = False
                    successes[cross] = 0
                    failures[cross] = 0
                    cum_bits[cross] = 0
                    bits_last[cross] = 0
                    busy_total[cross] = 0
                    mid_busy = cross & (active_cnt > 0)
                    busy_periods[cross] = 0
                    busy_periods[mid_busy] = 1
                    busy_since[mid_busy] = now[mid_busy]
                    if traffic is not None:
                        arrivals.reset_measurement(cross)
                    if retry_disc is not None:
                        retry_disc[cross] = 0
                    next_mark[cross] = (
                        warmup_ns + interval_ns if interval_ns else _NEVER
                    )
                    all_measuring = bool(measuring.all())

            # -- controller ticks (finished cells have next_tick past
            #    end_ns, so no liveness mask is needed) --------------------
            if tick_ns is not None:
                due_tick = now >= next_tick
                if np.count_nonzero(due_tick):
                    controller.on_tick(due_tick, now / NS_PER_SECOND)
                    next_tick[due_tick] += tick_ns

            # -- frame arrivals (unsaturated workloads) -------------------
            if traffic is not None:
                rejoined = arrivals.advance(now / NS_PER_SECOND, exists)
                if np.count_nonzero(rejoined):
                    # A rejoining station resumes exactly like after a
                    # freeze: DIFS then its frozen countdown if its sensed
                    # channel is idle right now; otherwise it stays
                    # deferring and the next falling edge schedules it
                    # (the contention masks below include it from now on).
                    rf = _flat_nonzero(rejoined > (txing | busy))
                    resume_at = now[rf // max_n] + difs
                    counter_f[rf] = resume_at
                    start_f[rf] = resume_at + remaining_f[rf] * sigma

            changed = False

            # -- data-frame ends ------------------------------------------
            n_ends = np.count_nonzero(ending_f)
            if n_ends:
                changed = True
                ef = ending_f.nonzero()[0]
                # Flat indices ascend, so e_cells is sorted.
                e_cells = ef // max_n
                cnt_end = np.bincount(e_cells, minlength=num_cells)
                if tel_on:
                    t_ends += int(n_ends)
                active_cnt -= cnt_end
                if probe_bufs is not None:
                    p_idle = (cnt_end > 0) & (active_cnt == 0)
                    p_busy_total[p_idle] += (
                        now[p_idle] - p_busy_since[p_idle]
                    )
                if not none_measuring:
                    idle_now = (cnt_end > 0) & (active_cnt == 0)
                    busy_total[idle_now] += (
                        now[idle_now] - busy_since[idle_now]
                    )
                txing_f[ef] = False
                txing_f32_f[ef] = 0.0
                end_f[ef] = _NEVER

                fail = corrupt_f[ef]
                if fer_on:
                    # One channel-error draw per finished frame, corrupted or
                    # not (fixed consumption keeps the stream deterministic).
                    base = streams.claim(cnt_end)
                    rank = (np.arange(n_ends)
                            - e_cells.searchsorted(e_cells))
                    u = streams.buffer[e_cells, base[e_cells] + rank]
                    fail = fail | (u < fer)
                corrupt_f[ef] = False

                n_fail = np.count_nonzero(fail)
                if n_fail:
                    ff = ef[fail]
                    f_cells = e_cells[fail]
                    f_st = ff - f_cells * max_n
                    if not none_measuring:
                        failures_f[ff] += measuring[f_cells]
                    counts = np.bincount(
                        f_cells, minlength=num_cells
                    ) * k_fail
                    base = streams.claim(counts)
                    # f_cells is sorted, so the within-cell rank falls out
                    # of a searchsorted.
                    frank = (np.arange(n_fail)
                             - f_cells.searchsorted(f_cells))
                    offs = base[f_cells] + frank * k_fail
                    if retry_f is None:
                        remaining_f[ff] = bank.failure_draw(
                            f_cells, f_st,
                            streams.gather(f_cells, offs, k_fail),
                        )
                        # The transmitter learns the failure now (no ACK) and
                        # re-enters contention after the busy recompute below.
                        resume_f[ff] = True
                    else:
                        # Bounded retries: the failure claim above is made
                        # for *every* loser (fixed consumption keeps the
                        # stream deterministic) but only surviving frames
                        # use it; a discarding station drops its frame,
                        # resets its retry chain and redraws from a fresh
                        # success-claim, exactly like 802.11's CW reset
                        # after max retries.
                        tries = retry_f[ff] + 1
                        retry_f[ff] = tries
                        disc = tries >= retry_limit
                        keep = ~disc
                        kf, kc = ff[keep], f_cells[keep]
                        remaining_f[kf] = bank.failure_draw(
                            kc, f_st[keep],
                            streams.gather(kc, offs[keep], k_fail),
                        )
                        resume_f[kf] = True
                        n_disc = np.count_nonzero(disc)
                        if n_disc:
                            df, dc, ds = ff[disc], f_cells[disc], f_st[disc]
                            retry_f[df] = 0
                            if tel_on:
                                t_discards += int(n_disc)
                            if all_measuring:
                                np.add.at(retry_disc, dc, 1)
                            elif not none_measuring:
                                np.add.at(retry_disc, dc,
                                          measuring[dc].astype(np.int64))
                            if traffic is not None:
                                arrivals.pop_discard(dc, ds,
                                                     now / NS_PER_SECOND)
                            counts2 = np.bincount(
                                dc, minlength=num_cells
                            ) * k_succ
                            base2 = streams.claim(counts2)
                            drank = (np.arange(n_disc)
                                     - dc.searchsorted(dc))
                            remaining_f[df] = bank.success_draw(
                                dc, ds,
                                streams.gather(
                                    dc, base2[dc] + drank * k_succ, k_succ
                                ),
                            )
                            if traffic is not None:
                                # The discard may have emptied the queue:
                                # only stations still holding a frame
                                # re-enter contention.
                                resume_f[df] = (
                                    arrivals.has_frame().reshape(-1)[df]
                                )
                            else:
                                resume_f[df] = True
                    any_resume = True

                if n_fail < n_ends:
                    # At most one clean frame can end per cell per instant
                    # (two frames ending together overlapped, hence failed).
                    succ = ~fail
                    sf = ef[succ]
                    s_cells = e_cells[succ]
                    s_st = sf - s_cells * max_n
                    if retry_f is not None:
                        retry_f[sf] = 0
                    if traffic is not None:
                        # The delivered frame leaves the winner's FIFO
                        # (exact per-frame delay).  The pop precedes the
                        # eager reschedule below, so an emptied winner is
                        # excluded from it and parks.
                        arrivals.pop_success(s_cells, s_st,
                                             now / NS_PER_SECOND)
                    if probe_bufs is not None:
                        probe_bits_f[sf] += payload
                    if not none_measuring:
                        meas = measuring[s_cells]
                        successes_f[sf] += meas
                        if interval_ns:
                            cum_bits[s_cells] += payload * meas
                    if adaptive:
                        smask.fill(False)
                        smask[s_cells] = True
                        controller.on_packet_received(
                            smask, now / NS_PER_SECOND
                        )
                    succ_counts.fill(0)
                    succ_counts[s_cells] = k_succ
                    base = streams.claim(succ_counts)
                    remaining_f[sf] = bank.success_draw(
                        s_cells, s_st,
                        streams.gather(s_cells, base[s_cells], k_succ),
                    )
                    # Eager SIFS + ACK + DIFS scheduling: the channel of a
                    # success cell is provably clear, so every station's next
                    # countdown instant is known now.  Countdowns committed
                    # inside the SIFS gap (start_at <= gap) still fire;
                    # everyone else — counting, DIFS-waiting or frozen —
                    # freezes at the ACK onset and resumes DIFS after the
                    # ACK.  A frozen station's counter_start is the _NEVER
                    # sentinel, which drives ``elapsed`` hugely negative, so
                    # one shared max(..., 0) handles every case.  Other
                    # cells keep gap = _NEVER, which no start_at exceeds.
                    gap.fill(_NEVER)
                    gap[s_cells] = now[s_cells] + sifs
                    resched = exists & (start_at > gap[:, None])
                    if traffic is not None:
                        # Parked stations have nothing to send: leave their
                        # schedule at the _NEVER sentinel.
                        resched &= arrivals.has_frame()
                    rf = _flat_nonzero(resched)
                    r_gap = gap[rf // max_n]
                    r_rem = remaining_f[rf]
                    elapsed = np.minimum(
                        np.maximum((r_gap - counter_f[rf]) // sigma, 0),
                        r_rem,
                    )
                    r_rem -= elapsed
                    remaining_f[rf] = r_rem
                    if observes:
                        obs_idle_f[rf] += elapsed
                    resume_base = r_gap + ack_skip
                    counter_f[rf] = resume_base
                    start_f[rf] = resume_base + r_rem * sigma
                    # The channel is clear: clear the stored busy view so the
                    # generic edge pass below does not re-schedule the cell's
                    # stations over the eager post-ACK schedule.
                    busy[s_cells] = False

            # -- data-frame starts ----------------------------------------
            n_starts = np.count_nonzero(starting_f)
            if n_starts:
                changed = True
                sf = starting_f.nonzero()[0]
                s_cells = sf // max_n
                n_start = np.bincount(s_cells, minlength=num_cells)
                if tel_on:
                    t_starts += int(n_starts)
                if observes:
                    # A station observes its own transmission: the idle run
                    # plus the slots of the final countdown stint.  The
                    # observation is fed to the bank after the edge pass,
                    # together with the onsets it causes.
                    obs_flat = sf
                    obs_slots = obs_idle_f[sf] + remaining_f[sf]
                    obs_idle_f[sf] = 0
                txing_f[sf] = True
                txing_f32_f[sf] = 1.0
                end_f[sf] = now[s_cells] + data_ns
                start_f[sf] = _NEVER
                counter_f[sf] = _NEVER
                # Any temporal overlap between data frames corrupts every
                # frame in the air (the paper's all-pairs interference rule).
                started = n_start > 0
                collide = (active_cnt + n_start >= 2) & started
                if np.count_nonzero(collide):
                    corrupt |= txing & collide[:, None]
                if probe_bufs is not None:
                    p_fresh = (active_cnt == 0) & started
                    p_busy_since[p_fresh] = now[p_fresh]
                if not none_measuring:
                    fresh = (active_cnt == 0) & started
                    busy_since[fresh] = now[fresh]
                    busy_periods[fresh] += 1
                elif warmup_ns > 0:
                    # Only the "busy since" anchor matters pre-warm-up (the
                    # totals are reset at the crossing).
                    fresh = (active_cnt == 0) & started
                    busy_since[fresh] = now[fresh]
                active_cnt += n_start

            # -- carrier-sense recompute and freeze/resume edges ----------
            if changed:
                if tel_on:
                    t_sense += 1
                np.matmul(sense_f32, txing_f32, out=sense_cnt)
                np.greater(sense_cnt[:, :, 0], 0, out=new_busy)
                # exists & ~txing (& ~resume), as bool comparisons.
                contend = exists > txing
                if any_resume:
                    np.greater(contend, resume, out=contend)
                rising = (new_busy > busy) & contend
                if np.count_nonzero(rising):
                    # Freeze: debit the whole slots the countdown consumed
                    # (stations waiting out DIFS have a future counter_start,
                    # so the floor clamps their debit to zero).
                    rf = _flat_nonzero(rising)
                    r_rem = remaining_f[rf]
                    elapsed = np.minimum(
                        np.maximum(
                            (now[rf // max_n] - counter_f[rf]) // sigma, 0),
                        r_rem,
                    )
                    remaining_f[rf] = r_rem - elapsed
                    start_f[rf] = _NEVER
                    counter_f[rf] = _NEVER
                    if observes:
                        # A rising station sensed no frame before this
                        # instant (the stored busy view covers every earlier
                        # start, and ends only clear it), so it sensed one
                        # of this instant's starts: it observes that onset.
                        obs_flat = np.concatenate((obs_flat, rf))
                        obs_slots = np.concatenate(
                            (obs_slots, obs_idle_f[rf] + elapsed))
                        obs_idle_f[rf] = 0
                # Parked (empty-queue) stations stay in the rising/freeze
                # pass above — their debit clamps to zero, their schedule is
                # already the _NEVER sentinel, and they keep feeding
                # channel observations exactly like the event-driven
                # simulator's idle stations — but a falling edge must not
                # schedule a transmission for them: they rejoin on arrival.
                falling = (busy > new_busy) & contend
                if traffic is not None:
                    falling &= arrivals.has_frame()
                if any_resume:
                    # Failed transmitters sensing an idle channel resume
                    # like a falling edge (they are not in ``contend``, so
                    # the two sets are disjoint); deferring resumers simply
                    # wait for their falling edge.
                    falling |= resume > new_busy
                    resume.fill(False)
                    any_resume = False
                if np.count_nonzero(falling):
                    ff = _flat_nonzero(falling)
                    resume_at = now[ff // max_n] + difs
                    counter_f[ff] = resume_at
                    start_f[ff] = resume_at + remaining_f[ff] * sigma
                busy, new_busy = new_busy, busy
                if observes and n_starts:
                    # One fused call for the starters' own transmissions and
                    # the onsets they caused: the two sets are disjoint (a
                    # starter is transmitting, so it never contends), each
                    # station's state is touched only through its own index,
                    # and no bank draw happens in between.
                    bank.observe_stations(obs_flat, obs_slots)

            # -- reporting boundaries (exact instants; finished cells have
            #    next_mark past end_ns) -----------------------------------
            if interval_ns and not none_measuring:
                due = measuring & (now >= next_mark)
                if np.count_nonzero(due):
                    primary = controller.primary_control()
                    for cell in np.flatnonzero(due):
                        delta = int(cum_bits[cell] - bits_last[cell])
                        time_s = now[cell] / NS_PER_SECOND
                        throughput_tl[cell].append(
                            (time_s, delta / interval)
                        )
                        if primary is not None:
                            control_tl[cell].append(
                                (time_s, float(primary[cell]))
                            )
                        bits_last[cell] = cum_bits[cell]
                    next_mark[due] += interval_ns

        # Close the occupancy accounting for cells still busy at the end.
        still = active_cnt > 0
        busy_total[still] += end_ns - busy_since[still]
        if tel_on:
            tel.counters("conflict", {
                "loop_iterations": t_iterations,
                "frame_starts": t_starts,
                "frame_ends": t_ends,
                "sense_recomputes": t_sense,
                "sense_product_ops": t_sense * num_cells * max_n * max_n,
                "retry_discards": t_discards,
                "cells": num_cells,
                "max_stations": max_n,
            })
        if probe_bufs is not None:
            for cell in range(num_cells):
                record = _probes.probe_record(
                    "conflict", probe_bufs[cell], probe, probe_t0,
                    seed=self._seeds[cell], cell=cell,
                )
                if record is not None:
                    tel.emit(record)
        return self._build_results(successes, failures, busy_total,
                                   busy_periods, throughput_tl, control_tl,
                                   arrivals, retry_disc)

    # ------------------------------------------------------------------
    def _build_results(self, successes, failures, busy_total, busy_periods,
                       throughput_tl, control_tl,
                       arrivals: Optional[BatchedArrivals] = None,
                       retry_disc: Optional[np.ndarray] = None,
                       ) -> List[SimulationResult]:
        phy = self._phy
        payload = phy.payload_bits
        duration = self._duration
        station_idle = self._bank.station_observed_idle()
        results = []
        for cell in range(self._n.size):
            stations = int(self._n[cell])
            stats = tuple(
                StationStats(
                    station=i,
                    successes=int(successes[cell, i]),
                    failures=int(failures[cell, i]),
                    payload_bits=int(successes[cell, i]) * payload,
                    throughput_bps=int(successes[cell, i]) * payload / duration,
                )
                for i in range(stations)
            )
            cell_successes = int(successes[cell, :stations].sum())
            # Table III accounting, mirroring WlanSimulation's finalisation:
            # subtract the per-period framing overheads from the non-busy
            # time and express the contention idle time in backoff slots.
            busy_time_s = busy_total[cell] / NS_PER_SECOND
            overhead_s = (
                int(busy_periods[cell]) * phy.difs
                + cell_successes * (phy.sifs + phy.ack_tx_time)
            )
            idle_time_s = max(duration - busy_time_s - overhead_s, 0.0)
            block = self._sensing[cell, :stations, :stations]
            hidden_pairs = int((~block).sum() - stations) // 2
            extra: Dict[str, object] = {
                "simulator": "batched",
                "backend": "conflict-matrix",
                "num_stations": stations,
                "warmup": self._warmup,
                "hidden_pairs": hidden_pairs,
            }
            if self._scheme_name is not None:
                extra["scheme"] = self._scheme_name
            if station_idle is not None and not math.isnan(station_idle[cell]):
                extra["station_observed_idle"] = float(station_idle[cell])
            traffic_fields: Dict[str, object] = {}
            if arrivals is not None:
                traffic_fields = arrivals.annotate_result(cell, stations, extra)
            if retry_disc is not None:
                traffic_fields["retry_discards"] = int(retry_disc[cell])
            results.append(SimulationResult(
                duration=duration,
                station_stats=stats,
                total_throughput_bps=cell_successes * payload / duration,
                idle_slots=int(idle_time_s / phy.slot_time),
                busy_periods=int(busy_periods[cell]),
                throughput_timeline=tuple(throughput_tl[cell]),
                control_timeline=tuple(control_tl[cell]),
                extra=extra,
                **traffic_fields,
            ))
        return results


def run_conflict(
    kind: str,
    params: Dict[str, object],
    topologies: Sequence[ConnectivityGraph],
    seeds: Sequence[int],
    duration: float,
    warmup: float = 0.0,
    phy: Optional[PhyParameters] = None,
    **kwargs,
) -> List[SimulationResult]:
    """One-call convenience wrapper: derive matrices, build banks, run.

    ``topologies[c]`` supplies cell ``c``'s sensing graph; scheme ``kind`` /
    ``params`` use the :class:`~repro.experiments.campaign.SchemeSpec`
    vocabulary exactly like :func:`repro.sim.batched.run_batched`.
    """
    if len(topologies) != len(seeds):
        raise ValueError("topologies and seeds must have equal length")
    phy = phy or PhyParameters()
    if not batchable_scheme(kind, dict(params)):
        raise ValueError(f"scheme kind '{kind}' has no batched kernel")
    num_stations = [graph.num_stations for graph in topologies]
    sensing = stack_sensing_matrices(
        [graph.sensing_matrix() for graph in topologies]
    )
    policy_bank, controller_bank, name = make_batched_system(
        kind, dict(params), len(seeds), int(max(num_stations)), phy,
        station_observations=True,
    )
    simulator = BatchedConflictSimulator(
        policy_bank, controller_bank, sensing, num_stations, seeds,
        duration=duration, warmup=warmup, phy=phy, scheme_name=name, **kwargs,
    )
    return simulator.run()
