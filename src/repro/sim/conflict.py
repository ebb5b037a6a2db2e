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
owns a block-buffered :class:`~repro.sim.ledger.CellStreams` generator, and
uniforms are consumed in an order that is a deterministic function of that
cell's own trajectory (fixed draw counts per event kind, fixed category
order inside an event instant, station order within a category).  A cell's
results are therefore bit-identical no matter which other cells share its
batch — topologies and station counts may differ freely inside one batch.

Results are statistically equivalent to :class:`repro.sim.simulation
.WlanSimulation` (the cross-validation oracle) but not bit-identical to it:
the random streams are consumed in a different order.

Books
-----

The per-cell books live in :mod:`repro.sim.ledger`, shared with the renewal
kernel: the argument checks, random streams, arrival queues and retry
counters, the measurement window (success and failure tallies, busy
periods, report bits and time lines, the warm-up reset), the 802.11
retry-limit discard, probe sampling and result assembly.  This module keeps
the contention logic and what depends on its nanosecond clock: channel
occupancy (busy time and the Table III idle-slot accounting), the
measurement marks (``next_mark``) and the eager ACK.

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

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..phy.constants import NS_PER_SECOND, PhyParameters, seconds_to_ns
from ..telemetry import current as _telemetry
from ..topology.graph import ConnectivityGraph
from ..traffic import ArrivalProcess
from .batched import make_batched_system
from .ledger import CellBatch, CellLedger
from .metrics import SimulationResult

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


class BatchedConflictSimulator(CellBatch):
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

    _scope = "conflict"
    _result_tag = {"simulator": "batched", "backend": "conflict-matrix"}

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
        super().__init__(policy_bank, controller_bank, num_stations, seeds,
                         duration, warmup, phy, frame_error_rate,
                         report_interval, scheme_name, traffic)
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
        warmup_ns = np.int64(seconds_to_ns(self._warmup))
        end_ns = np.int64(seconds_to_ns(self._warmup + self._duration))
        interval = self._interval
        interval_ns = np.int64(seconds_to_ns(interval)) if interval else None
        fer = self._fer
        fer_on = fer > 0.0

        n = self._n
        num_cells = n.size
        max_n = int(self._sensing.shape[1])
        ledger = CellLedger(self, max_n, scale=NS_PER_SECOND)
        streams = ledger.streams
        traffic = self._traffic
        arrivals = ledger.arrivals
        exists = ledger.exists
        # Carrier sense is a float32 batched matrix-vector product, which
        # numpy hands to BLAS (bool matmul is unsupported and integer matmul
        # is not BLAS).  It is exact: every partial sum is an integer count
        # of at most S transmitters, far below float32's 2^24 integer line.
        sense_f32 = self._sensing.astype(np.float32)

        k_succ = bank.draws_success
        k_fail = bank.draws_failure
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

        # Initial backoffs for every station; everyone then waits DIFS from
        # t = 0, exactly like freshly activated StationProcess instances.
        remaining = ledger.initial_backoffs(0)
        remaining_f = remaining.reshape(-1)
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

        # Per-cell clocks and channel-occupancy accounting (the rest of the
        # books are the ledger's).
        now = np.zeros(num_cells, dtype=np.int64)
        measuring = ledger.measuring
        busy_periods = ledger.busy_periods
        active_cnt = np.zeros(num_cells, dtype=np.int64)
        busy_since = np.zeros(num_cells, dtype=np.int64)
        busy_total = np.zeros(num_cells, dtype=np.int64)
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
        none_measuring = ledger.none_measuring
        all_measuring = ledger.all_measuring
        ack_skip = np.int64(ack_ns + difs)
        any_resume = False

        # Loop-level telemetry: plain-int counters behind a hoisted enabled
        # flag; they never touch the random streams, so results are
        # bit-identical with telemetry on or off.  Each carrier-sense
        # recompute is one (cells x stations x stations) boolean matrix
        # product, so its work is tracked as ``recomputes x cells x S^2``.
        tel = _telemetry()
        tel_on = tel.enabled
        t_iterations = t_starts = t_ends = t_sense = 0

        # Probe boundaries are drained right after each event jump, *before*
        # the instant's events are processed, so each sample sees the state
        # the cell carried across the boundary.  The channel-busy time of
        # the probe windows is kept apart from the warm-up-reset measurement
        # accounting.
        probes = ledger.probes
        if probes is not None:
            p_busy_since = np.zeros(num_cells, dtype=np.int64)
            p_busy_total = np.zeros(num_cells, dtype=np.int64)
            p_busy_snap = np.zeros(num_cells, dtype=np.int64)
            p_interval = float(probes.interval)

            def busy_frac(cell: int, boundary) -> float:
                busy_at = int(p_busy_total[cell])
                if active_cnt[cell] > 0:
                    busy_at += int(boundary) - int(p_busy_since[cell])
                frac = (busy_at - int(p_busy_snap[cell])) / p_interval
                p_busy_snap[cell] = busy_at
                return frac

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
            if probes is not None:
                probes.drain(now, busy_frac)

            # -- warm-up crossing (exact, the boundary bounds the jump) ----
            if not all_measuring:
                cross = (now >= warmup_ns) > measuring
                if np.count_nonzero(cross):
                    ledger.start_measuring(cross)
                    none_measuring = False
                    all_measuring = ledger.all_measuring
                    busy_total[cross] = 0
                    mid_busy = cross & (active_cnt > 0)
                    busy_periods[mid_busy] = 1
                    busy_since[mid_busy] = now[mid_busy]
                    next_mark[cross] = (
                        warmup_ns + interval_ns if interval_ns else _NEVER
                    )

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
                if probes is not None:
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
                    base = streams.claim(
                        np.bincount(f_cells, minlength=num_cells) * k_fail)
                    discarded = ledger.redraw_losers(
                        ff, f_cells, ff - f_cells * max_n, base,
                        remaining_f, now)
                    # The transmitters learn the failure now (no ACK) and
                    # re-enter contention after the busy recompute below; a
                    # discard may have emptied a queue, and only stations
                    # still holding a frame re-enter.
                    resume_f[ff] = True
                    if discarded is not None and traffic is not None:
                        resume_f[discarded] = (
                            arrivals.has_frame().reshape(-1)[discarded]
                        )
                    any_resume = True

                if n_fail < n_ends:
                    # At most one clean frame can end per cell per instant
                    # (two frames ending together overlapped, hence failed).
                    succ = ~fail
                    sf = ef[succ]
                    s_cells = e_cells[succ]
                    s_st = sf - s_cells * max_n
                    # The delivered frame leaves the winner's FIFO before
                    # the eager reschedule below, so an emptied winner is
                    # excluded from it and parks.
                    ledger.delivered(sf, s_cells, s_st, now)
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
                if probes is not None:
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
                    ledger.report(due, now)
                    next_mark[due] += interval_ns

        # Close the occupancy accounting for cells still busy at the end.
        still = active_cnt > 0
        busy_total[still] += end_ns - busy_since[still]
        if tel_on:
            tel.counters(self._scope, {
                "loop_iterations": t_iterations,
                "frame_starts": t_starts,
                "frame_ends": t_ends,
                "sense_recomputes": t_sense,
                "sense_product_ops": t_sense * num_cells * max_n * max_n,
                "retry_discards": ledger.discards,
                "cells": num_cells,
                "max_stations": max_n,
            })
        # Table III accounting, mirroring WlanSimulation's finalisation:
        # subtract the per-period framing overheads from the non-busy time
        # and express the contention idle time in backoff slots.
        overhead_s = (busy_periods * phy.difs
                      + ledger.successes.sum(axis=1)
                      * (phy.sifs + phy.ack_tx_time))
        idle_s = np.maximum(
            self._duration - busy_total / NS_PER_SECOND - overhead_s, 0.0)
        hidden_pairs = [
            {"hidden_pairs": int((~self._sensing[c, :k, :k]).sum() - k) // 2}
            for c, k in enumerate(n.tolist())
        ]
        return ledger.results((idle_s / phy.slot_time).astype(np.int64), tel,
                              hidden_pairs)


def run_conflict(
    kind: str,
    params: Dict[str, object],
    topologies: Iterable[ConnectivityGraph],
    seeds: Sequence[int],
    duration: float,
    warmup: float = 0.0,
    phy: Optional[PhyParameters] = None,
    **kwargs,
) -> List[SimulationResult]:
    """One-call convenience wrapper: derive matrices, build banks, run.

    ``topologies`` supplies each cell's sensing graph, in cell order; scheme
    ``kind`` / ``params`` use the
    :class:`~repro.experiments.campaign.SchemeSpec` vocabulary exactly like
    :func:`repro.sim.batched.run_batched`.  The graphs are read once, before
    the run, so a generator that builds each one on demand keeps none of
    them alive while the batch runs.
    """
    matrices = [graph.sensing_matrix() for graph in topologies]
    if len(matrices) != len(seeds):
        raise ValueError("topologies and seeds must have equal length")
    phy = phy or PhyParameters()
    num_stations = [len(matrix) for matrix in matrices]
    sensing = stack_sensing_matrices(matrices)
    policy_bank, controller_bank, name = make_batched_system(
        kind, dict(params), len(seeds), int(max(num_stations)), phy,
        station_observations=True,
    )
    simulator = BatchedConflictSimulator(
        policy_bank, controller_bank, sensing, num_stations, seeds,
        duration=duration, warmup=warmup, phy=phy, scheme_name=name, **kwargs,
    )
    return simulator.run()
