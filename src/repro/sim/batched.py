"""SIMD-style batched slotted simulator for fully connected cells.

:class:`~repro.sim.slotted.SlottedSimulator` advances *one* fully connected
cell through its virtual-slot renewal process with a Python-level loop per
busy slot.  This module advances **many independent cells simultaneously**:
all per-station state lives in 2-D NumPy arrays (axis 0 = cell, axis 1 =
station) and each loop iteration performs one renewal step for *every* cell
at once — backoff countdown, idle fast-forward, collision/success
resolution, per-scheme contention-window updates, frame errors,
activity-schedule joins/leaves, controller ticks and timeline sampling.
Interpreter overhead is therefore paid once per virtual slot *per batch*
rather than per cell, which is what lets one machine sweep orders of
magnitude more (scheme x N x seed) cells per hour.

Reproducibility contract
------------------------

Each cell owns a private ``numpy.random.Generator`` seeded with the cell's
task seed (the same ``derive_seed`` values the campaign engine already
uses).  Uniform variates are drawn in fixed-size blocks per cell
(:class:`~repro.sim.ledger.CellStreams`) and consumed in an order that is a
deterministic function of *that cell's own trajectory* (station order
within a slot, fixed draw counts per event kind — see
:mod:`repro.mac.batched`).  As a
consequence a cell's results are bit-identical no matter which other cells
share its batch — the property the campaign planner relies on to group
tasks freely and that the Hypothesis suite checks.

Batched results are statistically equivalent to the scalar slotted
simulator (same renewal model, same policy/controller state machines,
identically distributed draws) but not bit-identical to it: the random
streams are consumed in a different order.  Hidden-node topologies are out
of scope for *this* renewal-slot simulator; the conflict-matrix simulator
in :mod:`repro.sim.conflict` vectorizes those (with the scalar event-driven
:mod:`repro.sim.simulation` as the cross-validation oracle).

Books
-----

The per-cell books live in :mod:`repro.sim.ledger`, shared with the
conflict-matrix kernel: the argument checks, random streams, arrival queues
and retry counters, the measurement window (success and failure tallies,
busy periods, report bits and time lines, the warm-up reset), the 802.11
retry-limit discard, probe sampling and result assembly.  This module keeps
the renewal contention logic and what depends on its slot clock: idle
slots, the report countdown and activity changes.

Schemes
-------

Both kernels take a scheme as a kind and its parameters, the vocabulary
of :class:`~repro.experiments.campaign.SchemeSpec`.  The kind's one
declaration in :data:`repro.mac.schemes.SCHEME_KINDS` builds the policy
and controller banks (:func:`make_batched_system`) and says which
parameter sets the banks model (:func:`batchable_scheme`); there is no
second list of kinds, names or defaults here.

Cost per iteration
------------------

At batch widths the loop is bound by interpreter dispatch, not arithmetic,
so its layout minimises the number and the cost of numpy calls per renewal
iteration:

* **One counter reduction.**  Each iteration takes the per-cell minimum
  counter once.  The idle fast-forward then lowers it by the cell's advance
  instead of reducing again: every contending station of a cell counts down
  by the same advance, so the minimum moves by exactly that much.  A cell
  with no contender reads ``_INACTIVE - slots`` instead of ``_INACTIVE``;
  both are positive, so the cell still does not transmit.
* **One 2-D decrement.**  The counters are not lowered by the advance when
  it is taken.  The transmitters are the stations of transmitting cells
  whose counter *equals* the advance, and every contending counter then
  moves by ``advance + 1`` (transmitting cells) or ``advance`` (the rest)
  in one subtraction; an iteration without transmissions subtracts the
  advance alone.  This equals the two separate decrements because nothing
  reads the counters between them: ticks, probe drains and report samples
  read bank, controller and metric state only.
* **One flat transmitter list.**  One ``nonzero`` over the flat transmitter
  mask lists every transmitter as ``cell * S + station``; ``divmod`` splits
  the index and ``bincount`` counts transmitters per cell.  Row-major order
  is the (cell, station) order of the two-index code.  A succeeding cell has
  exactly one transmitter, and every transmitter of a losing cell is a
  collider, so a collider's rank among its cell's colliders is its distance
  from the cell's first transmitter, ``arange - searchsorted(cells,
  cells)``.
* **Flat views and C-level guards.**  Counters, success and failure tallies
  and retry counters are read and written through 1-D views with the
  transmitter list's flat indices, which costs a fraction of a two-index
  gather or scatter.  (The random streams keep two-index gathers: their
  callers hold (cell, offset) pairs, and forming a flat index costs more
  than it saves.)  ``np.count_nonzero`` guards each branch, and the warm-up
  crossing test runs only when more cells are past the boundary than are
  measuring (every measuring cell already is).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batched import BatchedControllerBank, BatchedStaticBank
from ..mac.batched import BatchedPolicyBank
from ..mac.schemes import SCHEME_KINDS, scheme_kind
from ..phy.constants import PhyParameters
from ..telemetry import current as _telemetry
from ..traffic import ArrivalProcess
from .dynamics import ActivitySchedule
from .ledger import CellBatch, CellLedger, CellStreams
from .metrics import SimulationResult

__all__ = [
    "CellStreams",
    "BatchedSlottedSimulator",
    "BATCHABLE_SCHEME_KINDS",
    "batchable_scheme",
    "make_batched_system",
    "run_batched",
]

#: Sentinel backoff counter for stations that are padded or inactive; large
#: enough that decrements over any realistic run leave it unreachable.
_INACTIVE = np.int64(2) ** 62


class BatchedSlottedSimulator(CellBatch):
    """Vectorized virtual-slot simulator over a batch of connected cells.

    All cells share the scheme (policy/controller banks), PHY, durations,
    frame error rate, reporting options and activity schedule; they differ in
    station count and random seed.  That is exactly the shape of one column
    of a campaign grid, which is how the campaign planner forms batches.

    Parameters
    ----------
    policy_bank / controller_bank:
        Vectorized station policies (:mod:`repro.mac.batched`) and AP
        controller (:mod:`repro.core.batched`) sized for this batch.
    num_stations:
        Per-cell station counts (the batch is padded to the maximum).
    seeds:
        Per-cell RNG seeds.
    duration / warmup / phy / frame_error_rate / report_interval / activity:
        As in :class:`~repro.sim.slotted.SlottedSimulator`, shared by every
        cell in the batch.
    traffic:
        Optional :class:`~repro.traffic.ArrivalProcess` shared by every
        cell.  ``None`` (or saturated) keeps the classic always-backlogged
        behaviour bit-identically; otherwise per-(cell, station) bounded
        FIFO queues gate contention (empty-queue stations freeze their
        counters and rejoin on arrival).  Arrival draws come from separate
        per-cell salted streams (:class:`~repro.traffic.BatchedArrivals`),
        so the contention streams — and therefore composition independence
        — are untouched.
    """

    _scope = "batched"
    _result_tag = {"simulator": "batched"}

    def __init__(
        self,
        policy_bank: BatchedPolicyBank,
        controller_bank: BatchedControllerBank,
        num_stations: Sequence[int],
        seeds: Sequence[int],
        duration: float,
        warmup: float = 0.0,
        phy: Optional[PhyParameters] = None,
        frame_error_rate: float = 0.0,
        report_interval: Optional[float] = None,
        activity: Optional[ActivitySchedule] = None,
        scheme_name: Optional[str] = None,
        traffic: Optional[ArrivalProcess] = None,
    ) -> None:
        super().__init__(policy_bank, controller_bank, num_stations, seeds,
                         duration, warmup, phy, frame_error_rate,
                         report_interval, scheme_name, traffic)
        if activity is not None and np.any(self._n < activity.max_active):
            raise ValueError(
                "num_stations is smaller than the activity schedule's maximum"
            )
        self._activity = activity

    # ------------------------------------------------------------------
    def run(self) -> List[SimulationResult]:
        """Simulate every cell for ``warmup + duration`` seconds."""
        bank = self._bank
        controller = self._controller
        phy = self._phy
        sigma = phy.slot_time
        ts = phy.ts
        tc = phy.tc
        warmup = self._warmup
        end_time = warmup + self._duration
        interval = self._interval
        fer = self._fer

        n = self._n
        num_cells = n.size
        max_n = int(n.max())
        st_range = np.arange(max_n)
        ledger = CellLedger(self, max_n)
        streams = ledger.streams
        traffic = self._traffic
        arrivals = ledger.arrivals

        # Station state: counters start at the policy's initial draw for every
        # existing station (the scalar simulator draws for all N policies up
        # front too); stations beyond the initial active count are parked at
        # the sentinel and redraw when an activity change activates them.
        counters = ledger.initial_backoffs(_INACTIVE)
        if self._activity is not None:
            active = np.full(num_cells, self._activity.active_count(0.0),
                             dtype=np.int64)
        else:
            active = n.copy()
        counters[st_range[None, :] >= active[:, None]] = _INACTIVE

        # Per-cell clocks and the kernel's own measurement state: idle slots
        # and the report countdown (the rest of the books are the ledger's).
        now = np.zeros(num_cells)
        measuring = ledger.measuring
        n_measuring = ledger.n_measuring
        busy_periods = ledger.busy_periods
        idle_run = np.zeros(num_cells, dtype=np.int64)
        idle_slots = np.zeros(num_cells, dtype=np.int64)
        report_at = np.full(num_cells, interval if interval else np.inf)

        tick = controller.tick_interval
        next_tick = np.full(num_cells, tick if tick else np.inf)

        schedule = self._activity
        if schedule is not None and schedule.change_times():
            change_times = np.asarray(schedule.change_times())
            change_counts = np.asarray(
                [schedule.active_count(t) for t in change_times], dtype=np.int64
            )
            change_index = np.zeros(num_cells, dtype=np.int64)
            pending_change = np.full(num_cells, change_times[0])
        else:
            change_times = np.empty(0)
            change_counts = np.empty(0, dtype=np.int64)
            change_index = np.zeros(num_cells, dtype=np.int64)
            pending_change = np.full(num_cells, np.inf)

        observes = bank.observes_channel
        k_succ = bank.draws_success
        k_fail = bank.draws_failure
        # Every event of a uniform-draw-count scheme consumes exactly one
        # uniform per transmitter, so the per-cell claim is simply ``num_tx``.
        uniform_draws = k_succ == 1 and k_fail == 1
        adaptive = not isinstance(controller, BatchedStaticBank)
        has_schedule = change_times.size > 0
        fer_on = fer > 0.0
        # Phase flags let the hot loop skip measurement bookkeeping before the
        # warm-up boundary and per-cell masking after every cell crossed it.
        none_measuring = ledger.none_measuring
        all_measuring = ledger.all_measuring

        # Flat views of the per-station state: station ``s`` of cell ``c`` is
        # index ``c * max_n + s`` (see "Cost per iteration" in the module
        # docstring).
        counters_f = counters.reshape(-1)
        tx_mask = np.empty((num_cells, max_n), dtype=bool)
        tx_mask_f = tx_mask.reshape(-1)

        # Loop-level telemetry: counters are plain ints accumulated behind a
        # hoisted enabled flag (one branch per iteration when disabled) and
        # never touch the random streams, so results are bit-identical with
        # telemetry on or off.
        tel = _telemetry()
        tel_on = tel.enabled
        t_iterations = t_idle_ffwd = t_slots = t_busy = 0

        # Probe boundaries are sampled retroactively after each time advance
        # and never enter the fast-forward bound, so the trajectory is
        # unchanged.  The channel busy time of each probe window is the
        # kernel's to keep.
        probes = ledger.probes
        if probes is not None:
            probe_busy = np.zeros(num_cells)
            probe_countdown = 0

            def busy_frac(cell: int, boundary) -> float:
                frac = probe_busy[cell] / probes.interval
                probe_busy[cell] = 0.0
                return frac

            def probe_drain(force: bool = False) -> None:
                # Boundaries are half a second apart while the loop iterates
                # every few microseconds of virtual time, so the vector due
                # check runs on a small stride; a boundary is sampled at most
                # a few slots late, far inside one probe window.  The forced
                # post-loop call catches boundaries the stride would strand.
                nonlocal probe_countdown
                probe_countdown -= 1
                if probe_countdown > 0 and not force:
                    return
                probe_countdown = 4
                probes.drain(now, busy_frac)

        while True:
            alive = now < end_time
            if not np.count_nonzero(alive):
                break
            if tel_on:
                t_iterations += 1

            # Activity changes take effect at their breakpoint times; joining
            # stations redraw a backoff under the current control values
            # (success-draw semantics), leaving stations stop contending.
            while has_schedule:
                due = (alive & (now >= pending_change)).nonzero()[0]
                if due.size == 0:
                    break
                new_active = change_counts[change_index[due]]
                old_active = active[due]
                shrink = (new_active < old_active).nonzero()[0]
                for i in shrink:
                    cell = due[i]
                    counters[cell, new_active[i]:old_active[i]] = _INACTIVE
                    if traffic is not None:
                        # Leaving mid-burst must not leak queued frames into
                        # the next join: flush them as drops.
                        leave = np.arange(new_active[i], old_active[i])
                        arrivals.flush(np.full(leave.size, cell), leave)
                grow = (new_active > old_active).nonzero()[0]
                if grow.size:
                    grow_cells = due[grow]
                    reps = new_active[grow] - old_active[grow]
                    cells_flat = np.repeat(grow_cells, reps)
                    st_flat = np.concatenate([
                        np.arange(a, b)
                        for a, b in zip(old_active[grow], new_active[grow])
                    ])
                    counts = np.zeros(num_cells, dtype=np.int64)
                    counts[grow_cells] = reps * k_succ
                    base = streams.claim(counts)
                    rank = st_flat - np.repeat(old_active[grow], reps)
                    offsets = base[cells_flat] + rank * k_succ
                    counters[cells_flat, st_flat] = bank.success_draw(
                        cells_flat, st_flat,
                        streams.gather(cells_flat, offsets, k_succ),
                    )
                active[due] = new_active
                change_index[due] += 1
                has_more = change_index[due] < change_times.size
                pending_change[due] = np.where(
                    has_more,
                    change_times[np.minimum(change_index[due],
                                            change_times.size - 1)],
                    np.inf,
                )

            # Start measuring at the warmup boundary: reset metrics and anchor
            # the reporting grid at the boundary itself (any overshoot counts
            # against the first interval, as in the scalar simulator).  Every
            # measuring cell is already past the boundary, so a cell crosses
            # only when more cells are past it than are measuring.
            if (not all_measuring
                    and np.count_nonzero(now >= warmup) > n_measuring):
                cross = alive & ~measuring & (now >= warmup)
                if np.count_nonzero(cross):
                    ledger.start_measuring(cross)
                    n_measuring = ledger.n_measuring
                    none_measuring = False
                    all_measuring = ledger.all_measuring
                    idle_slots[cross] = 0
                    if interval:
                        report_at[cross] = interval - (now[cross] - warmup)

            # Frame arrivals rejoin parked stations and refill queues; the
            # contention mask below is recomputed from the queue state.
            # Clamping at end_time makes the processed set exactly "every
            # arrival inside the run" for each cell, independent of how far
            # the cell's last slot overshot the horizon and of how long its
            # batch neighbours keep the loop alive (composition contract).
            if traffic is not None:
                present = st_range[None, :] < active[:, None]
                arrivals.advance(np.minimum(now, end_time), present)
                contend = present & arrivals.has_frame()

            # Idle fast-forward: advance by whole idle runs, but never past
            # the next tick, activity change, arrival, report boundary,
            # warmup boundary or end of run.  The counters themselves move
            # once, together with the transmission decrement below.
            if traffic is None:
                min_counter = np.minimum.reduce(counters, axis=1)
            else:
                min_counter = np.minimum.reduce(
                    np.where(contend, counters, _INACTIVE), axis=1)
            idle = alive & (min_counter > 0)
            advance = None
            if np.count_nonzero(idle):
                bound = np.minimum(end_time, next_tick)
                if traffic is not None:
                    np.minimum(bound, arrivals.next_min(), out=bound)
                if has_schedule:
                    np.minimum(bound, pending_change, out=bound)
                if none_measuring:
                    np.minimum(bound, warmup, out=bound)
                elif not all_measuring:
                    np.minimum(bound, np.where(measuring, now + report_at,
                                               warmup), out=bound)
                elif interval:
                    np.minimum(bound, now + report_at, out=bound)
                slots = np.ceil((bound - now) / sigma)
                np.maximum(slots, 1.0, out=slots)
                advance = np.minimum(min_counter, slots.astype(np.int64))
                advance *= idle
                min_counter -= advance
                now += advance * sigma
                if tel_on:
                    t_idle_ffwd += 1
                    t_slots += int(advance.sum())
                if probes is not None:
                    probe_drain()
                if observes:
                    idle_run += advance
                if not none_measuring:
                    measured = advance if all_measuring else advance * measuring
                    idle_slots += measured
                    if interval:
                        report_at -= measured * sigma
                        fire = measuring & idle & (report_at <= 0.0)
                        if np.count_nonzero(fire):
                            ledger.report(fire, now)
                            report_at[fire] += interval

            # Controller ticks close starved measurement segments; stations
            # pick the refreshed control values up automatically because the
            # banks read them live at draw time.
            if tick:
                due_tick = alive & (now >= next_tick)
                if np.count_nonzero(due_tick):
                    controller.on_tick(due_tick, now)
                    next_tick[due_tick] += tick

            # Transmissions: every cell whose minimum counter reached zero
            # resolves one busy virtual slot (success, collision or frame
            # error) this iteration.
            tx = (min_counter == 0) & (now < end_time)
            transmitting = np.count_nonzero(tx)
            step = advance
            if transmitting:
                # The transmitters are the stations of transmitting cells
                # whose counter this iteration's advance brings to zero; a
                # parked station may hold such a counter, so only stations
                # with a queued frame transmit.
                if advance is None:
                    np.equal(counters, 0, out=tx_mask)
                    step = tx
                else:
                    np.equal(counters, advance[:, None], out=tx_mask)
                    step = advance + tx
                tx_mask &= tx[:, None]
                if traffic is not None:
                    tx_mask &= contend
            # Waiting stations count down once per virtual slot, busy or idle
            # (Bianchi's renewal model): by the advance, plus one in a
            # transmitting cell.  The transmitters are redrawn below, so the
            # blanket decrement never leaves a stale negative counter
            # behind.  Parked (empty-queue) stations freeze instead.
            if step is not None:
                if traffic is None:
                    counters -= step[:, None]
                else:
                    np.subtract(counters, step[:, None], out=counters,
                                where=contend)
            if not transmitting:
                continue
            tx_flat = tx_mask_f.nonzero()[0]
            tx_cell, tx_station = np.divmod(tx_flat, max_n)
            num_tx = np.bincount(tx_cell, minlength=num_cells)
            single = num_tx == 1
            if tel_on:
                t_busy += int(np.count_nonzero(tx))
            if fer_on and np.count_nonzero(single):
                cells = single.nonzero()[0]
                base = streams.claim(single.astype(np.int64))
                draw = streams.buffer[cells, base[cells]]
                success = np.zeros(num_cells, dtype=bool)
                success[cells[draw >= fer]] = True
            else:
                success = single

            if observes:
                bank.observe_transmission(tx, idle_run)
                idle_run[tx] = 0
            slot_duration = np.where(success, ts, tc)
            np.add(now, slot_duration, out=now, where=tx)
            if probes is not None:
                np.add(probe_busy, slot_duration, out=probe_busy, where=tx)
            if not none_measuring:
                tx_measured = tx if all_measuring else tx & measuring
                busy_periods += tx_measured
                if interval:
                    np.subtract(report_at, slot_duration, out=report_at,
                                where=tx_measured)

            if uniform_draws:
                counts = num_tx
            else:
                counts = np.where(success, k_succ, num_tx * k_fail)
            base = streams.claim(counts)
            # Winners are the transmitters of succeeding cells; every other
            # transmitter is in a losing cell and therefore a collider.
            win = success[tx_cell]
            n_win = np.count_nonzero(win)
            if n_win:
                win_flat = tx_flat[win]
                winners = tx_cell[win]
                winner_station = tx_station[win]
                # The delivered frame leaves the winner's FIFO; an emptied
                # winner parks via the contention mask on the next iteration.
                ledger.delivered(win_flat, winners, winner_station, now)
                if adaptive:
                    controller.on_packet_received(success, now)
                counters_f[win_flat] = bank.success_draw(
                    winners, winner_station,
                    streams.gather(winners, base[winners], k_succ),
                )
            if n_win < tx_flat.size:
                # Row-major order lists each cell's colliders in station
                # order, as the ledger's rank rule requires.
                lose = ~win
                ledger.redraw_losers(tx_flat[lose], tx_cell[lose],
                                     tx_station[lose], base, counters_f, now)

            if interval and not none_measuring:
                fire = tx_measured & (report_at <= 0.0)
                if np.count_nonzero(fire):
                    ledger.report(fire, now)
                    report_at[fire] += interval
            if probes is not None:
                probe_drain()

        if traffic is not None:
            # Drain arrivals up to the horizon one last time: a solo cell's
            # loop exits the instant it finishes, while a batched cell keeps
            # being offered its tail arrivals as neighbours run on — this
            # final pass makes both count identically.
            arrivals.advance(np.minimum(now, end_time),
                             st_range[None, :] < active[:, None])
        if tel_on:
            tel.counters(self._scope, {
                "loop_iterations": t_iterations,
                "idle_fast_forwards": t_idle_ffwd,
                "idle_slots_advanced": t_slots,
                "busy_slots": t_busy,
                "retry_discards": ledger.discards,
                "cells": num_cells,
                "max_stations": max_n,
            })
        if probes is not None:
            probe_drain(force=True)
        return ledger.results(idle_slots, tel)


#: Scheme kinds with a batched kernel.
BATCHABLE_SCHEME_KINDS = tuple(sorted(
    kind for kind, declared in SCHEME_KINDS.items() if declared.banks))


def batchable_scheme(kind: str, params: Dict[str, object]) -> bool:
    """Whether ``kind`` with these spec parameters has a batched kernel."""
    declared = SCHEME_KINDS.get(kind)
    return declared is not None and declared.batchable(params)


def make_batched_system(
    kind: str,
    params: Dict[str, object],
    num_cells: int,
    max_stations: int,
    phy: PhyParameters,
    station_observations: bool = False,
) -> Tuple[BatchedPolicyBank, BatchedControllerBank, str]:
    """Build (policy bank, controller bank, display name) for a scheme kind.

    ``kind`` and ``params`` use the
    :class:`~repro.experiments.campaign.SchemeSpec` vocabulary.  The kind's
    declaration in :data:`repro.mac.schemes.SCHEME_KINDS` builds the banks,
    so their names and defaults are the scalar schemes' own.  ``station_observations`` selects
    per-station channel observation state for observing schemes (required by
    the conflict-graph simulator, where stations of one cell see different
    channels); the per-cell variant is only valid for fully connected cells.
    """
    return scheme_kind(kind).batched(params, num_cells, max_stations, phy,
                                     station_observations)


def run_batched(
    kind: str,
    params: Dict[str, object],
    num_stations: Sequence[int],
    seeds: Sequence[int],
    duration: float,
    warmup: float = 0.0,
    phy: Optional[PhyParameters] = None,
    **kwargs,
) -> List[SimulationResult]:
    """One-call convenience wrapper: build the banks and run the batch."""
    phy = phy or PhyParameters()
    policy_bank, controller_bank, name = make_batched_system(
        kind, dict(params), len(num_stations), int(max(num_stations)), phy
    )
    simulator = BatchedSlottedSimulator(
        policy_bank, controller_bank, num_stations, seeds,
        duration=duration, warmup=warmup, phy=phy, scheme_name=name, **kwargs,
    )
    return simulator.run()
