"""Per-cell books shared by the two vectorized kernels.

:mod:`repro.sim.batched` (renewal slots, fully connected cells) and
:mod:`repro.sim.conflict` (event jumps on sensing graphs) differ only in how
stations contend.  Everything they record about a cell is the same and lives
here, written once:

* :class:`CellBatch` — the argument checks every kernel shares, and the
  settings they produce (the retry limit is lifted off the traffic spec and
  saturated traffic becomes ``None``, the classic always-backlogged path).
* :class:`CellStreams` — the per-cell block-buffered random streams.
* :class:`CellLedger` — built at the top of each ``run()``: the streams,
  arrival queues and retry counters of the batch, its measurement window
  (success and failure tallies, busy periods, report bits and time lines),
  the probe grid, and the operations on them: the initial backoff draw, the
  warm-up reset, report sampling, booking a delivered frame, redrawing the
  losers of a busy period (with the 802.11 retry-limit discard) and
  assembling each cell's :class:`~repro.sim.metrics.SimulationResult`.

What depends on a kernel's clock stays in the kernel: idle slots, the
report countdown and activity changes in the renewal kernel; channel
occupancy, the measurement marks and the eager ACK in the conflict kernel.
Ledger methods take the kernel's clock array ``now`` in its own unit;
``scale`` (1 for seconds, ``NS_PER_SECOND`` for integer nanoseconds)
converts it where seconds are recorded.

The scalar ``slotted`` and ``event`` simulators keep their own books on
purpose: they are the oracles the kernels are checked against, and a
recording bug shared with them could pass on both sides.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..phy.constants import PhyParameters
from ..telemetry import probes as _probes
from ..traffic import ArrivalProcess, BatchedArrivals
from .metrics import SimulationResult, StationStats

__all__ = ["CellBatch", "CellLedger", "CellStreams"]


class CellStreams:
    """Block-buffered per-cell uniform random streams.

    Each cell gets its own :class:`numpy.random.Generator`; uniforms are drawn
    a block at a time and handed out through :meth:`claim`, which reserves
    ``counts[c]`` values per cell and returns the start offset of each cell's
    reservation into :attr:`buffer`.  When a cell's reservation would overrun
    its block, the *remainder of the block is discarded* and a fresh block is
    drawn — wasteful but crucial: whether a refill happens depends only on the
    cell's own consumption history, never on its batch neighbours.

    For the same reason ``block`` may be a per-cell sequence but must always
    be derived from each cell's *own* parameters (its station count, its
    scheme), never from a batch-wide quantity such as the padded width —
    otherwise refill points, and therefore results, would depend on batch
    composition.  The backing buffer is rectangular (padded to the largest
    block); only the per-cell logical block length governs refills.
    """

    def __init__(self, seeds: Sequence[int], block=4096) -> None:
        blocks = np.broadcast_to(
            np.asarray(block, dtype=np.int64), (len(seeds),)
        ).copy()
        if np.any(blocks < 1):
            raise ValueError("block must be positive")
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._blocks = blocks
        width = int(blocks.max())
        self.buffer = np.zeros((len(seeds), width))
        for cell, rng in enumerate(self._rngs):
            self.buffer[cell, : blocks[cell]] = rng.random(int(blocks[cell]))
        self._pos = np.zeros(len(self._rngs), dtype=np.int64)

    @property
    def blocks(self) -> np.ndarray:
        """Per-cell logical block lengths."""
        return self._blocks.copy()

    def claim(self, counts: np.ndarray) -> np.ndarray:
        """Reserve ``counts[c]`` uniforms per cell; return per-cell offsets.

        A claim larger than its cell's block raises before any cell is
        refilled, so a rejected claim leaves every stream as it was.
        """
        new_pos = self._pos + counts
        over = new_pos > self._blocks
        if np.count_nonzero(over):
            refill = over.nonzero()[0]
            if np.count_nonzero(counts[refill] > self._blocks[refill]):
                raise ValueError("claim exceeds the stream block size")
            for cell in refill:
                block = int(self._blocks[cell])
                self.buffer[cell, :block] = self._rngs[int(cell)].random(block)
                self._pos[cell] = 0
            new_pos = self._pos + counts
        base = self._pos
        self._pos = new_pos
        return base

    def gather(self, cells: np.ndarray, offsets: np.ndarray,
               width: int) -> np.ndarray:
        """Gather ``width`` consecutive uniforms per (cell, offset) pair."""
        if width == 1:
            return self.buffer[cells, offsets][:, None]
        return self.buffer[
            cells[:, None], offsets[:, None] + np.arange(width)
        ]


class CellBatch:
    """Settings of one batch of cells, checked once for every kernel.

    All cells share the scheme (policy/controller banks), PHY, durations,
    frame error rate, reporting options and traffic; they differ in station
    count and seed.  Subclasses add their own checks and settings, and name
    themselves through :attr:`_scope` (telemetry) and :attr:`_result_tag`
    (the leading ``extra`` entries of every result).
    """

    _scope = ""
    _result_tag: Dict[str, object] = {}

    def __init__(
        self,
        policy_bank,
        controller_bank,
        num_stations: Sequence[int],
        seeds: Sequence[int],
        duration: float,
        warmup: float,
        phy: Optional[PhyParameters],
        frame_error_rate: float,
        report_interval: Optional[float],
        scheme_name: Optional[str],
        traffic: Optional[ArrivalProcess],
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
        self._bank = policy_bank
        self._controller = controller_bank
        self._seeds = list(seeds)
        self._duration = float(duration)
        self._warmup = float(warmup)
        self._phy = phy or PhyParameters()
        self._fer = float(frame_error_rate)
        self._interval = report_interval
        self._scheme_name = scheme_name
        # The retry limit applies to the MAC regardless of workload, so it
        # is lifted off the spec before the saturated process canonicalises
        # to None (the bit-identical classic path).
        self._retry_limit = (traffic.retry_limit if traffic is not None
                             else None)
        if traffic is not None and traffic.is_saturated:
            traffic = None
        self._traffic = traffic


class CellLedger:
    """The per-cell books of one kernel run (see the module docstring).

    The kernel binds the arrays it updates on its hot path to locals; every
    array is updated in place, so those bindings stay valid.  The phase flags
    ``none_measuring`` and ``all_measuring`` change only in
    :meth:`start_measuring`, after which the kernel refreshes its copies.
    """

    def __init__(self, batch: CellBatch, max_stations: int,
                 scale: int = 1) -> None:
        bank = batch._bank
        n = batch._n
        num_cells = n.size
        self._batch = batch
        self._scale = scale
        self._payload = batch._phy.payload_bits
        self._interval = batch._interval
        self.n = n
        self.num_cells = num_cells
        self.exists = np.arange(max_stations)[None, :] < n[:, None]
        # Block sizes must depend on each cell's own parameters only (not
        # the batch-wide maximum): refill points are part of the cell's
        # random-stream trajectory, and composition independence requires
        # that trajectory to be a function of the cell alone.
        draws = max(bank.draws_initial, bank.draws_success, bank.draws_failure)
        self.streams = CellStreams(batch._seeds,
                                   block=np.maximum(4096, 8 * n * draws))
        # Traffic state lives in its own per-cell salted streams, so the
        # contention streams are consumed identically whether or not the
        # workload is saturated.
        traffic = batch._traffic
        self.arrivals = None if traffic is None else BatchedArrivals(
            traffic, batch._seeds, n, max_stations)
        # MAC retry state: attempt counters per station plus the per-cell
        # discard tally.  None under the default infinite-retry policy,
        # whose stream consumption must stay bit-identical.
        self.retry_limit = batch._retry_limit
        if self.retry_limit is not None:
            self.retry_f = np.zeros(num_cells * max_stations, dtype=np.int64)
            self.retry_disc = np.zeros(num_cells, dtype=np.int64)
        else:
            self.retry_f = self.retry_disc = None
        #: Frames discarded at the retry limit (telemetry).
        self.discards = 0

        # Measurement window.  Metrics restart at each cell's warm-up
        # crossing; the phase flags let the kernels skip the books before
        # the first crossing and per-cell masking after the last.
        measuring = batch._warmup == 0.0
        self.measuring = np.full(num_cells, measuring)
        self.n_measuring = num_cells if measuring else 0
        self.none_measuring = not measuring
        self.all_measuring = measuring
        shape = (num_cells, max_stations)
        self.successes = np.zeros(shape, dtype=np.int64)
        self.failures = np.zeros(shape, dtype=np.int64)
        self.successes_f = self.successes.reshape(-1)
        self.failures_f = self.failures.reshape(-1)
        self.busy_periods = np.zeros(num_cells, dtype=np.int64)
        self.cum_bits = np.zeros(num_cells, dtype=np.int64)
        self.bits_last = np.zeros(num_cells, dtype=np.int64)
        self.throughput_tl: List[List[Tuple[float, float]]] = [
            [] for _ in range(num_cells)
        ]
        self.control_tl: List[List[Tuple[float, float]]] = [
            [] for _ in range(num_cells)
        ]

        # Simulator probes read bank, controller and queue state only (never
        # a random stream), and their boundaries never bound a kernel's time
        # step, so trajectories are the same with probes on or off.
        probe = _probes.current()
        self.probes = None if probe is None else _probes.ProbeGrid(
            probe, n, max_stations, scale, (bank, batch._controller),
            self.arrivals)

    def _seconds(self, now: np.ndarray) -> np.ndarray:
        return now if self._scale == 1 else now / self._scale

    # ------------------------------------------------------------------
    def initial_backoffs(self, fill) -> np.ndarray:
        """Initial backoff draw of every existing station.

        Returns a ``(cells, S)`` array holding the draws, and ``fill`` at
        padded stations.
        """
        bank = self._batch._bank
        k = bank.draws_initial
        cells, stations = np.nonzero(self.exists)
        base = self.streams.claim(self.n * k)
        backoffs = np.full(self.exists.shape, fill, dtype=np.int64)
        backoffs[cells, stations] = bank.initial_draw(
            cells, stations,
            self.streams.gather(cells, base[cells] + stations * k, k),
        )
        return backoffs

    def start_measuring(self, cross: np.ndarray) -> None:
        """Open the measurement window of the cells in ``cross``."""
        self.measuring |= cross
        self.n_measuring = int(np.count_nonzero(self.measuring))
        self.none_measuring = False
        self.all_measuring = self.n_measuring == self.num_cells
        self.successes[cross] = 0
        self.failures[cross] = 0
        self.busy_periods[cross] = 0
        self.cum_bits[cross] = 0
        self.bits_last[cross] = 0
        if self.arrivals is not None:
            self.arrivals.reset_measurement(cross)
        if self.retry_disc is not None:
            self.retry_disc[cross] = 0

    def report(self, due: np.ndarray, now: np.ndarray) -> None:
        """Append one time-line sample for each cell in ``due``."""
        primary = self._batch._controller.primary_control()
        for cell in due.nonzero()[0]:
            time_s = float(now[cell]) / self._scale
            delta = int(self.cum_bits[cell] - self.bits_last[cell])
            self.throughput_tl[cell].append((time_s, delta / self._interval))
            if primary is not None:
                self.control_tl[cell].append((time_s, float(primary[cell])))
            self.bits_last[cell] = self.cum_bits[cell]

    def delivered(self, flat: np.ndarray, cells: np.ndarray,
                  stations: np.ndarray, now: np.ndarray) -> None:
        """Book the frames delivered by ``(cells, stations)``.

        ``flat`` holds the same stations as ``cell * S + station``, and no
        cell appears twice (a cell delivers at most one frame per step).
        Each frame leaves its FIFO with its exact delay and ends the
        station's retry chain.
        """
        if self.retry_f is not None:
            self.retry_f[flat] = 0
        if self.arrivals is not None:
            self.arrivals.pop_success(cells, stations, self._seconds(now))
        if self.probes is not None:
            self.probes.bits_f[flat] += self._payload
        if self.none_measuring:
            return
        if self.all_measuring:
            self.successes_f[flat] += 1
            if self._interval:
                self.cum_bits[cells] += self._payload
        else:
            measured = self.measuring[cells]
            self.successes_f[flat] += measured
            if self._interval:
                self.cum_bits[cells] += self._payload * measured

    def redraw_losers(self, flat: np.ndarray, cells: np.ndarray,
                      stations: np.ndarray, base: np.ndarray,
                      backoff_f: np.ndarray,
                      now: np.ndarray) -> Optional[np.ndarray]:
        """Book failed transmissions and redraw the losers' backoffs.

        ``cells`` is sorted (station order within a cell) and ``base`` holds
        each cell's claimed failure draws, so a loser's draws start
        ``rank * draws_failure`` past its cell's base.  Losers at the retry
        limit discard their frame instead and reset their contention window
        with a success draw from a fresh claim; the failure uniforms they
        leave unused never move another cell's stream.  New backoffs go to
        ``backoff_f`` (flat view).  Returns the flat indices of the
        discarding stations, or ``None`` when no station discards.
        """
        if not self.none_measuring:
            self.failures_f[flat] += self.measuring[cells]
        bank = self._batch._bank
        streams = self.streams
        k_fail = bank.draws_failure
        offsets = base[cells] + (np.arange(cells.size)
                                 - cells.searchsorted(cells)) * k_fail
        retry_f = self.retry_f
        if retry_f is None:
            backoff_f[flat] = bank.failure_draw(
                cells, stations, streams.gather(cells, offsets, k_fail))
            return None
        attempts = retry_f[flat] + 1
        retry_f[flat] = attempts
        disc = attempts >= self.retry_limit
        keep = ~disc
        kept = cells[keep]
        # The kept stations' failure draws must be gathered before the
        # discard claim below: that claim may refill the buffer their
        # offsets point into.
        backoff_f[flat[keep]] = bank.failure_draw(
            kept, stations[keep], streams.gather(kept, offsets[keep], k_fail))
        if not np.count_nonzero(disc):
            return None
        disc_flat, dc, ds = flat[disc], cells[disc], stations[disc]
        retry_f[disc_flat] = 0
        self.discards += int(dc.size)
        if self.all_measuring:
            np.add.at(self.retry_disc, dc, 1)
        elif not self.none_measuring:
            np.add.at(self.retry_disc, dc,
                      self.measuring[dc].astype(np.int64))
        if self.arrivals is not None:
            self.arrivals.pop_discard(dc, ds, self._seconds(now))
        k_succ = bank.draws_success
        base = streams.claim(np.bincount(dc, minlength=self.num_cells)
                             * k_succ)
        rank = np.arange(dc.size) - dc.searchsorted(dc)
        backoff_f[disc_flat] = bank.success_draw(
            dc, ds, streams.gather(dc, base[dc] + rank * k_succ, k_succ))
        return disc_flat

    # ------------------------------------------------------------------
    def results(self, idle_slots: Sequence[int], tel,
                cell_extra: Optional[Sequence[Dict[str, object]]] = None,
                ) -> List[SimulationResult]:
        """Emit the probe records and assemble each cell's result.

        ``idle_slots`` is the kernel's per-cell idle-slot count and
        ``cell_extra`` its own per-cell ``extra`` entries.
        """
        batch = self._batch
        if self.probes is not None:
            self.probes.emit(tel, batch._scope, batch._seeds)
        payload = self._payload
        duration = batch._duration
        station_idle = batch._bank.station_observed_idle()
        results = []
        for cell in range(self.num_cells):
            stations = int(self.n[cell])
            successes = self.successes[cell]
            failures = self.failures[cell]
            stats = tuple(
                StationStats(
                    station=i,
                    successes=int(successes[i]),
                    failures=int(failures[i]),
                    payload_bits=int(successes[i]) * payload,
                    throughput_bps=int(successes[i]) * payload / duration,
                )
                for i in range(stations)
            )
            extra = dict(batch._result_tag, num_stations=stations,
                         warmup=batch._warmup)
            if cell_extra is not None:
                extra.update(cell_extra[cell])
            if batch._scheme_name is not None:
                extra["scheme"] = batch._scheme_name
            if station_idle is not None and not math.isnan(station_idle[cell]):
                extra["station_observed_idle"] = float(station_idle[cell])
            traffic_fields: Dict[str, object] = {}
            if self.arrivals is not None:
                traffic_fields = self.arrivals.annotate_result(
                    cell, stations, extra)
            if self.retry_disc is not None:
                traffic_fields["retry_discards"] = int(self.retry_disc[cell])
            results.append(SimulationResult(
                duration=duration,
                station_stats=stats,
                total_throughput_bps=int(successes[:stations].sum())
                * payload / duration,
                idle_slots=int(idle_slots[cell]),
                busy_periods=int(self.busy_periods[cell]),
                throughput_timeline=tuple(self.throughput_tl[cell]),
                control_timeline=tuple(self.control_tl[cell]),
                extra=extra,
                **traffic_fields,
            ))
        return results
