"""Vectorized (batched) access-point controllers.

The scalar controllers (:mod:`repro.core.wtop`, :mod:`repro.core.tora`) hold
one Kiefer-Wolfowitz tracker and one segment throughput meter per simulation.
The batched slotted simulator (:mod:`repro.sim.batched`) advances many
independent cells at once, so this module re-expresses the same state
machines as *banks* whose state variables are 1-D arrays over cells:

* :class:`BatchedSegmentMeter` — per-cell ``bytes_recd``/segment bookkeeping
  of :class:`~repro.core.controller.SegmentThroughputMeter`;
* :class:`BatchedKwTracker` — the vectorized Kiefer-Wolfowitz update step of
  :class:`~repro.core.kiefer_wolfowitz.TwoSidedGradientTracker` (probe at
  ``center + b_k`` then ``center - b_k``, move along the stochastic gradient
  after each pair);
* :class:`BatchedWTopBank` / :class:`BatchedToraBank` — Algorithm 1 and 2 on
  top of the two, including wTOP's log-domain control mapping and TORA's
  stage-shift rule (reset ``pval`` to 0.5 without advancing ``k``).

Every update uses the same gain schedule, clipping bounds, normalisation and
thresholds as the scalar controllers, so a batch of one cell follows the
exact same trajectory modulo RNG stream consumption order.  The banks take
every scheme parameter explicitly: the defaults are the scheme kind's, in
:data:`repro.mac.schemes.SCHEME_KINDS`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..phy.constants import DEFAULT_BIT_RATE, PhyParameters
from .kiefer_wolfowitz import GainSchedule
from .mapping import LogMapping
from .wtop import CONTROLLER_GAIN_SCHEDULE, DEFAULT_P_MAX

__all__ = [
    "BatchedControllerBank",
    "BatchedStaticBank",
    "BatchedSegmentMeter",
    "BatchedKwTracker",
    "BatchedWTopBank",
    "BatchedToraBank",
]


class BatchedControllerBank:
    """Interface the batched simulator drives (no-op by default)."""

    #: Period (seconds) of :meth:`on_tick`, or None to disable ticks.
    tick_interval: Optional[float] = None

    def on_packet_received(self, cell_mask: np.ndarray, now: np.ndarray) -> None:
        """Notify cells in ``cell_mask`` of one successful reception at ``now``."""
        return None

    def on_tick(self, cell_mask: np.ndarray, now: np.ndarray) -> None:
        """Periodic timer hook closing starved measurement segments."""
        return None

    def primary_control(self) -> Optional[np.ndarray]:
        """Per-cell scalar control value for convergence time lines, or None."""
        return None

    def probe_state(self) -> dict:
        """Controller-state snapshot for simulator probes (read-only).

        Returns ``{"control": per-cell array}`` when the bank advertises a
        primary control value; adaptive banks may add further 1-D series
        (e.g. TORA's ``ctrl_stage``).  Must never mutate bank state.
        """
        control = self.primary_control()
        if control is None:
            return {}
        return {"control": control}


class BatchedStaticBank(BatchedControllerBank):
    """Counterpart of :class:`~repro.core.controller.StaticController`."""


class BatchedSegmentMeter:
    """Per-cell fixed-length measurement segments (Algorithm 1, lines 3-14)."""

    def __init__(self, num_cells: int, update_period: float) -> None:
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self._period = float(update_period)
        self._bits = np.zeros(num_cells, dtype=np.int64)
        self._start = np.full(num_cells, np.nan)
        self._all_started = False

    @property
    def update_period(self) -> float:
        return self._period

    def observe(self, cell_mask: np.ndarray, payload_bits: int,
                now: np.ndarray) -> np.ndarray:
        """Add one reception per cell in ``cell_mask``; return closed cells."""
        if not self._all_started:
            unset = cell_mask & np.isnan(self._start)
            self._start[unset] = now[unset]
            self._all_started = not np.count_nonzero(np.isnan(self._start))
        np.add(self._bits, payload_bits, out=self._bits, where=cell_mask)
        closed = cell_mask & (now - self._start >= self._period)
        return closed

    def maybe_close(self, cell_mask: np.ndarray, now: np.ndarray) -> np.ndarray:
        """Close expired segments without a packet arrival; return closed cells."""
        if not self._all_started:
            unset = cell_mask & np.isnan(self._start)
            self._start[unset] = now[unset]
            self._all_started = not np.count_nonzero(np.isnan(self._start))
            closed = cell_mask & ~unset & (now - self._start >= self._period)
        else:
            closed = cell_mask & (now - self._start >= self._period)
        return closed

    def throughput_and_restart(self, cells: np.ndarray,
                               now: np.ndarray) -> np.ndarray:
        """Throughput (bits/s) of the indexed cells; restart their segments."""
        throughput = self._bits[cells] / self._period
        self._bits[cells] = 0
        self._start[cells] = now[cells]
        return throughput


class BatchedKwTracker:
    """Vectorized two-sided Kiefer-Wolfowitz state machine over cells."""

    def __init__(
        self,
        num_cells: int,
        initial: float = 0.5,
        schedule: GainSchedule = CONTROLLER_GAIN_SCHEDULE,
        initial_k: int = 2,
    ) -> None:
        if not 0.0 <= initial <= 1.0:
            raise ValueError("initial value must lie within [0, 1]")
        if initial_k < 1:
            raise ValueError("initial_k must be at least 1")
        self._schedule = schedule
        self.center = np.full(num_cells, float(initial))
        self.k = np.full(num_cells, int(initial_k), dtype=np.int64)
        self.plus_side = np.ones(num_cells, dtype=bool)
        self.plus_measurement = np.full(num_cells, np.nan)
        self.updates = np.zeros(num_cells, dtype=np.int64)
        self._probe_cache: Optional[np.ndarray] = None
        #: Monotonic state-change counter; consumers cache derived arrays
        #: (advertised probabilities etc.) keyed on it.
        self.version = 0

    def _b(self, k: np.ndarray) -> np.ndarray:
        return self._schedule.b0 / k ** self._schedule.gamma

    def _a(self, k: np.ndarray) -> np.ndarray:
        return self._schedule.a0 / k ** self._schedule.alpha

    def probe(self) -> np.ndarray:
        """Per-cell control value to apply during the next segment."""
        if self._probe_cache is None:
            bk = self._b(self.k.astype(np.float64))
            self._probe_cache = np.where(
                self.plus_side,
                np.minimum(self.center + bk, 1.0),
                np.maximum(self.center - bk, 0.0),
            )
        return self._probe_cache

    def observe(self, cells: np.ndarray, measurement: np.ndarray) -> np.ndarray:
        """Record ``measurement[i]`` for cell ``cells[i]``; return the cells
        that completed a pair.

        ``cells`` are distinct indices; the returned ones keep their order.
        """
        plus = self.plus_side[cells]
        was_plus = cells[plus]
        self.plus_measurement[was_plus] = measurement[plus]
        self.plus_side[was_plus] = False
        minus = ~plus
        was_minus = cells[minus]
        if was_minus.size:
            k = self.k[was_minus].astype(np.float64)
            gradient = (
                self.plus_measurement[was_minus] - measurement[minus]
            ) / self._b(k)
            self.center[was_minus] = np.minimum(np.maximum(
                self.center[was_minus] + self._a(k) * gradient, 0.0), 1.0)
            self.k[was_minus] += 1
            self.plus_side[was_minus] = True
            self.plus_measurement[was_minus] = np.nan
            self.updates[was_minus] += 1
        self._probe_cache = None
        self.version += 1
        return was_minus

    def reset_cells(self, cells: np.ndarray, center: float) -> None:
        """TORA stage-shift reset of distinct ``cells``: new centre, ``k``
        stepped back one pair."""
        self.center[cells] = center
        self.k[cells] = np.maximum(self.k[cells] - 1, 1)
        self.plus_side[cells] = True
        self.plus_measurement[cells] = np.nan
        self._probe_cache = None
        self.version += 1


class _BatchedAdaptiveBank(BatchedControllerBank):
    """Shared meter + tracker plumbing of the two adaptive banks."""

    def __init__(self, num_cells: int, phy: PhyParameters, update_period: float,
                 initial: float, throughput_scale: float, initial_k: int) -> None:
        if throughput_scale <= 0:
            raise ValueError("throughput_scale must be positive")
        self._payload_bits = int(phy.payload_bits)
        self._scale = float(throughput_scale)
        self._meter = BatchedSegmentMeter(num_cells, update_period)
        self._tracker = BatchedKwTracker(num_cells, initial=initial,
                                         initial_k=initial_k)
        self.tick_interval = float(update_period)

    @property
    def tracker(self) -> BatchedKwTracker:
        return self._tracker

    def _apply_measurement(self, closed: np.ndarray, now: np.ndarray) -> None:
        cells = closed.nonzero()[0]
        throughput = self._meter.throughput_and_restart(cells, now)
        completed = self._tracker.observe(cells, throughput / self._scale)
        self._after_pair(completed)

    def _after_pair(self, completed: np.ndarray) -> None:
        """Hook for TORA's stage-shift rule (``completed``: cell indices);
        default no-op."""
        return None

    def on_packet_received(self, cell_mask, now):
        closed = self._meter.observe(cell_mask, self._payload_bits, now)
        if np.count_nonzero(closed):
            self._apply_measurement(closed, now)

    def on_tick(self, cell_mask, now):
        closed = self._meter.maybe_close(cell_mask, now)
        if np.count_nonzero(closed):
            self._apply_measurement(closed, now)


class BatchedWTopBank(_BatchedAdaptiveBank):
    """Vectorized wTOP-CSMA controller (Algorithm 1) over a batch of cells.

    As in :class:`~repro.core.wtop.WTopCsmaController`, the optimiser works on
    the log-domain control variable and the advertised attempt probability is
    ``mapping.to_parameter(probe)``.
    """

    def __init__(
        self,
        num_cells: int,
        phy: PhyParameters,
        update_period: float,
        initial_control: float,
        initial_p: Optional[float] = None,
        throughput_scale: float = DEFAULT_BIT_RATE,
        initial_k: int = 2,
    ) -> None:
        self._mapping = LogMapping(low=1e-4, high=DEFAULT_P_MAX)
        if initial_p is not None:
            initial_control = self._mapping.to_control(initial_p)
        if not 0.0 <= initial_control <= 1.0:
            raise ValueError("initial_control must lie in [0, 1]")
        super().__init__(num_cells, phy, update_period, initial_control,
                         throughput_scale, initial_k)
        self._log_low = math.log(self._mapping.low)
        self._log_ratio = math.log(self._mapping.high / self._mapping.low)
        self._p_cache: Optional[np.ndarray] = None
        self._p_version = -1

    @property
    def version(self) -> int:
        """State-change counter for cell-wise caching of advertised values."""
        return self._tracker.version

    def advertised_p(self) -> np.ndarray:
        """Per-cell attempt probability currently advertised to stations."""
        if self._p_version != self._tracker.version:
            probe = self._tracker.probe()
            p = np.exp(self._log_low + probe * self._log_ratio)
            self._p_cache = np.minimum(np.maximum(p, self._mapping.low),
                                       self._mapping.high)
            self._p_version = self._tracker.version
        return self._p_cache

    def primary_control(self):
        return self.advertised_p()


class BatchedToraBank(_BatchedAdaptiveBank):
    """Vectorized TORA-CSMA controller (Algorithm 2) over a batch of cells."""

    def __init__(
        self,
        num_cells: int,
        phy: PhyParameters,
        update_period: float,
        initial_p0: float,
        initial_stage: int,
        low_threshold: float,
        high_threshold: float,
        throughput_scale: float = DEFAULT_BIT_RATE,
        initial_k: int = 2,
    ) -> None:
        num_stages = phy.num_backoff_stages
        if not 0 <= initial_stage <= max(num_stages - 1, 0):
            raise ValueError(f"initial_stage must lie in [0, {num_stages - 1}]")
        if not 0.0 <= low_threshold < high_threshold <= 1.0:
            raise ValueError("require 0 <= low_threshold < high_threshold <= 1")
        super().__init__(num_cells, phy, update_period, initial_p0,
                         throughput_scale, initial_k)
        self._max_stage = max(num_stages - 1, 0)
        self._low_threshold = float(low_threshold)
        self._high_threshold = float(high_threshold)
        self._stage = np.full(num_cells, int(initial_stage), dtype=np.int64)

    def _after_pair(self, completed: np.ndarray) -> None:
        if not completed.size:
            return
        center = self._tracker.center[completed]
        stage = self._stage[completed]
        shift_up = completed[(center <= self._low_threshold)
                             & (stage < self._max_stage)]
        shift_down = completed[(center >= self._high_threshold) & (stage > 0)]
        if shift_up.size or shift_down.size:
            self._stage[shift_up] += 1
            self._stage[shift_down] -= 1
            # The thresholds are ordered, so the two sets are disjoint.
            self._tracker.reset_cells(
                np.concatenate((shift_up, shift_down)), 0.5)

    def advertised_p0(self) -> np.ndarray:
        """Per-cell reset probability currently advertised to stations."""
        return self._tracker.probe()

    def advertised_stage(self) -> np.ndarray:
        """Per-cell reset stage ``j`` currently advertised to stations."""
        return self._stage

    def primary_control(self):
        return self.advertised_p0()

    def probe_state(self) -> dict:
        return {
            "control": self.advertised_p0(),
            "ctrl_stage": self.advertised_stage().astype(np.float64),
        }
