"""Vectorized (batched) station backoff policies.

The scalar policies in :mod:`repro.mac.backoff` are per-station objects whose
methods the simulators call once per transmission event.  That design is what
keeps the event-driven and slotted simulators simple, but it caps throughput
at Python-interpreter speed: a campaign cell with 60 stations performs a
couple of Python calls per virtual slot.

This module re-expresses the same policies as *banks*: one object holding the
state of every station of every cell in a batch as 2-D NumPy arrays (axis 0 =
cell, axis 1 = station).  The batched slotted simulator
(:mod:`repro.sim.batched`) advances all cells together and asks the bank to
redraw backoff counters for the (few) stations that transmitted in the
current virtual slot, passing pre-gathered uniform variates from each cell's
own random stream.

Equivalence contract: every draw is distributed exactly as its scalar
counterpart (uniform windows become ``floor(u * W)``, geometric counts become
the inverse-CDF transform), so batched results are statistically
indistinguishable from slotted ones, though not bit-identical — the random
streams are consumed in a different order.

A bank consumes a *fixed* number of uniforms per event kind
(:attr:`draws_initial` / :attr:`draws_success` / :attr:`draws_failure`),
even when a particular draw ends up unused (e.g. RandomReset resetting
straight to stage ``j``).  Fixed consumption is what makes a cell's random
stream a function of its own trajectory only, which in turn makes per-cell
results independent of the composition of the batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence

import numpy as np

from ..phy.constants import PhyParameters
from .idlesense import (
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
    DEFAULT_MAX_WINDOW,
    DEFAULT_MAXTRANS,
    DEFAULT_TARGET_IDLE_SLOTS,
)

__all__ = [
    "BatchedPolicyBank",
    "BatchedDcfBank",
    "BatchedIdleSenseBank",
    "BatchedStationIdleSenseBank",
    "BatchedPPersistentBank",
    "BatchedRandomResetBank",
]

#: Cap on geometric backoff draws, mirroring ``PPersistentBackoff``.
MAX_BACKOFF_SLOTS = 1_000_000


def _uniform_window_draw(u: np.ndarray, window: np.ndarray) -> np.ndarray:
    """``floor(u * W)`` — uniform over ``{0, ..., W-1}`` (0 when ``W <= 1``)."""
    return (u * window).astype(np.int64)


def _log_survival(p: np.ndarray) -> np.ndarray:
    """``log(1 - p)`` with ``p`` clipped into (0, 1) so the value is finite."""
    return np.log1p(-np.minimum(np.maximum(p, 1e-12), 1.0 - 1e-12))


def _geometric_draw(u: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """Shifted-geometric inverse CDF: ``P(K = k) = p (1-p)^k`` for ``k >= 0``.

    ``log_q`` is ``log(1 - p)`` precomputed by :func:`_log_survival`; both the
    quotient and the cap are non-negative, so truncation equals floor.
    """
    raw = np.log1p(-u) / log_q
    return np.minimum(raw, MAX_BACKOFF_SLOTS).astype(np.int64)


class BatchedPolicyBank(ABC):
    """State of one backoff policy for every (cell, station) of a batch.

    ``cells`` / ``stations`` arguments are parallel flat index arrays naming
    the (cell, station) pairs to redraw, each pair at most once per call;
    ``u`` is a ``(len(cells), k)`` array of uniforms gathered from each
    cell's own stream, where ``k`` is the bank's fixed per-event draw count.
    """

    #: Whether stations observe channel activity (IdleSense does).
    observes_channel = False

    #: Whether channel observations are per (cell, station) rather than per
    #: cell.  Per-cell observation is only valid in fully connected cells
    #: (every station sees the identical channel); simulators for arbitrary
    #: sensing graphs require per-station observation state
    #: (:class:`BatchedStationIdleSenseBank`).
    per_station_observations = False

    #: Uniforms consumed per initial draw / success redraw / failure redraw.
    draws_initial = 1
    draws_success = 1
    draws_failure = 1

    @abstractmethod
    def initial_draw(self, cells: np.ndarray, stations: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
        """Backoff counters before the very first transmission attempt."""

    @abstractmethod
    def success_draw(self, cells: np.ndarray, stations: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
        """Backoff counters after a successful transmission."""

    @abstractmethod
    def failure_draw(self, cells: np.ndarray, stations: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
        """Backoff counters after a failed (collided/errored) transmission."""

    def observe_transmission(self, cell_mask: np.ndarray,
                             idle_run: np.ndarray) -> None:
        """Feed one observed transmission per cell in ``cell_mask``.

        ``idle_run[c]`` is the number of idle slots that preceded it.  In a
        fully connected cell every station observes the same channel, so the
        observation state lives per cell, not per station.
        """
        return None

    def station_observed_idle(self) -> Optional[np.ndarray]:
        """Per-cell mean station-observed idle average (IdleSense only)."""
        return None

    def probe_state(self) -> Dict[str, np.ndarray]:
        """Controller-state snapshot for simulator probes (read-only).

        2-D ``(cells, stations)`` arrays become per-station series, 1-D
        ``(cells,)`` arrays cell-level series — see
        :func:`repro.telemetry.probes.flatten_bank_state`.  Must never
        mutate bank state or touch a random stream.
        """
        return {}


class _ExponentialWindowBank(BatchedPolicyBank):
    """Shared per-station backoff-stage machinery of DCF and RandomReset.

    Both schemes draw uniformly from ``CW_i = min(2^i CWmin, CWmax)`` and
    double on failure (stage saturating at ``m``); they differ only in what a
    success does to the stage.
    """

    def __init__(self, phy: PhyParameters, num_cells: int, max_stations: int) -> None:
        self._cw_min = np.int64(phy.cw_min)
        self._cw_max = np.int64(phy.cw_max)
        self._num_stages = int(phy.num_backoff_stages)
        self._stride = int(max_stations)
        self._stage = np.zeros((num_cells, max_stations), dtype=np.int64)
        self._stage_f = self._stage.reshape(-1)
        #: ``CW_i`` by stage ``i``: one gather per draw.
        self._windows = np.minimum(
            self._cw_min << np.arange(self._num_stages + 1), self._cw_max)

    def failure_draw(self, cells, stations, u):
        # A one-index get and set beat two two-index ones even after the
        # flat index is formed; the set-only success paths keep two indices.
        flat = cells * self._stride + stations
        stage = np.minimum(self._stage_f[flat] + 1, self._num_stages)
        self._stage_f[flat] = stage
        return _uniform_window_draw(u[:, 0], self._windows[stage])

    @property
    def stages(self) -> np.ndarray:
        """Per-(cell, station) backoff stages (diagnostics/tests)."""
        return self._stage.copy()

    def probe_state(self) -> Dict[str, np.ndarray]:
        return {"cw": self._windows[self._stage], "stage": self._stage.copy()}


class BatchedDcfBank(_ExponentialWindowBank):
    """IEEE 802.11 DCF binary exponential backoff, batched.

    Mirrors :class:`~repro.mac.backoff.StandardExponentialBackoff`: per-station
    stage, doubling on failure up to ``m`` and resetting on success.
    """

    def initial_draw(self, cells, stations, u):
        # Stage 0 draws from CW_0 = CWmin (CWmax >= CWmin).
        self._stage[cells, stations] = 0
        return _uniform_window_draw(u[:, 0], self._cw_min)

    success_draw = initial_draw


class _IdleSenseAimdBank(BatchedPolicyBank):
    """The AIMD settings and window update both IdleSense banks share, with
    the defaults of :class:`~repro.mac.idlesense.IdleSenseBackoff`."""

    observes_channel = True

    def __init__(
        self,
        phy: PhyParameters,
        target_idle_slots: float = DEFAULT_TARGET_IDLE_SLOTS,
        epsilon: float = DEFAULT_EPSILON,
        alpha: float = DEFAULT_ALPHA,
        maxtrans: int = DEFAULT_MAXTRANS,
        max_window: int = DEFAULT_MAX_WINDOW,
    ) -> None:
        if target_idle_slots <= 0:
            raise ValueError("target_idle_slots must be positive")
        self._cw_min = float(phy.cw_min)
        self._target = float(target_idle_slots)
        self._epsilon = float(epsilon)
        self._alpha = float(alpha)
        self._maxtrans = int(maxtrans)
        self._max_window = float(max_window)

    def _aimd(self, window: np.ndarray, avg_idle: np.ndarray) -> np.ndarray:
        """The windows after one AIMD update at these idle averages."""
        window = np.where(avg_idle < self._target,
                          window + self._epsilon, window * self._alpha)
        return np.minimum(np.maximum(window, self._cw_min), self._max_window)


class BatchedIdleSenseBank(_IdleSenseAimdBank):
    """IdleSense AIMD contention window, batched.

    In a fully connected cell every station sees the identical idle/busy slot
    sequence, so all stations of a cell share one window trajectory (the
    scalar simulator reaches the same state through N identical per-station
    objects); the bank therefore keeps one window per cell.
    """

    def __init__(self, phy: PhyParameters, num_cells: int, **aimd) -> None:
        super().__init__(phy, **aimd)
        self._window = np.full(num_cells, self._cw_min, dtype=np.float64)
        self._sum_idle = np.zeros(num_cells, dtype=np.float64)
        self._ntrans = np.zeros(num_cells, dtype=np.int64)
        self._total_idle = np.zeros(num_cells, dtype=np.int64)
        self._total_trans = np.zeros(num_cells, dtype=np.int64)

    def observe_transmission(self, cell_mask, idle_run):
        np.add(self._sum_idle, idle_run, out=self._sum_idle, where=cell_mask)
        np.add(self._total_idle, idle_run, out=self._total_idle,
               where=cell_mask)
        self._total_trans += cell_mask
        self._ntrans += cell_mask
        due = ((self._ntrans >= self._maxtrans) & cell_mask).nonzero()[0]
        if due.size:
            self._window[due] = self._aimd(
                self._window[due], self._sum_idle[due] / self._ntrans[due])
            self._sum_idle[due] = 0.0
            self._ntrans[due] = 0

    def initial_draw(self, cells, stations, u):
        window = np.maximum(np.rint(self._window[cells]), 1.0)
        return _uniform_window_draw(u[:, 0], window)

    success_draw = failure_draw = initial_draw

    def station_observed_idle(self):
        out = self._total_idle / np.maximum(self._total_trans, 1)
        return np.where(self._total_trans > 0, out, np.nan)

    @property
    def windows(self) -> np.ndarray:
        """Per-cell contention windows (diagnostics/tests)."""
        return self._window.copy()

    def probe_state(self) -> Dict[str, np.ndarray]:
        return {
            "cw": self._window.copy(),
            "idle_est": self.station_observed_idle(),
        }


class BatchedStationIdleSenseBank(_IdleSenseAimdBank):
    """IdleSense AIMD contention windows, batched with per-station state.

    The per-cell :class:`BatchedIdleSenseBank` exploits that in a fully
    connected cell every station observes the identical idle/busy sequence.
    On an arbitrary sensing graph that no longer holds: each station sees
    only the transmissions of its sensing set, so windows, idle-run sums and
    AIMD epochs diverge per station — exactly like the scalar
    :class:`~repro.mac.idlesense.IdleSenseBackoff` objects the event-driven
    simulator drives.

    The state lives in ``(cells, S)`` arrays that are also addressed through
    1-D views: the conflict-graph simulator feeds observations through
    :meth:`observe_stations` with flat indices ``cell * S + station``, since
    a one-index gather or scatter costs a fraction of a two-index one at
    batch widths.
    """

    per_station_observations = True

    def __init__(self, phy: PhyParameters, num_cells: int, max_stations: int,
                 **aimd) -> None:
        super().__init__(phy, **aimd)
        self._stride = int(max_stations)
        shape = (num_cells, max_stations)
        self._window = np.full(shape, self._cw_min, dtype=np.float64)
        self._sum_idle = np.zeros(shape, dtype=np.float64)
        self._ntrans = np.zeros(shape, dtype=np.int64)
        self._total_idle = np.zeros(shape, dtype=np.int64)
        self._total_trans = np.zeros(shape, dtype=np.int64)
        self._window_f = self._window.reshape(-1)
        self._sum_idle_f = self._sum_idle.reshape(-1)
        self._ntrans_f = self._ntrans.reshape(-1)
        self._total_idle_f = self._total_idle.reshape(-1)
        self._total_trans_f = self._total_trans.reshape(-1)

    def observe_stations(self, flat: np.ndarray,
                         idle_slots: np.ndarray) -> None:
        """Record one observed transmission per flat station index.

        ``flat[k]`` names station ``flat[k] % S`` of cell ``flat[k] // S``;
        ``idle_slots[k]`` is the number of backoff slots it counted down
        since the last transmission it observed.  Indices are unique per
        call (a station observes at most one channel onset per simulator
        event), and each station's state is touched only through its own
        index, so one call may carry observations of unrelated stations.
        """
        self._sum_idle_f[flat] += idle_slots
        self._total_idle_f[flat] += idle_slots
        self._total_trans_f[flat] += 1
        ntrans = self._ntrans_f[flat] + 1
        self._ntrans_f[flat] = ntrans
        due = ntrans >= self._maxtrans
        if np.count_nonzero(due):
            df = flat[due]
            self._window_f[df] = self._aimd(
                self._window_f[df], self._sum_idle_f[df] / ntrans[due])
            self._sum_idle_f[df] = 0.0
            self._ntrans_f[df] = 0

    def _draw(self, cells, stations, u):
        window = self._window_f[cells * self._stride + stations]
        return _uniform_window_draw(u, np.maximum(np.rint(window), 1.0))

    def initial_draw(self, cells, stations, u):
        return self._draw(cells, stations, u[:, 0])

    def success_draw(self, cells, stations, u):
        return self._draw(cells, stations, u[:, 0])

    def failure_draw(self, cells, stations, u):
        return self._draw(cells, stations, u[:, 0])

    def station_observed_idle(self):
        """Per-cell mean of the stations' long-run observed idle averages.

        Each cell's mean is taken over a gathered 1-D array of only its own
        observed stations (not a vectorized sum over the padded station
        axis): NumPy's pairwise summation groups operands differently for
        different array widths, so a padded-axis sum would make the last
        bits of the mean depend on the *batch's* widest cell — breaking the
        per-cell composition-independence contract for a pure diagnostics
        value.  The gathered array's length is the cell's own observed
        count, so its summation order is a function of the cell alone.
        """
        per_station = self._total_idle / np.maximum(self._total_trans, 1)
        observed = self._total_trans > 0
        out = np.full(observed.shape[0], np.nan)
        for cell in range(observed.shape[0]):
            stations = np.flatnonzero(observed[cell])
            if stations.size:
                out[cell] = float(per_station[cell, stations].mean())
        return out

    @property
    def windows(self) -> np.ndarray:
        """Per-(cell, station) contention windows (diagnostics/tests)."""
        return self._window.copy()

    def probe_state(self) -> Dict[str, np.ndarray]:
        idle_est = np.where(
            self._total_trans > 0,
            self._total_idle / np.maximum(self._total_trans, 1),
            np.nan,
        )
        return {"cw": self._window.copy(), "idle_est": idle_est}


class BatchedPPersistentBank(BatchedPolicyBank):
    """p-persistent CSMA stations, batched.

    The per-cell base probability is either fixed (open-loop sweeps) or read
    live from a wTOP-CSMA controller bank (``control``), which replaces the
    scalar simulator's "broadcast on every ACK": since the slotted simulator
    re-broadcasts the advertised ``p`` to every station on each success and
    tick update, station state always equals the controller's current
    advertisement, so reading it at draw time is equivalent.  Per-station
    weights map through Lemma 1 exactly as in the scalar policy.
    """

    def __init__(
        self,
        num_cells: int,
        max_stations: int,
        initial_p: float,
        weights: Optional[Sequence[float]] = None,
        control=None,
    ) -> None:
        if not 0.0 <= initial_p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self._initial_p = float(initial_p)
        self._initial_log_q = float(_log_survival(np.asarray(initial_p)))
        self._control = control
        self._log_q_cache = np.full(num_cells, self._initial_log_q)
        self._log_q_version = -1
        if weights is None:
            self._weights = None
        else:
            padded = np.ones(max_stations, dtype=np.float64)
            given = np.asarray(weights, dtype=np.float64)[:max_stations]
            if np.any(given <= 0):
                raise ValueError("weights must be positive")
            padded[: given.size] = given
            self._weights = padded

    def _base_p(self, cells: np.ndarray) -> np.ndarray:
        if self._control is None:
            return np.full(cells.shape, self._initial_p)
        return self._control.advertised_p()[cells]

    def _log_q(self, cells: np.ndarray) -> np.ndarray:
        """``log(1 - p_t)`` per draw; cached per control-version, cell-wise."""
        if self._weights is not None:
            return None  # weighted: per-station, computed by the caller
        if self._control is None:
            return self._log_q_cache[cells]
        version = self._control.version
        if version != self._log_q_version:
            self._log_q_cache = _log_survival(self._control.advertised_p())
            self._log_q_version = version
        return self._log_q_cache[cells]

    def _weighted_draw(self, cells, stations, u, base_p):
        # Lemma 1 forward map (array form of
        # ``repro.core.weighted_fairness.station_attempt_probability``).
        weight = self._weights[stations]
        station_p = weight * base_p / (1.0 + (weight - 1.0) * base_p)
        return _geometric_draw(u, _log_survival(station_p))

    def initial_draw(self, cells, stations, u):
        if self._weights is not None:
            base = np.full(cells.shape, self._initial_p)
            return self._weighted_draw(cells, stations, u[:, 0], base)
        return _geometric_draw(u[:, 0], self._initial_log_q)

    def success_draw(self, cells, stations, u):
        if self._weights is not None:
            return self._weighted_draw(cells, stations, u[:, 0], self._base_p(cells))
        return _geometric_draw(u[:, 0], self._log_q(cells))

    failure_draw = success_draw

    def probe_state(self) -> Dict[str, np.ndarray]:
        num_cells = self._log_q_cache.shape[0]
        base_p = self._base_p(np.arange(num_cells))
        if self._weights is None:
            return {"attempt_p": base_p}
        # Lemma 1 forward map per station, broadcast over all cells.
        weight = self._weights[np.newaxis, :]
        p = base_p[:, np.newaxis]
        return {"attempt_p": weight * p / (1.0 + (weight - 1.0) * p)}


class BatchedRandomResetBank(_ExponentialWindowBank):
    """RandomReset(j; p0) stations, batched.

    On failure the per-station stage increments (saturating at ``m``); on a
    success the stage is redrawn from the reset distribution parameterised by
    the advertised ``(j, p0)`` — fixed for open-loop sweeps, read live from a
    TORA-CSMA controller bank otherwise (see
    :class:`BatchedPPersistentBank` for why live reads are equivalent to
    per-ACK broadcasts).  Success and initial draws always consume three
    uniforms (reset Bernoulli, uniform stage, window draw) so the stream
    consumption is a fixed function of the event kind.
    """

    draws_initial = 3
    draws_success = 3
    draws_failure = 1

    def __init__(
        self,
        phy: PhyParameters,
        num_cells: int,
        max_stations: int,
        initial_stage: int = 0,
        initial_p0: float = 1.0,
        control=None,
    ) -> None:
        super().__init__(phy, num_cells, max_stations)
        if not 0 <= initial_stage <= self._num_stages:
            raise ValueError(f"stage must lie in [0, {self._num_stages}]")
        if not 0.0 <= initial_p0 <= 1.0:
            raise ValueError("reset probability must lie in [0, 1]")
        self._initial_stage = int(initial_stage)
        self._initial_p0 = float(initial_p0)
        self._control = control

    def _reset_draw(self, cells, stations, u, reset_stage, p0):
        """Redraw the stage from ``(j, p0)`` (scalars or per-pair arrays).

        ``u[:, 0]`` decides reset-to-``j`` and ``u[:, 1]`` picks a uniform
        higher stage, capped at ``m``; at ``j = m`` (stages never exceed
        ``m``) both branches give ``m``.
        """
        m = self._num_stages
        higher = reset_stage + 1 + (u[:, 1] * (m - reset_stage)).astype(np.int64)
        stage = np.where(u[:, 0] < p0, reset_stage, np.minimum(higher, m))
        self._stage[cells, stations] = stage
        return _uniform_window_draw(u[:, 2], self._windows[stage])

    def initial_draw(self, cells, stations, u):
        return self._reset_draw(cells, stations, u, self._initial_stage,
                                self._initial_p0)

    def success_draw(self, cells, stations, u):
        if self._control is None:
            return self._reset_draw(cells, stations, u, self._initial_stage,
                                    self._initial_p0)
        return self._reset_draw(cells, stations, u,
                                self._control.advertised_stage()[cells],
                                self._control.advertised_p0()[cells])
