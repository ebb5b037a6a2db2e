"""Simulator-level probes: windowed controller/queue/throughput time series.

PR 7's telemetry made the *campaign* observable; this module makes the
*simulation itself* observable.  A :class:`ProbeConfig` installed through
:func:`session` asks every simulator backend (scalar slotted, scalar
event-driven, batched renewal-slot, batched conflict-matrix) to sample
per-station and per-cell controller state on a fixed virtual-time grid —
contention window / attempt probability, IdleSense idle estimate, wTOP/TORA
controller stage, queue depth, windowed per-station throughput and channel
busy fraction — into bounded :class:`ProbeBuffer` rings, emitted at the end
of the run as one ``probe`` record per cell through the ambient
:class:`~repro.telemetry.Telemetry` session (and therefore the ``--trace``
JSONL stream, trace schema v2).

The contract matches telemetry's exactly:

* **Off by default and free when off** — each simulator hoists one
  ``probes.current() is not None`` check per run.
* **Observing never perturbs** — probes never touch a random stream, never
  alter an event/slot boundary, and never enter task hashes or cache keys;
  runs with probes on and off are bit-identical on every backend
  (``tests/sim/test_probe_differential.py`` proves it differentially and
  with Hypothesis).

Samples are taken *retroactively*: when a simulator's virtual clock crosses
one or more probe boundaries it records the state it is currently carrying
at each crossed boundary, instead of shrinking its time step to land on the
boundary (which would change fast-forward chunking and, on the event
backend, timer schedules).  Window accumulators (per-station bits, channel
busy time) reset at every boundary whether or not the sample is kept, so
windowed rates always describe exactly one interval.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence)

import numpy as np

__all__ = [
    "ProbeConfig",
    "ProbeBuffer",
    "ProbeGrid",
    "current",
    "session",
    "probe_record",
    "station_series",
    "controller_series",
    "flatten_bank_state",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling policy for simulator probes (picklable, ships to workers).

    ``interval`` is the virtual-time sampling period in seconds; ``capacity``
    bounds each cell's ring buffer.  When a run crosses more than
    ``capacity`` boundaries the buffer decimates itself (every other sample
    is dropped and the accept stride doubles), so memory stays bounded and
    the surviving samples still share one uniform time grid.
    """

    interval: float
    capacity: int = 512

    def __post_init__(self) -> None:
        if not (isinstance(self.interval, (int, float))
                and math.isfinite(self.interval) and self.interval > 0):
            raise ValueError(
                "probe interval must be a positive finite number of seconds"
            )
        if self.capacity < 2:
            raise ValueError("probe capacity must be at least 2 samples")


# ----------------------------------------------------------------------
# Ambient session (mirrors repro.telemetry.session exactly)
# ----------------------------------------------------------------------
_active: Optional[ProbeConfig] = None


def current() -> Optional[ProbeConfig]:
    """The ambient probe configuration (``None`` = probes off)."""
    return _active


@contextmanager
def session(config: Optional[ProbeConfig]) -> Iterator[Optional[ProbeConfig]]:
    """Install ``config`` as the ambient probe configuration.

    Simulators read the configuration once per ``run()`` through
    :func:`current`; nesting restores the previous configuration on exit,
    like :func:`repro.telemetry.session`.
    """
    global _active
    previous = _active
    _active = config
    try:
        yield config
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Bounded ring buffer with stride-doubling decimation
# ----------------------------------------------------------------------
class ProbeBuffer:
    """Bounded sample store keeping a uniform time grid under decimation.

    Boundaries arrive as a monotone ``tick`` counter (every probe boundary
    increments it, kept or not); a sample is accepted when ``tick`` is a
    multiple of the current ``stride``.  When the buffer reaches capacity it
    keeps every other stored sample and doubles the stride — the invariant
    that every stored tick is a multiple of the *current* stride survives
    the halving, so the retained samples always sit on one uniform grid of
    spacing ``stride * interval`` (the property the decimation test pins).

    Series may appear after the first sample (e.g. a station only becomes
    active mid-run); earlier positions backfill as NaN, and every series
    column always has exactly ``len(buffer)`` entries.
    """

    __slots__ = ("_capacity", "_stride", "_tick", "_times", "_series")

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self._capacity = int(capacity)
        self._stride = 1
        self._tick = 0
        self._times: List[float] = []
        self._series: Dict[str, List[float]] = {}

    def __len__(self) -> int:
        return len(self._times)

    @property
    def stride(self) -> int:
        return self._stride

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def series(self) -> Dict[str, List[float]]:
        return {name: list(column) for name, column in self._series.items()}

    def sample(self, t: float, values: Mapping[str, float]) -> None:
        """Record one boundary's state (may be decimated away)."""
        tick = self._tick
        self._tick = tick + 1
        if tick % self._stride:
            return
        if len(self._times) >= self._capacity:
            self._times = self._times[::2]
            for name in self._series:
                self._series[name] = self._series[name][::2]
            self._stride *= 2
            if tick % self._stride:
                return
        n = len(self._times)
        self._times.append(float(t))
        for name, value in values.items():
            column = self._series.get(name)
            if column is None:
                column = [math.nan] * n
                self._series[name] = column
            column.append(float(value))
        for column in self._series.values():
            if len(column) <= n:
                column.append(math.nan)


# ----------------------------------------------------------------------
# Per-cell probe grid of the vectorized kernels
# ----------------------------------------------------------------------
class ProbeGrid:
    """Probe buffers, boundaries and bit windows for a batch of cells.

    Time stays in the kernel's own clock unit: ``scale`` is 1 for a clock in
    seconds and ``NS_PER_SECOND`` for one in integer nanoseconds, so
    boundaries compare exactly with the kernel's clock.  ``sources`` are the
    batched banks whose ``probe_state()`` is sampled; ``arrivals`` (if any)
    supplies the queue lengths.  The kernel adds delivered payload bits to
    :attr:`bits_f` (flat ``cell * S + station`` view) and calls
    :meth:`drain` after each time advance; samples are taken retroactively
    at every boundary a cell's clock has passed.
    """

    def __init__(self, config: ProbeConfig, num_stations: np.ndarray,
                 max_stations: int, scale: int, sources: Sequence[Any],
                 arrivals: Optional[Any]) -> None:
        num_cells = len(num_stations)
        self.config = config
        self.scale = scale
        #: Boundary spacing in the kernel's unit.
        self.interval = (config.interval if scale == 1
                         else np.int64(round(config.interval * scale)))
        self.next = np.full(num_cells, self.interval)
        self.bits = np.zeros((num_cells, max_stations), dtype=np.int64)
        self.bits_f = self.bits.reshape(-1)
        self._bits_prev = np.zeros_like(self.bits)
        self._n = num_stations
        self._sources = sources
        self._arrivals = arrivals
        self._buffers = [ProbeBuffer(config.capacity)
                         for _ in range(num_cells)]
        self._t0 = time.time()

    def drain(self, now: np.ndarray,
              busy_frac: Callable[[int, Any], float]) -> None:
        """Sample every boundary at or before each cell's ``now``.

        ``busy_frac(cell, boundary)`` returns the channel busy fraction of
        the window that ends at ``boundary`` and starts the next window.
        """
        due = now >= self.next
        if not np.count_nonzero(due):
            return
        states = [source.probe_state() for source in self._sources]
        queues = (None if self._arrivals is None
                  else self._arrivals.queue_lengths)
        interval_s = self.interval / self.scale
        for cell in due.nonzero()[0]:
            cell = int(cell)
            stations = int(self._n[cell])
            while now[cell] >= self.next[cell]:
                boundary = self.next[cell]
                values: Dict[str, float] = {}
                for state in states:
                    values.update(flatten_bank_state(state, cell, stations))
                delta = self.bits[cell] - self._bits_prev[cell]
                for i in range(stations):
                    values[f"tput_mbps[{i}]"] = delta[i] / interval_s / 1e6
                values["throughput_mbps"] = (
                    int(delta[:stations].sum()) / interval_s / 1e6
                )
                values["busy_frac"] = busy_frac(cell, boundary)
                if queues is not None:
                    for i in range(stations):
                        values[f"queue[{i}]"] = float(queues[cell, i])
                self._buffers[cell].sample(float(boundary) / self.scale,
                                           values)
                self._bits_prev[cell] = self.bits[cell]
                self.next[cell] += self.interval

    def emit(self, tel, scope: str, seeds: Sequence[int]) -> None:
        """Emit one ``probe`` record per cell that holds samples."""
        for cell, buffer in enumerate(self._buffers):
            record = probe_record(scope, buffer, self.config, self._t0,
                                  seed=seeds[cell], cell=cell)
            if record is not None:
                tel.emit(record)


def probe_record(scope: str, buffer: ProbeBuffer, config: ProbeConfig,
                 t0: float, seed: Optional[int] = None,
                 cell: Optional[int] = None) -> Optional[Dict[str, Any]]:
    """Render one cell's buffer into a ``probe`` trace record.

    Returns ``None`` when the buffer holds no samples (the run ended before
    the first boundary).  NaN values (station not yet observed, series
    backfill) become JSON ``null``.
    """
    if not len(buffer):
        return None
    series = {
        name: [None if math.isnan(v) else v for v in column]
        for name, column in buffer.series.items()
    }
    record: Dict[str, Any] = {
        "type": "probe",
        "scope": scope,
        "t0": float(t0),
        "interval": float(config.interval),
        "stride": int(buffer.stride),
        "t": buffer.times,
        "series": series,
    }
    if seed is not None:
        record["seed"] = int(seed)
    if cell is not None:
        record["cell"] = int(cell)
    return record


# ----------------------------------------------------------------------
# State extraction helpers
# ----------------------------------------------------------------------
def station_series(index: int, policy) -> Dict[str, float]:
    """Controller-state series of one scalar station policy.

    Reads the policy's public observers only (``attempt_probability()``,
    ``state()``, IdleSense's ``observed_average_idle_slots()``) — never a
    random stream.
    """
    values: Dict[str, float] = {}
    p = policy.attempt_probability()
    if p is not None:
        values[f"attempt_p[{index}]"] = float(p)
    state = policy.state()
    if "window" in state:
        values[f"cw[{index}]"] = float(state["window"])
    if "stage" in state:
        values[f"stage[{index}]"] = float(state["stage"])
    observed = getattr(policy, "observed_average_idle_slots", None)
    if observed is not None:
        estimate = observed()
        if estimate is not None:
            values[f"idle_est[{index}]"] = float(estimate)
    return values


def controller_series(controller) -> Dict[str, float]:
    """Cell-level series from an AP controller's ``control()`` mapping.

    ``control`` is the controller's primary advertised value (wTOP's ``p``,
    TORA's ``p0``); ``ctrl_stage`` is TORA's advertised stage.
    """
    control = controller.control()
    values: Dict[str, float] = {}
    if not isinstance(control, Mapping):
        return values
    for key in ("p", "p0", "probability", "value"):
        value = control.get(key)
        if value is not None:
            values["control"] = float(value)
            break
    stage = control.get("stage")
    if stage is not None:
        values["ctrl_stage"] = float(stage)
    return values


def flatten_bank_state(state: Mapping[str, np.ndarray], cell: int,
                       num_stations: int) -> Dict[str, float]:
    """Flatten one cell's slice of a batched bank's ``probe_state()``.

    2-D ``(cells, stations)`` arrays become per-station ``name[i]`` series
    (restricted to the cell's real station count — batched banks pad to the
    widest cell); 1-D ``(cells,)`` arrays become a single cell-level series.
    """
    values: Dict[str, float] = {}
    for name, array in state.items():
        arr = np.asarray(array)
        if arr.ndim == 2:
            row = arr[cell]
            for i in range(num_stations):
                values[f"{name}[{i}]"] = float(row[i])
        elif arr.ndim == 1:
            values[name] = float(arr[cell])
        else:
            values[name] = float(arr)
    return values
