"""Traffic workload models: arrival processes and per-station frame queues.

Every simulator in the repository originally hard-coded *saturated* uplink
sources — each station always has a frame ready, which is the paper's
operating point but only one point of the offered-load axis.  This package
describes unsaturated and bursty workloads declaratively and provides the
deterministic machinery all four backends (scalar slotted, event-driven,
batched renewal-slot, batched conflict-matrix) share:

* :class:`ArrivalProcess` — a frozen, hashable descriptor of one station's
  frame-arrival process (saturated, Poisson, deterministic CBR, or on-off
  bursty with Poisson arrivals inside exponentially distributed bursts) plus
  the bounded FIFO queue capacity.  It serialises to canonical JSON so the
  campaign engine can hash it into task keys — with the **saturated**
  process canonicalised away entirely, so pre-traffic cache entries stay
  valid.
* :class:`ArrivalStream` — scalar per-station arrival-time stream used by
  the slotted and event-driven simulators; all randomness flows through the
  inverse-CDF transform of uniform draws so the scalar and vectorized
  implementations sample identical distributions.
* :class:`FrameQueue` — scalar bounded FIFO of arrival timestamps (exact
  per-frame queueing delay at delivery, drops on overflow, flush on
  activity-schedule leave).
* :class:`BatchedArrivals` — vectorized arrival + queue state for the
  batched backends: per-(cell, station) next-arrival times, ring-buffered
  arrival timestamps and per-cell offered/dropped/delay accumulators.  Each
  cell consumes uniforms from its own block-buffered stream in an order
  that depends only on that cell's trajectory, so per-cell results are
  bit-identical under any batch composition (the same contract as
  :class:`repro.sim.ledger.CellStreams`, which it reuses).

Determinism contract
--------------------

The *scalar* simulators derive one arrival generator per station from
``(seed, TRAFFIC_STREAM_SALT, station)`` (:func:`station_arrival_rng`), so
the slotted and event-driven backends see bit-identical per-station arrival
sequences for the same task seed.  The batched backends use per-cell
streams instead (arrival draws interleave across a cell's stations in
trajectory order); their arrival processes are identically distributed but
not bit-equal to the scalar ones — exactly the equivalence class the
existing backends already occupy for backoff draws.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TRAFFIC_KINDS",
    "TRAFFIC_STREAM_SALT",
    "ArrivalProcess",
    "ArrivalStream",
    "FrameQueue",
    "BatchedArrivals",
    "station_arrival_rng",
    "saturation_frame_rate",
]

#: Arrival-process kinds understood by every backend.
TRAFFIC_KINDS = ("saturated", "poisson", "cbr", "on-off", "window", "incast")

#: Kinds whose frames arrive autonomously (open loop, clocked by time).
OPEN_LOOP_KINDS = ("poisson", "cbr", "on-off", "incast")

#: Seed-sequence salt separating arrival streams from contention streams.
#: Arrival randomness must never share a stream with backoff randomness:
#: the saturated path must not consume (or even create) arrival draws, and
#: the unsaturated path must not perturb the backoff stream.
TRAFFIC_STREAM_SALT = 0x7452_6166

#: Default bounded per-station FIFO capacity (frames).
DEFAULT_QUEUE_LIMIT = 64

#: Sentinel "unbounded flow" frame budget for persistent window sources.
_NO_FLOW_BOUND = np.int64(2) ** 62


def station_arrival_rng(seed: int, station: int) -> np.random.Generator:
    """The scalar simulators' per-station arrival generator (both backends)."""
    return np.random.default_rng((int(seed), TRAFFIC_STREAM_SALT, int(station)))


def saturation_frame_rate(phy) -> float:
    """System-wide frame rate (frames/s) of back-to-back successes.

    ``1 / Ts`` is the service capacity of the channel with zero contention
    overhead — an upper bound on what any MAC can deliver, which makes it a
    natural normaliser for offered-load sweeps: per-station offered load
    ``x`` times saturation capacity is ``x * saturation_frame_rate(phy) / N``
    frames/s.  Real MACs saturate below ``x = 1`` (backoff and collisions
    consume airtime), so a sweep to ``2.0x`` comfortably covers the
    overload regime.
    """
    return 1.0 / phy.ts


def _exponential(u, mean: float):
    """Inverse-CDF exponential transform shared by scalar and batched code."""
    return -np.log1p(-u) * mean


@dataclass(frozen=True)
class ArrivalProcess:
    """Declarative per-station frame-arrival process plus queue bound.

    Use the factory classmethods rather than the raw constructor.  The
    ``saturated`` process is the degenerate "always backlogged" workload
    every simulator models natively; it carries no parameters and is
    canonicalised to ``None`` inside :class:`~repro.experiments.campaign
    .specs.RunTask` so that saturated task hashes are unchanged from the
    pre-traffic format.

    Attributes
    ----------
    kind:
        One of :data:`TRAFFIC_KINDS`.
    rate_fps:
        Mean frame arrival rate per station in frames/s (for ``on-off``:
        the Poisson rate *while a burst is on*).
    queue_limit:
        Bounded FIFO capacity; arrivals to a full queue are dropped.
    on_mean_s / off_mean_s:
        Mean burst / idle durations of the ``on-off`` process (both
        exponentially distributed).
    retry_limit:
        Maximum transmission *attempts* per frame before the MAC discards
        it (802.11 retry limit).  ``None`` — the default — retries forever,
        which is the historical behaviour of every backend; keeping it the
        default preserves committed baselines and cache task hashes
        bit-for-bit.
    window / flow_frames:
        ``window``-kind parameters: at most ``window`` frames are
        outstanding per station, and a new frame is released each time one
        leaves the MAC (delivered *or* retry-discarded) — a TCP-like
        closed loop clocked by the channel.  ``flow_frames`` bounds the
        per-station flow (``None`` = persistent source).
    burst_frames / epoch_s:
        ``incast``-kind parameters: every station deterministically
        receives ``burst_frames`` frames at once at each epoch boundary
        ``k * epoch_s`` (N-to-1 synchronized bursts).
    downlink:
        Model the AP as a contending transmitter: station 0 carries the
        aggregate downlink flow at ``(N - 1) x rate_fps`` while stations
        ``1..N-1`` keep the per-station uplink rate.  Applies to the
        open-loop rate-based kinds.
    """

    kind: str
    rate_fps: float = 0.0
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    on_mean_s: Optional[float] = None
    off_mean_s: Optional[float] = None
    retry_limit: Optional[int] = None
    window: Optional[int] = None
    flow_frames: Optional[int] = None
    burst_frames: Optional[int] = None
    epoch_s: Optional[float] = None
    downlink: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def saturated(cls, retry_limit: Optional[int] = None) -> "ArrivalProcess":
        """Every station always backlogged (the paper's workload)."""
        return cls(kind="saturated", rate_fps=0.0, queue_limit=0,
                   retry_limit=retry_limit)

    @classmethod
    def poisson(cls, rate_fps: float,
                queue_limit: int = DEFAULT_QUEUE_LIMIT,
                retry_limit: Optional[int] = None,
                downlink: bool = False) -> "ArrivalProcess":
        """Poisson arrivals at ``rate_fps`` frames/s per station."""
        return cls(kind="poisson", rate_fps=float(rate_fps),
                   queue_limit=int(queue_limit), retry_limit=retry_limit,
                   downlink=bool(downlink))

    @classmethod
    def cbr(cls, rate_fps: float,
            queue_limit: int = DEFAULT_QUEUE_LIMIT,
            retry_limit: Optional[int] = None,
            downlink: bool = False) -> "ArrivalProcess":
        """Deterministic constant-bit-rate arrivals, one frame every
        ``1 / rate_fps`` seconds, with a per-station uniform random phase
        (so stations do not arrive in lock-step)."""
        return cls(kind="cbr", rate_fps=float(rate_fps),
                   queue_limit=int(queue_limit), retry_limit=retry_limit,
                   downlink=bool(downlink))

    @classmethod
    def on_off(cls, rate_fps: float, on_mean_s: float, off_mean_s: float,
               queue_limit: int = DEFAULT_QUEUE_LIMIT,
               retry_limit: Optional[int] = None,
               downlink: bool = False) -> "ArrivalProcess":
        """Bursty on-off source: exponential ON bursts (mean ``on_mean_s``)
        with Poisson arrivals at ``rate_fps``, separated by exponential OFF
        gaps (mean ``off_mean_s``); sources start ON at time 0."""
        return cls(kind="on-off", rate_fps=float(rate_fps),
                   queue_limit=int(queue_limit),
                   on_mean_s=float(on_mean_s), off_mean_s=float(off_mean_s),
                   retry_limit=retry_limit, downlink=bool(downlink))

    @classmethod
    def window_limited(cls, window: int, flow_frames: Optional[int] = None,
                       queue_limit: Optional[int] = None,
                       retry_limit: Optional[int] = None) -> "ArrivalProcess":
        """TCP-like closed loop: ``window`` frames outstanding per station,
        each departure (delivery or retry discard) releases the next frame.
        ``flow_frames`` bounds the flow; ``None`` keeps the source
        persistent.  ``queue_limit`` defaults to ``window`` (the loop never
        holds more than the window, so the queue cannot overflow)."""
        window = int(window)
        limit = window if queue_limit is None else int(queue_limit)
        return cls(kind="window", queue_limit=limit, window=window,
                   flow_frames=None if flow_frames is None
                   else int(flow_frames),
                   retry_limit=retry_limit)

    @classmethod
    def incast(cls, burst_frames: int, epoch_s: float,
               queue_limit: int = DEFAULT_QUEUE_LIMIT,
               retry_limit: Optional[int] = None) -> "ArrivalProcess":
        """N-to-1 incast: every station receives ``burst_frames`` frames
        simultaneously at each epoch boundary ``k * epoch_s`` (fan-in
        request rounds), deterministically — no randomness at all."""
        return cls(kind="incast", queue_limit=int(queue_limit),
                   burst_frames=int(burst_frames), epoch_s=float(epoch_s),
                   retry_limit=retry_limit)

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind '{self.kind}'; expected one of "
                f"{TRAFFIC_KINDS}"
            )
        if self.retry_limit is not None and self.retry_limit < 1:
            raise ValueError(
                "retry_limit must be at least 1 attempt (or None for "
                "infinite retries)"
            )
        if self.downlink and self.kind not in ("poisson", "cbr", "on-off"):
            raise ValueError(
                f"downlink only applies to rate-based traffic, not "
                f"'{self.kind}'"
            )
        for field, kinds in (("window", ("window",)),
                             ("flow_frames", ("window",)),
                             ("burst_frames", ("incast",)),
                             ("epoch_s", ("incast",))):
            if getattr(self, field) is not None and self.kind not in kinds:
                raise ValueError(
                    f"{field} only applies to {kinds[0]} traffic, not "
                    f"'{self.kind}'"
                )
        if self.kind == "saturated":
            return
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.kind == "window":
            if self.rate_fps:
                raise ValueError("window traffic is clocked by deliveries, "
                                 "not a rate")
            if self.window is None or self.window < 1:
                raise ValueError("window traffic needs a window of at "
                                 "least 1 frame")
            if self.queue_limit < self.window:
                raise ValueError("queue_limit must be at least the window "
                                 "(the loop keeps window frames queued)")
            if self.flow_frames is not None and self.flow_frames < 1:
                raise ValueError("flow_frames must be at least 1 (or None "
                                 "for a persistent source)")
            return
        if self.kind == "incast":
            if self.rate_fps:
                raise ValueError("incast traffic is an epoch burst, not a "
                                 "rate")
            if self.burst_frames is None or self.burst_frames < 1:
                raise ValueError("incast traffic needs at least 1 frame "
                                 "per burst")
            if self.epoch_s is None or self.epoch_s <= 0:
                raise ValueError("incast traffic needs a positive epoch_s")
            return
        if self.rate_fps <= 0:
            raise ValueError("rate_fps must be positive")
        if self.kind == "on-off":
            if not self.on_mean_s or self.on_mean_s <= 0:
                raise ValueError("on-off traffic needs a positive on_mean_s")
            if not self.off_mean_s or self.off_mean_s <= 0:
                raise ValueError("on-off traffic needs a positive off_mean_s")
        elif self.on_mean_s is not None or self.off_mean_s is not None:
            raise ValueError(
                f"on/off durations only apply to on-off traffic, not "
                f"'{self.kind}'"
            )

    # ------------------------------------------------------------------
    @property
    def is_saturated(self) -> bool:
        return self.kind == "saturated"

    @property
    def is_closed_loop(self) -> bool:
        """Releases clocked by frame departures instead of wall time."""
        return self.kind == "window"

    @property
    def mean_rate_fps(self) -> float:
        """Long-run mean arrival rate per station (inf when the source is
        always backlogged: saturated and window-limited closed loops)."""
        if self.is_saturated or self.kind == "window":
            return math.inf
        if self.kind == "incast":
            return self.burst_frames / self.epoch_s
        if self.kind == "on-off":
            duty = self.on_mean_s / (self.on_mean_s + self.off_mean_s)
            return self.rate_fps * duty
        return self.rate_fps

    def rate_for(self, station: int, num_stations: int) -> float:
        """Per-station arrival rate, with the downlink aggregate on
        station 0 (the AP's transmit queue) when ``downlink`` is set."""
        if self.downlink and station == 0:
            return self.rate_fps * max(num_stations - 1, 1)
        return self.rate_fps

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": self.kind}
        if self.kind in ("poisson", "cbr", "on-off"):
            payload["rate_fps"] = self.rate_fps
            payload["queue_limit"] = self.queue_limit
        if self.kind == "on-off":
            payload["on_mean_s"] = self.on_mean_s
            payload["off_mean_s"] = self.off_mean_s
        if self.kind == "window":
            payload["window"] = self.window
            if self.flow_frames is not None:
                payload["flow_frames"] = self.flow_frames
            payload["queue_limit"] = self.queue_limit
        if self.kind == "incast":
            payload["burst_frames"] = self.burst_frames
            payload["epoch_s"] = self.epoch_s
            payload["queue_limit"] = self.queue_limit
        if self.downlink:
            payload["downlink"] = True
        if self.retry_limit is not None:
            payload["retry_limit"] = self.retry_limit
        return payload


class ArrivalStream:
    """Scalar per-station arrival-time stream (slotted / event simulators).

    ``next_time`` is the absolute time (seconds) of the next frame arrival;
    :meth:`advance` consumes it and draws the following one.  All draws go
    through the inverse-CDF transform of ``rng.random()`` so the scalar and
    batched implementations sample identical distributions.  ``rate_fps``
    overrides the spec's rate for this station (downlink aggregates —
    callers pass :meth:`ArrivalProcess.rate_for`); the deterministic
    ``incast`` kind consumes no randomness at all.
    """

    def __init__(self, spec: ArrivalProcess, rng: np.random.Generator,
                 rate_fps: Optional[float] = None) -> None:
        if spec.is_saturated or spec.is_closed_loop:
            raise ValueError(f"{spec.kind} traffic has no arrival stream")
        self._spec = spec
        self._rng = rng
        if spec.kind == "incast":
            self._burst_left = spec.burst_frames
            self.next_time = 0.0
            return
        self._period = 1.0 / (spec.rate_fps if rate_fps is None else rate_fps)
        if spec.kind == "cbr":
            self.next_time = float(rng.random()) * self._period
        elif spec.kind == "poisson":
            self.next_time = float(_exponential(rng.random(), self._period))
        else:  # on-off: sources start a burst at time 0
            self._on_until = float(_exponential(rng.random(), spec.on_mean_s))
            self.next_time = self._next_onoff(0.0)

    def _next_onoff(self, cursor: float) -> float:
        spec = self._spec
        while True:
            candidate = cursor + float(
                _exponential(self._rng.random(), self._period)
            )
            if candidate <= self._on_until:
                return candidate
            # The burst ended before the candidate arrival: skip the OFF gap
            # and restart the (memoryless) arrival clock at the next burst.
            cursor = self._on_until + float(
                _exponential(self._rng.random(), spec.off_mean_s)
            )
            self._on_until = cursor + float(
                _exponential(self._rng.random(), spec.on_mean_s)
            )

    def advance(self) -> float:
        """Consume and return the current arrival; compute the next one."""
        current = self.next_time
        if self._spec.kind == "incast":
            self._burst_left -= 1
            if self._burst_left == 0:
                self._burst_left = self._spec.burst_frames
                self.next_time = current + self._spec.epoch_s
            return current
        if self._spec.kind == "cbr":
            self.next_time = current + self._period
        elif self._spec.kind == "poisson":
            self.next_time = current + float(
                _exponential(self._rng.random(), self._period)
            )
        else:
            self.next_time = self._next_onoff(current)
        return current


class FrameQueue:
    """Bounded FIFO of frame-arrival timestamps for one station."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("queue limit must be at least 1")
        self._limit = int(limit)
        self._times: Deque[float] = collections.deque()

    def __len__(self) -> int:
        return len(self._times)

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def head_time(self) -> Optional[float]:
        """Arrival time of the head-of-line frame, if any."""
        return self._times[0] if self._times else None

    def offer(self, arrival_time_s: float) -> bool:
        """Enqueue an arrival; False (a drop) when the queue is full."""
        if len(self._times) >= self._limit:
            return False
        self._times.append(float(arrival_time_s))
        return True

    def pop(self, now_s: float) -> float:
        """Dequeue the head frame (a delivery); returns its queueing delay."""
        return now_s - self._times.popleft()

    def flush(self) -> int:
        """Discard every queued frame (activity-schedule leave); returns
        the number flushed so the caller can account them as drops."""
        flushed = len(self._times)
        self._times.clear()
        return flushed


class BatchedArrivals:
    """Vectorized arrival + bounded-queue state for the batched backends.

    All arrays are laid out ``(cell, station)`` like the simulators' own
    state.  Uniform draws come from one block-buffered stream per cell
    (:class:`repro.sim.ledger.CellStreams` seeded with
    ``(seed, TRAFFIC_STREAM_SALT)``), consumed in an order that is a
    deterministic function of the cell's own trajectory — so per-cell
    results are independent of batch composition, the same contract the
    contention streams obey.

    Offered/dropped counters and the queue-delay accumulator are per cell
    and reset at each cell's warm-up crossing
    (:meth:`reset_measurement`), mirroring how the simulators reset their
    success/failure counters.
    """

    def __init__(
        self,
        spec: ArrivalProcess,
        seeds: Sequence[int],
        num_stations: Sequence[int],
        max_stations: Optional[int] = None,
    ) -> None:
        if spec.is_saturated:
            raise ValueError("saturated traffic has no batched arrival state")
        from ..sim.ledger import CellStreams  # local import: sim imports us

        self._spec = spec
        self._limit = int(spec.queue_limit)
        n = np.asarray(num_stations, dtype=np.int64)
        num_cells = n.size
        width = int(n.max()) if max_stations is None else int(max_stations)
        if width < int(n.max()):
            raise ValueError("max_stations is smaller than a cell's count")
        self._n = n
        self._exists = np.arange(width)[None, :] < n[:, None]
        self._streams = CellStreams(
            [(int(seed), TRAFFIC_STREAM_SALT) for seed in seeds],
            block=np.maximum(4096, 16 * n),
        )
        shape = (num_cells, width)
        self._period = None
        self._period_cs = None
        if spec.kind in ("poisson", "cbr", "on-off"):
            if spec.downlink:
                # Station 0 is the AP queue carrying the (N-1)x aggregate.
                rates = np.where(
                    np.arange(width)[None, :] == 0,
                    spec.rate_fps * np.maximum(n - 1, 1)[:, None].astype(float),
                    spec.rate_fps,
                )
                self._period_cs = 1.0 / rates
            else:
                self._period = 1.0 / spec.rate_fps
        self._next = np.full(shape, np.inf)
        self._qlen = np.zeros(shape, dtype=np.int64)
        self._head = np.zeros(shape, dtype=np.int64)
        self._ring = np.zeros(shape + (self._limit,))
        if spec.kind == "on-off":
            self._on_until = np.full(shape, np.inf)
        #: Per-cell counters over the current measurement window.
        self.offered = np.zeros(num_cells, dtype=np.int64)
        self.dropped = np.zeros(num_cells, dtype=np.int64)
        self.delay_sum = np.zeros(num_cells)
        #: Measurement epoch per cell (bumped by :meth:`reset_measurement`)
        #: tagging the per-frame delay log, so percentiles cover only the
        #: post-warm-up window.
        self._epoch = np.zeros(num_cells, dtype=np.int64)
        self._delay_log: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._completions: List[List[Tuple[int, float]]] = [
            [] for _ in range(num_cells)
        ]

        cells, stations = np.nonzero(self._exists)
        if spec.kind == "window":
            # Closed loop: pre-fill each queue with the window (release
            # times 0.0 — the ring is already zeroed); later releases are
            # clocked by departures, never by `_next`.
            flow = spec.flow_frames
            prefill = spec.window if flow is None else min(spec.window, flow)
            self._qlen[self._exists] = prefill
            self.offered[:] = prefill * n
            remaining = _NO_FLOW_BOUND if flow is None else flow - prefill
            self._flow_left = np.where(self._exists, remaining, 0)
            self._flow_done = np.zeros(shape, dtype=np.int64)
            self._flow_total = 0 if flow is None else int(flow)
            return
        if spec.kind == "incast":
            # Deterministic epoch bursts: every station is due at t=0 and
            # consumes zero uniforms, ever.
            self._next[cells, stations] = 0.0
            self._burst_left = np.where(self._exists, spec.burst_frames, 0)
            return
        # First arrivals: one draw per existing station (plus the initial
        # burst length for on-off), consumed cell-by-cell in station order.
        if spec.kind == "on-off":
            self._on_until[cells, stations] = _exponential(
                self._claim_one(cells), spec.on_mean_s
            )
        if spec.kind == "cbr":
            self._next[cells, stations] = (
                self._claim_one(cells) * self._period_of(cells, stations)
            )
        else:
            self._next[cells, stations] = 0.0
            self._draw_next(cells, stations)

    # ------------------------------------------------------------------
    def _period_of(self, cells: np.ndarray, stations: np.ndarray):
        """Mean inter-arrival period per (cell, station) pair — a scalar
        unless downlink skews station 0."""
        if self._period_cs is None:
            return self._period
        return self._period_cs[cells, stations]

    def _claim_one(self, cells: np.ndarray) -> np.ndarray:
        """Claim one uniform per entry of sorted ``cells`` (duplicates OK)."""
        counts = np.bincount(cells, minlength=self._n.size)
        base = self._streams.claim(counts)
        rank = np.arange(cells.size) - np.searchsorted(cells, cells)
        return self._streams.buffer[cells, base[cells] + rank]

    def _draw_next(self, cells: np.ndarray, stations: np.ndarray) -> None:
        """Advance ``next`` past the arrival currently stored there.

        ``cells`` must be sorted (``np.nonzero`` order), so per-cell stream
        claims land in station order — a deterministic function of the
        cell's own due set.
        """
        kind = self._spec.kind
        if kind == "incast":
            self._burst_left[cells, stations] -= 1
            done = self._burst_left[cells, stations] == 0
            dc, ds = cells[done], stations[done]
            self._burst_left[dc, ds] = self._spec.burst_frames
            self._next[dc, ds] += self._spec.epoch_s
            return
        if kind == "cbr":
            self._next[cells, stations] += self._period_of(cells, stations)
            return
        if kind == "poisson":
            self._next[cells, stations] += _exponential(
                self._claim_one(cells), self._period_of(cells, stations)
            )
            return
        # on-off: redraw until the candidate lands inside a burst; stations
        # whose candidate crosses the burst end skip the OFF gap (two more
        # draws) and retry.  Whether a station iterates again depends only
        # on its own state, so per-cell stream consumption stays a function
        # of the cell's own trajectory.
        cursor = self._next[cells, stations].copy()
        pending = np.arange(cells.size)
        while pending.size:
            pc, ps = cells[pending], stations[pending]
            candidate = cursor[pending] + _exponential(
                self._claim_one(pc), self._period_of(pc, ps)
            )
            ok = candidate <= self._on_until[pc, ps]
            self._next[pc[ok], ps[ok]] = candidate[ok]
            cross = pending[~ok]
            if not cross.size:
                break
            cc, cs = cells[cross], stations[cross]
            counts = np.bincount(cc, minlength=self._n.size) * 2
            base = self._streams.claim(counts)
            rank = np.arange(cc.size) - np.searchsorted(cc, cc)
            u = self._streams.gather(cc, base[cc] + rank * 2, 2)
            burst_start = self._on_until[cc, cs] + _exponential(
                u[:, 0], self._spec.off_mean_s
            )
            self._on_until[cc, cs] = burst_start + _exponential(
                u[:, 1], self._spec.on_mean_s
            )
            cursor[cross] = burst_start
            pending = cross

    # ------------------------------------------------------------------
    @property
    def queue_limit(self) -> int:
        return self._limit

    @property
    def queue_lengths(self) -> np.ndarray:
        """Per-(cell, station) queue lengths (diagnostics/tests)."""
        return self._qlen.copy()

    def has_frame(self) -> np.ndarray:
        """Boolean (cell, station) mask of stations with a queued frame."""
        return self._qlen > 0

    def next_min(self) -> np.ndarray:
        """Per-cell earliest pending arrival time (seconds; inf if none)."""
        return self._next.min(axis=1)

    # ------------------------------------------------------------------
    def advance(self, now_s: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Process every arrival at or before each cell's ``now``.

        ``active[c, s]`` marks stations currently in the network (activity
        schedules); arrivals to inactive stations are counted offered and
        dropped.  Returns the (cell, station) mask of stations whose queue
        went empty -> non-empty (they must rejoin contention).
        """
        rejoined = np.zeros(self._qlen.shape, dtype=bool)
        while True:
            due = self._next <= now_s[:, None]
            if not due.any():
                return rejoined
            dc, ds = np.nonzero(due)
            arrival = self._next[dc, ds].copy()
            np.add.at(self.offered, dc, 1)
            accept = active[dc, ds] & (self._qlen[dc, ds] < self._limit)
            if accept.any():
                ac, as_ = dc[accept], ds[accept]
                slot = (self._head[ac, as_] + self._qlen[ac, as_]) % self._limit
                self._ring[ac, as_, slot] = arrival[accept]
                empty = self._qlen[ac, as_] == 0
                rejoined[ac[empty], as_[empty]] = True
                self._qlen[ac, as_] += 1
            if not accept.all():
                np.add.at(self.dropped, dc[~accept], 1)
            self._draw_next(dc, ds)

    def pop_success(self, cells: np.ndarray, stations: np.ndarray,
                    now_s: np.ndarray) -> None:
        """Dequeue the head frame of each delivered (cell, station) pair,
        accumulating its exact FIFO queueing delay (sum and per-frame log
        for the percentile metrics)."""
        head = self._head[cells, stations]
        delay = now_s[cells] - self._ring[cells, stations, head]
        np.add.at(self.delay_sum, cells, delay)
        if cells.size:
            self._delay_log.append(
                (cells.copy(), delay, self._epoch[cells].copy())
            )
        self._qlen[cells, stations] -= 1
        self._head[cells, stations] = (head + 1) % self._limit
        self._after_pop(cells, stations, now_s[cells])

    def pop_discard(self, cells: np.ndarray, stations: np.ndarray,
                    now_s: np.ndarray) -> None:
        """Dequeue the head frame of each retry-discarding pair *without*
        delay accounting (the frame was never delivered); the departure
        still clocks the closed-loop release like a delivery would —
        discard-blind flow control would deadlock the window."""
        head = self._head[cells, stations]
        self._qlen[cells, stations] -= 1
        self._head[cells, stations] = (head + 1) % self._limit
        self._after_pop(cells, stations, now_s[cells])

    def _after_pop(self, cells: np.ndarray, stations: np.ndarray,
                   now_pair: np.ndarray) -> None:
        """Closed-loop bookkeeping once a frame leaves the MAC: release the
        next window frame and record finished flows.  No-op for the
        open-loop kinds."""
        if self._spec.kind != "window":
            return
        self._flow_done[cells, stations] += 1
        release = self._flow_left[cells, stations] > 0
        if release.any():
            rc, rs = cells[release], stations[release]
            slot = (self._head[rc, rs] + self._qlen[rc, rs]) % self._limit
            self._ring[rc, rs, slot] = now_pair[release]
            self._qlen[rc, rs] += 1
            self._flow_left[rc, rs] -= 1
            np.add.at(self.offered, rc, 1)
        if self._flow_total:
            finished = self._flow_done[cells, stations] == self._flow_total
            for c, s, t in zip(cells[finished], stations[finished],
                               now_pair[finished]):
                self._completions[int(c)].append((int(s), float(t)))

    def flush(self, cells: np.ndarray, stations: np.ndarray) -> None:
        """Discard the queues of leaving stations, accounting the flushed
        frames as drops (they were offered but will never be delivered)."""
        np.add.at(self.dropped, cells, self._qlen[cells, stations])
        self._qlen[cells, stations] = 0

    def reset_measurement(self, cell_mask: np.ndarray) -> None:
        """Zero the measurement counters of cells crossing their warm-up."""
        self.offered[cell_mask] = 0
        self.dropped[cell_mask] = 0
        self.delay_sum[cell_mask] = 0.0
        self._epoch[cell_mask] += 1
        for cell in np.flatnonzero(cell_mask):
            self._completions[cell] = []

    def delays_for(self, cell: int) -> np.ndarray:
        """Per-frame queueing delays delivered by ``cell`` inside its
        current measurement epoch (for the p50/p99 metrics)."""
        epoch = self._epoch[cell]
        chunks = [delays[(cells == cell) & (epochs == epoch)]
                  for cells, delays, epochs in self._delay_log]
        if not chunks:
            return np.zeros(0)
        return np.concatenate(chunks)

    def annotate_result(self, cell: int, stations: int,
                        extra: Dict[str, object]) -> Dict[str, object]:
        """One cell's traffic contribution to a simulation result.

        Adds the workload metadata to ``extra`` in place and returns the
        :class:`~repro.sim.metrics.SimulationResult` counter fields
        (``offered_frames`` / ``dropped_frames`` / ``queue_delay_sum_s``
        plus the flow-level delay percentiles and completion times);
        shared by both vectorized backends so their serialisation cannot
        drift apart.
        """
        extra["traffic"] = self._spec.kind
        extra["offered_rate_fps"] = self._spec.mean_rate_fps
        extra["queued_frames"] = int(self._qlen[cell, :stations].sum())
        delays = self.delays_for(cell)
        if delays.size:
            p50, p99 = np.quantile(delays, (0.5, 0.99))
        else:
            p50 = p99 = 0.0
        return dict(
            offered_frames=int(self.offered[cell]),
            dropped_frames=int(self.dropped[cell]),
            queue_delay_sum_s=float(self.delay_sum[cell]),
            queue_delay_p50_s=float(p50),
            queue_delay_p99_s=float(p99),
            flow_completions=tuple(sorted(self._completions[cell])),
        )
