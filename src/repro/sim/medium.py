"""Shared wireless medium with per-station carrier sensing.

The medium tracks which transmissions are currently in the air and tells each
station when *its own view* of the channel changes between idle and busy.
Station ``i`` senses a transmission from station ``j`` only if ``j`` is in
``i``'s sensing set (``T_j`` membership in the paper's notation) — this is
what creates hidden nodes.  Transmissions from the access point (ACKs) are
sensed by everyone.

Collision semantics follow the paper's Section II exactly: a data frame is
received successfully iff **no other data transmission overlaps it in time**,
regardless of where the other transmitter is.  The medium therefore marks any
pair of temporally overlapping data transmissions as corrupted; ACKs never
corrupt anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Set

from ..phy.frame import Frame, FrameType
from .engine import EventScheduler

__all__ = ["AP_NODE_ID", "ActiveTransmission", "MediumListener", "Medium"]

#: Reserved node id of the access point.
AP_NODE_ID = -1


@dataclass
class ActiveTransmission:
    """A transmission currently (or previously) in the air."""

    source: int
    frame: Frame
    start_ns: int
    end_ns: int
    corrupted: bool = False

    @property
    def is_data(self) -> bool:
        return self.frame.frame_type is FrameType.DATA

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class MediumListener(Protocol):
    """Interface stations implement to hear about their channel state."""

    def on_medium_busy(self, now_ns: int,
                       transmission: "ActiveTransmission") -> None:
        """The station's sensed channel transitioned idle -> busy.

        ``transmission`` is the frame whose start caused the transition
        (stations use its type to distinguish data from ACK activity when
        collecting IdleSense-style observations).
        """

    def on_medium_idle(self, now_ns: int) -> None:
        """The station's sensed channel transitioned busy -> idle."""


class Medium:
    """Tracks in-flight transmissions and dispatches carrier-sense events.

    Parameters
    ----------
    scheduler:
        The event scheduler (used only for the current time).
    sensing_sets:
        ``sensing_sets[i]`` is the set of stations whose transmissions
        station ``i`` can sense (station ``i`` itself may or may not be in
        the set; it is ignored because a station never carrier-senses its own
        transmission).
    """

    def __init__(self, scheduler: EventScheduler,
                 sensing_sets: Sequence[Set[int]]) -> None:
        self._scheduler = scheduler
        self._num_stations = len(sensing_sets)
        # Pre-compute, for each transmitter, which stations will sense it.
        self._sensed_by: List[List[int]] = [[] for _ in range(self._num_stations)]
        for listener_id, sensed in enumerate(sensing_sets):
            for source in sensed:
                if source == listener_id:
                    continue
                if not 0 <= source < self._num_stations:
                    raise ValueError(f"sensing set refers to unknown station {source}")
                self._sensed_by[source].append(listener_id)
        self._listeners: Dict[int, MediumListener] = {}
        self._busy_counts = [0] * self._num_stations
        self._active: List[ActiveTransmission] = []
        self._active_data_count = 0
        # Channel-occupancy accounting (for the Table III idle-slot metric).
        self._data_busy_since_ns: Optional[int] = None
        self._data_busy_total_ns = 0
        self._data_busy_periods = 0
        # Observers notified of every transmission start (AP-side statistics).
        self._start_observers: List[Callable[[ActiveTransmission], None]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @property
    def num_stations(self) -> int:
        return self._num_stations

    def register_listener(self, station: int, listener: MediumListener) -> None:
        """Attach the station process that wants carrier-sense callbacks."""
        if not 0 <= station < self._num_stations:
            raise ValueError(f"unknown station {station}")
        self._listeners[station] = listener

    def add_start_observer(self, observer: Callable[[ActiveTransmission], None]) -> None:
        """Register a callback invoked at the start of every transmission."""
        self._start_observers.append(observer)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_busy_for(self, station: int) -> bool:
        """Whether station ``station`` currently senses the channel busy."""
        return self._busy_counts[station] > 0

    # ------------------------------------------------------------------
    # Channel occupancy statistics (system level, used by Table III)
    # ------------------------------------------------------------------
    @property
    def data_busy_total_ns(self) -> int:
        """Total time at least one data transmission was in the air."""
        total = self._data_busy_total_ns
        if self._data_busy_since_ns is not None:
            total += self._scheduler.now_ns - self._data_busy_since_ns
        return total

    @property
    def data_busy_periods(self) -> int:
        """Number of maximal intervals with >= 1 data transmission in the air."""
        return self._data_busy_periods

    def reset_occupancy_statistics(self) -> None:
        """Restart the occupancy counters (used at the end of a warm-up)."""
        self._data_busy_total_ns = 0
        self._data_busy_periods = 1 if self._data_busy_since_ns is not None else 0
        if self._data_busy_since_ns is not None:
            self._data_busy_since_ns = self._scheduler.now_ns

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------
    def start_transmission(self, source: int, frame: Frame,
                           duration_ns: int) -> ActiveTransmission:
        """Put a frame on the air for ``duration_ns`` starting now.

        The caller is responsible for scheduling :meth:`end_transmission`
        at the returned transmission's ``end_ns``.
        """
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        now = self._scheduler.now_ns
        transmission = ActiveTransmission(
            source=source, frame=frame, start_ns=now, end_ns=now + duration_ns
        )
        if transmission.is_data:
            # Any temporal overlap between two data frames destroys both.
            for other in self._active:
                if other.is_data:
                    other.corrupted = True
                    transmission.corrupted = True
            if self._active_data_count == 0:
                self._data_busy_since_ns = now
                self._data_busy_periods += 1
            self._active_data_count += 1
        self._active.append(transmission)
        for observer in self._start_observers:
            observer(transmission)
        self._notify_start(source, now, transmission)
        return transmission

    def end_transmission(self, transmission: ActiveTransmission) -> None:
        """Remove a frame from the air (call exactly at its end time)."""
        now = self._scheduler.now_ns
        try:
            self._active.remove(transmission)
        except ValueError:
            raise ValueError("transmission is not active") from None
        if transmission.is_data:
            self._active_data_count -= 1
            if self._active_data_count == 0 and self._data_busy_since_ns is not None:
                self._data_busy_total_ns += now - self._data_busy_since_ns
                self._data_busy_since_ns = None
        self._notify_end(transmission.source, now)

    # ------------------------------------------------------------------
    # Carrier-sense notifications
    # ------------------------------------------------------------------
    def _audience(self, source: int) -> Sequence[int]:
        if source == AP_NODE_ID:
            return range(self._num_stations)
        return self._sensed_by[source]

    def _notify_start(self, source: int, now_ns: int,
                      transmission: ActiveTransmission) -> None:
        for station in self._audience(source):
            self._busy_counts[station] += 1
            if self._busy_counts[station] == 1:
                listener = self._listeners.get(station)
                if listener is not None:
                    listener.on_medium_busy(now_ns, transmission)

    def _notify_end(self, source: int, now_ns: int) -> None:
        for station in self._audience(source):
            self._busy_counts[station] -= 1
            if self._busy_counts[station] < 0:  # pragma: no cover - defensive
                raise RuntimeError("busy count underflow; unbalanced start/end")
            if self._busy_counts[station] == 0:
                listener = self._listeners.get(station)
                if listener is not None:
                    listener.on_medium_idle(now_ns)
