"""Discrete-event simulation kernel.

A minimal, dependency-free event scheduler built on :mod:`heapq`.  Time is an
integer number of nanoseconds so that event ordering is exact and independent
of floating-point rounding; helpers convert to/from seconds at the edges.

Events are callbacks scheduled at absolute times.  The heap holds
``(time_ns, sequence, event)`` entries, so its comparisons run on integers
in C and same-time events run in insertion order.  Cancelling an event marks
it dead in place (lazy deletion), which keeps cancellation O(1) — important
because the CSMA state machines cancel a scheduled transmission every time
the medium turns busy during a countdown.  Long hidden-node runs retime
transmissions constantly, so cancelled entries would otherwise pile up in
the heap (inflating every push/pop by their ``log`` factor); the scheduler
therefore compacts the heap whenever cancelled entries outnumber live ones.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..phy.constants import NS_PER_SECOND

__all__ = ["Event", "EventScheduler", "SimulationClock"]


class Event:
    """A scheduled callback.  Create via :meth:`EventScheduler.schedule_at`."""

    __slots__ = ("time_ns", "callback", "args", "cancelled", "done")

    def __init__(self, time_ns: int, callback: Callable[..., None],
                 args: Tuple[Any, ...]) -> None:
        self.time_ns = time_ns
        self.callback = callback
        self.args = args
        self.cancelled = False
        # True once the event has left the heap (run, skipped or compacted
        # away); late cancel() calls on such events must not touch the
        # scheduler's cancelled-entry accounting.
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid only
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time_ns}ns, {name}, {state})"


class SimulationClock:
    """Read-only view of the scheduler's current time."""

    def __init__(self, scheduler: "EventScheduler") -> None:
        self._scheduler = scheduler

    @property
    def now_ns(self) -> int:
        return self._scheduler.now_ns

    @property
    def now(self) -> float:
        return self._scheduler.now


class EventScheduler:
    """Priority-queue based discrete-event scheduler."""

    #: Heap size below which compaction is never attempted (the rebuild cost
    #: would exceed the savings).
    COMPACTION_FLOOR = 64

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._sequence = itertools.count()
        self._now_ns = 0
        self._processed = 0
        self._cancelled = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> int:
        """Current simulation time in integer nanoseconds."""
        return self._now_ns

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now_ns / NS_PER_SECOND

    @property
    def pending_events(self) -> int:
        """Number of events in the queue (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_events(self) -> int:
        """Number of cancelled events still occupying the queue."""
        return self._cancelled

    @property
    def heap_compactions(self) -> int:
        """Number of times the heap was compacted (diagnostics/tests)."""
        return self._compactions

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def clock(self) -> SimulationClock:
        """A read-only clock handle safe to hand to components."""
        return SimulationClock(self)

    # ------------------------------------------------------------------
    def schedule_at(self, time_ns: int, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now_ns:
            raise ValueError(
                f"cannot schedule in the past (now={self._now_ns}, requested={time_ns})"
            )
        event = Event(int(time_ns), callback, args)
        heapq.heappush(self._heap, (event.time_ns, next(self._sequence), event))
        return event

    def schedule_in(self, delay_ns: int, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay_ns`` nanoseconds."""
        if delay_ns < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now_ns + int(delay_ns), callback, *args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a scheduled event (no-op for None or already-run events).

        Cancellation is O(1) (the event is marked dead in place); when dead
        entries come to outnumber the live ones the whole heap is compacted,
        so the queue's size — and the cost of every subsequent push and pop —
        tracks the number of *live* events, not the cancellation churn.
        """
        if event is None or event.cancelled or event.done:
            return
        event.cancelled = True
        self._cancelled += 1
        if (self._cancelled * 2 > len(self._heap)
                and len(self._heap) >= self.COMPACTION_FLOOR):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap in one O(n) pass."""
        for _, _, event in self._heap:
            if event.cancelled:
                event.done = True
        # In place: run_until holds a reference to the list.
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            event.done = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now_ns = event.time_ns
            self._processed += 1
            event.callback(*event.args)
            return True
        return False

    def run_until(self, time_ns: int) -> None:
        """Run all events with timestamps <= ``time_ns``; advance the clock.

        The clock ends exactly at ``time_ns`` even if the last event was
        earlier, so measurement windows have exact lengths.
        """
        if time_ns < self._now_ns:
            raise ValueError("cannot run into the past")
        heap = self._heap
        while heap:
            if heap[0][0] > time_ns:
                break
            event = heapq.heappop(heap)[2]
            event.done = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now_ns = event.time_ns
            self._processed += 1
            event.callback(*event.args)
        self._now_ns = time_ns

    def run_until_empty(self, max_events: int = 10_000_000) -> None:
        """Drain the queue (with a runaway guard); used only in tests."""
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise RuntimeError("event budget exhausted; possible event loop")
