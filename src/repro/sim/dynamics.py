"""Dynamic-scenario support: time-varying number of active stations.

Figures 8-11 of the paper change the number of active stations at predefined
instants and watch the controllers re-converge.  An
:class:`ActivitySchedule` describes those step changes: at each breakpoint
time the first ``count`` stations are active and the rest are silent.

Both simulators understand the schedule; stations that become active draw a
fresh initial backoff, stations that become inactive simply stop contending.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["ActivitySchedule", "constant_activity", "step_activity"]


@dataclass(frozen=True)
class ActivitySchedule:
    """Piecewise-constant number of active stations.

    ``breakpoints`` is a sorted tuple of ``(time_s, active_count)``; the
    first entry must start at time 0.  ``active_count(t)`` returns the count
    in force at time ``t``.
    """

    breakpoints: Tuple[Tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ValueError("schedule needs at least one breakpoint")
        times = [t for t, _ in self.breakpoints]
        counts = [c for _, c in self.breakpoints]
        if times[0] != 0.0:
            raise ValueError("the first breakpoint must be at time 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
        if any(c < 1 for c in counts):
            raise ValueError("active counts must be at least 1")

    # ------------------------------------------------------------------
    @property
    def max_active(self) -> int:
        """Largest active count over the whole schedule (stations to allocate)."""
        return max(c for _, c in self.breakpoints)

    def active_count(self, time_s: float) -> int:
        """Number of active stations at time ``time_s``."""
        if time_s < 0:
            raise ValueError("time must be non-negative")
        times = [t for t, _ in self.breakpoints]
        index = bisect.bisect_right(times, time_s) - 1
        return self.breakpoints[index][1]

    def is_active(self, station: int, time_s: float) -> bool:
        """Whether station ``station`` is active at ``time_s``.

        Stations are activated in index order: the first ``count`` station
        ids are the active ones.
        """
        return station < self.active_count(time_s)

    def change_times(self) -> Tuple[float, ...]:
        """Times (excluding 0) at which the active count changes."""
        return tuple(t for t, _ in self.breakpoints[1:])

    def events_between(self, start_s: float, end_s: float) -> Tuple[Tuple[float, int], ...]:
        """Breakpoints with ``start_s < time <= end_s`` (for the slotted sim)."""
        return tuple(
            (t, c) for t, c in self.breakpoints if start_s < t <= end_s
        )


def constant_activity(num_stations: int) -> ActivitySchedule:
    """All ``num_stations`` stations active for the whole run."""
    if num_stations < 1:
        raise ValueError("num_stations must be at least 1")
    return ActivitySchedule(breakpoints=((0.0, num_stations),))


def step_activity(steps: Sequence[Tuple[float, int]]) -> ActivitySchedule:
    """Build a schedule from ``(time, count)`` pairs (first must be time 0)."""
    return ActivitySchedule(breakpoints=tuple((float(t), int(c)) for t, c in steps))
