"""Node placement strategies.

The paper uses two placement configurations (Section I and VI):

* **Ring placement** — nodes placed uniformly on the edge of a disc of
  radius 8 centred at the AP.  With decode range 16 and carrier-sense range
  24 this is a fully connected network (maximum node separation is 16 <= 24).
* **Uniform disc placement** — nodes placed uniformly at random in a disc of
  radius 16 or 20 centred at the AP.  The maximum separation (32 or 40) can
  exceed the 24-unit sensing range, so hidden node pairs appear with non-zero
  probability.

All placements put the access point at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Position",
    "Placement",
    "ring_placement",
    "uniform_disc_placement",
    "clustered_placement",
    "explicit_placement",
    "AP_POSITION",
]

#: 2-D coordinate type used throughout the topology package.
Position = Tuple[float, float]

#: The access point always sits at the origin.
AP_POSITION: Position = (0.0, 0.0)


@dataclass(frozen=True)
class Placement:
    """A set of station positions plus the AP position.

    Attributes
    ----------
    stations:
        Positions of the ``N`` stations, indexed ``0 .. N-1``.
    ap:
        Position of the access point (always the origin for the paper's
        scenarios, but kept explicit for generality).
    description:
        Human-readable description used in experiment reports.
    """

    stations: Tuple[Position, ...]
    ap: Position = AP_POSITION
    description: str = ""

    @property
    def num_stations(self) -> int:
        return len(self.stations)

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between stations ``i`` and ``j``."""
        xi, yi = self.stations[i]
        xj, yj = self.stations[j]
        return math.hypot(xi - xj, yi - yj)

    def distance_to_ap(self, i: int) -> float:
        """Euclidean distance from station ``i`` to the AP."""
        xi, yi = self.stations[i]
        return math.hypot(xi - self.ap[0], yi - self.ap[1])


def _validate_count(num_stations: int) -> None:
    if num_stations < 1:
        raise ValueError("num_stations must be at least 1")


def ring_placement(num_stations: int, radius: float = 8.0,
                   phase: float = 0.0) -> Placement:
    """Place stations evenly on a circle of ``radius`` around the AP.

    This is the paper's "no hidden nodes" configuration when
    ``2 * radius <= carrier-sense range``.
    """
    _validate_count(num_stations)
    if radius <= 0:
        raise ValueError("radius must be positive")
    positions: List[Position] = []
    for k in range(num_stations):
        angle = phase + 2.0 * math.pi * k / num_stations
        positions.append((radius * math.cos(angle), radius * math.sin(angle)))
    return Placement(
        stations=tuple(positions),
        description=f"ring(r={radius:g}, N={num_stations})",
    )


def uniform_disc_placement(num_stations: int, radius: float,
                           rng: np.random.Generator,
                           min_ap_distance: float = 0.0) -> Placement:
    """Place stations uniformly at random inside a disc of ``radius``.

    Uses the standard ``r = R * sqrt(u)`` transform so the spatial density is
    uniform over the disc area.  ``min_ap_distance`` optionally keeps nodes
    away from the AP itself.
    """
    _validate_count(num_stations)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not 0 <= min_ap_distance < radius:
        raise ValueError("min_ap_distance must lie in [0, radius)")
    positions: List[Position] = []
    for _ in range(num_stations):
        u = rng.uniform(min_ap_distance ** 2 / radius ** 2, 1.0)
        r = radius * math.sqrt(u)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        positions.append((r * math.cos(theta), r * math.sin(theta)))
    return Placement(
        stations=tuple(positions),
        description=f"uniform-disc(r={radius:g}, N={num_stations})",
    )


def clustered_placement(cluster_centers: Sequence[Position],
                        stations_per_cluster: Sequence[int],
                        spread: float,
                        rng: np.random.Generator) -> Placement:
    """Place stations in Gaussian clusters around given centres.

    Useful for constructing *deterministic* hidden-node scenarios: two
    clusters placed farther apart than the carrier-sense range but both
    within decode range of the AP yield two mutually hidden groups.
    """
    if len(cluster_centers) != len(stations_per_cluster):
        raise ValueError("cluster_centers and stations_per_cluster lengths differ")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    positions: List[Position] = []
    for (cx, cy), count in zip(cluster_centers, stations_per_cluster):
        if count < 0:
            raise ValueError("stations_per_cluster entries must be non-negative")
        for _ in range(count):
            positions.append((cx + rng.normal(0.0, spread),
                              cy + rng.normal(0.0, spread)))
    if not positions:
        raise ValueError("at least one station is required")
    return Placement(
        stations=tuple(positions),
        description=f"clusters(k={len(cluster_centers)}, N={len(positions)})",
    )


def explicit_placement(positions: Iterable[Position],
                       ap: Position = AP_POSITION,
                       description: str = "explicit") -> Placement:
    """Wrap explicit coordinates into a :class:`Placement`."""
    stations = tuple((float(x), float(y)) for x, y in positions)
    if not stations:
        raise ValueError("at least one station is required")
    return Placement(stations=stations, ap=ap, description=description)
