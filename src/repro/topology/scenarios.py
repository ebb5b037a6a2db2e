"""Pre-packaged network scenarios used throughout the paper's evaluation.

These helpers combine a placement strategy with the paper's two radii
(decode range 16 units, carrier-sense range 24 units) and return a ready
:class:`~repro.topology.graph.ConnectivityGraph`.

Three scenario families cover every figure:

* :func:`fully_connected_scenario` — ring of radius 8 (Figures 2, 3, 13,
  Table II, and the "without hidden nodes" rows of Figure 1 / Table III).
* :func:`hidden_node_scenario` — uniform placement in a disc of radius 16 or
  20 (Figures 1, 4, 5, 6, 7 and Table III "with hidden nodes").
* :func:`two_cluster_hidden_scenario` — a deterministic topology with two
  groups guaranteed to be mutually hidden, used in unit tests and examples
  where a *repeatable* hidden configuration is needed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graph import ConnectivityGraph
from .placement import (
    clustered_placement,
    ring_placement,
    uniform_disc_placement,
)

__all__ = [
    "fully_connected_scenario",
    "hidden_node_scenario",
    "two_cluster_hidden_scenario",
    "FULLY_CONNECTED_RING_RADIUS",
    "HIDDEN_DISC_RADIUS_SMALL",
    "HIDDEN_DISC_RADIUS_LARGE",
]

#: Ring radius of the paper's fully connected configuration.
FULLY_CONNECTED_RING_RADIUS = 8.0

#: Disc radius of the paper's first hidden-node configuration (Fig. 6).
HIDDEN_DISC_RADIUS_SMALL = 16.0

#: Disc radius of the paper's second hidden-node configuration (Fig. 7).
HIDDEN_DISC_RADIUS_LARGE = 20.0


def fully_connected_scenario(
    num_stations: int,
    radius: float = FULLY_CONNECTED_RING_RADIUS,
) -> ConnectivityGraph:
    """Ring placement guaranteed to produce a fully connected network."""
    graph = ConnectivityGraph(ring_placement(num_stations, radius=radius))
    if not graph.is_fully_connected():
        raise ValueError(
            "requested fully connected scenario produced hidden pairs; "
            "reduce the ring radius or enlarge the carrier-sense range"
        )
    return graph


def hidden_node_scenario(
    num_stations: int,
    rng: np.random.Generator,
    radius: float = HIDDEN_DISC_RADIUS_SMALL,
    require_hidden_pairs: bool = False,
    max_attempts: int = 50,
) -> ConnectivityGraph:
    """Uniform disc placement, the paper's randomised hidden-node setup.

    With the default radius 16, hidden pairs occur with non-zero probability
    (the maximum station separation 32 exceeds the sensing range 24).  Set
    ``require_hidden_pairs=True`` to resample until at least one hidden pair
    exists, which matches the paper's "with hidden nodes" data points.

    The decode range is extended to cover the requested disc radius (the
    paper's Section VI uses radii of 16 and 20 m with every station still
    able to reach the AP); the carrier-sense range stays at 24 units so
    hidden pairs arise exactly when two stations are more than 24 units
    apart, as the paper states.
    """
    decode = max(16.0, float(radius))
    sense = max(24.0, decode)
    last: Optional[ConnectivityGraph] = None
    for _ in range(max_attempts):
        placement = uniform_disc_placement(num_stations, radius=radius, rng=rng)
        graph = ConnectivityGraph(placement, decode, sense)
        last = graph
        if not require_hidden_pairs or not graph.is_fully_connected():
            return graph
    if last is None:  # pragma: no cover - max_attempts >= 1 always
        raise RuntimeError("no placement generated")
    return last


def two_cluster_hidden_scenario(
    stations_per_cluster: int,
    rng: Optional[np.random.Generator] = None,
    separation: float = 28.0,
    spread: float = 1.0,
) -> ConnectivityGraph:
    """Two tight clusters placed symmetrically about the AP.

    Cluster centres sit at ``(+-separation/2, 0)``; with the default
    separation of 28 units both clusters are inside the AP decode range
    (14 <= 16) but outside each other's carrier-sense range (28 > 24), so
    every cross-cluster pair is hidden.  Intra-cluster nodes sense each other.
    """
    if stations_per_cluster < 1:
        raise ValueError("stations_per_cluster must be at least 1")
    rng = rng or np.random.default_rng(0)
    half = separation / 2.0
    placement = clustered_placement(
        cluster_centers=[(-half, 0.0), (half, 0.0)],
        stations_per_cluster=[stations_per_cluster, stations_per_cluster],
        spread=spread,
        rng=rng,
    )
    return ConnectivityGraph(placement)
