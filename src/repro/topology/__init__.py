"""Topology: node placement, sensing graphs and hidden-node analysis."""

from .graph import ConnectivityGraph, HiddenNodeReport
from .placement import (
    AP_POSITION,
    Placement,
    Position,
    clustered_placement,
    explicit_placement,
    ring_placement,
    uniform_disc_placement,
)
from .scenarios import (
    FULLY_CONNECTED_RING_RADIUS,
    HIDDEN_DISC_RADIUS_LARGE,
    HIDDEN_DISC_RADIUS_SMALL,
    fully_connected_scenario,
    hidden_node_scenario,
    two_cluster_hidden_scenario,
)

__all__ = [
    "ConnectivityGraph",
    "HiddenNodeReport",
    "AP_POSITION",
    "Placement",
    "Position",
    "clustered_placement",
    "explicit_placement",
    "ring_placement",
    "uniform_disc_placement",
    "FULLY_CONNECTED_RING_RADIUS",
    "HIDDEN_DISC_RADIUS_LARGE",
    "HIDDEN_DISC_RADIUS_SMALL",
    "fully_connected_scenario",
    "hidden_node_scenario",
    "two_cluster_hidden_scenario",
]
