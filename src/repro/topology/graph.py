"""Carrier-sense relationships between stations, from two radii.

The paper configures ns-3 so that a node decodes frames from nodes within
16 distance units and carrier-senses transmissions from nodes within 24
units (Section I and Table I).  Only these two radii matter to the MAC-level
behaviour the paper studies, so they are the whole topology model: given a
:class:`~repro.topology.placement.Placement`, :class:`ConnectivityGraph`
computes

* per-station sensing sets ``T_t`` (stations at most ``sense_range``
  apart sense each other), used by the event-driven simulator;
* the set of **hidden pairs** — stations more than ``sense_range`` apart,
  which is exactly the paper's definition "node i is hidden from node j if
  i is outside the sensing range of j";
* the boolean sensing matrix the batched conflict-matrix simulator runs on;

and checks that the AP decodes every station (each is at most
``decode_range`` from it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

import numpy as np

from .placement import Placement

__all__ = ["ConnectivityGraph", "HiddenNodeReport"]


@dataclass(frozen=True)
class HiddenNodeReport:
    """Summary statistics about hidden pairs in a topology."""

    num_stations: int
    num_hidden_pairs: int
    num_possible_pairs: int
    stations_with_hidden_peer: int
    is_fully_connected: bool

    @property
    def hidden_pair_fraction(self) -> float:
        """Fraction of station pairs that are mutually hidden."""
        if self.num_possible_pairs == 0:
            return 0.0
        return self.num_hidden_pairs / self.num_possible_pairs


class ConnectivityGraph:
    """Sensing relationships between stations and the AP.

    Parameters
    ----------
    placement:
        Station and AP coordinates.
    decode_range:
        Distance within which frames are decoded (positive).  Every station
        must be at most this far from the AP — the paper's scenarios keep
        every station inside the AP's decode range — else a
        :class:`ValueError` is raised.
    sense_range:
        Distance within which transmissions are carrier-sensed (at least
        ``decode_range``); two stations farther apart are hidden.
    """

    def __init__(self, placement: Placement, decode_range: float = 16.0,
                 sense_range: float = 24.0) -> None:
        if decode_range <= 0:
            raise ValueError("decode_range must be positive")
        if sense_range < decode_range:
            raise ValueError(
                "sense_range must be at least decode_range "
                f"(sense={sense_range}, decode={decode_range})"
            )
        n = placement.num_stations
        uncovered = [i for i in range(n)
                     if placement.distance_to_ap(i) > decode_range]
        if uncovered:
            raise ValueError(
                "stations outside the AP decode range: "
                + ", ".join(str(i) for i in uncovered)
            )
        sense_sets: List[Set[int]] = [{i} for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if placement.distance(i, j) <= sense_range:
                    sense_sets[i].add(j)
                    sense_sets[j].add(i)
        self._placement = placement
        self._sense_sets = tuple(frozenset(s) for s in sense_sets)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def num_stations(self) -> int:
        return self._placement.num_stations

    def sensing_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Per station (by id), the stations, itself included, it senses.

        This is the paper's ``T_t`` restricted to stations; the AP is assumed
        to hear everyone and be heard by everyone.
        """
        return self._sense_sets

    def sensing_matrix(self) -> np.ndarray:
        """Boolean carrier-sense matrix ``S`` with ``S[i, j]`` true iff
        station ``i`` senses station ``j``'s transmissions.

        The matrix is symmetric (sensing is mutual in this model) and has a
        True diagonal (a station trivially "senses" itself; consumers that
        must ignore self-sensing, like the batched conflict simulator, zero
        the diagonal).  For a fully connected topology this degenerates to
        the all-ones matrix.
        """
        n = self.num_stations
        matrix = np.zeros((n, n), dtype=bool)
        for i, sensed in enumerate(self._sense_sets):
            matrix[i, list(sensed)] = True
        return matrix

    # ------------------------------------------------------------------
    # Hidden-node analysis
    # ------------------------------------------------------------------
    def hidden_pairs(self) -> FrozenSet[Tuple[int, int]]:
        """All unordered pairs ``(i, j)`` that cannot sense each other."""
        n = self.num_stations
        return frozenset(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if j not in self._sense_sets[i]
        )

    def is_fully_connected(self) -> bool:
        """True when no hidden pair exists."""
        return not self.hidden_pairs()

    def hidden_node_report(self) -> HiddenNodeReport:
        """Aggregate hidden-node statistics for experiment reporting."""
        n = self.num_stations
        pairs = self.hidden_pairs()
        with_hidden = {i for pair in pairs for i in pair}
        possible = n * (n - 1) // 2
        return HiddenNodeReport(
            num_stations=n,
            num_hidden_pairs=len(pairs),
            num_possible_pairs=possible,
            stations_with_hidden_peer=len(with_hidden),
            is_fully_connected=not pairs,
        )
