"""Closed-form throughput model of p-persistent CSMA (paper Eq. 2, 3, 8).

These formulas apply to *fully connected* saturated networks.  They are used
to:

* validate both simulators (the simulated throughput of a fully connected
  p-persistent network must track Eq. (3));
* reproduce Figure 2 and Figure 13's analytical curves;
* compute the optimal attempt probability ``p*`` (Theorem 2 and Eq. (8))
  against which wTOP-CSMA's convergence is checked.

All durations are taken from a :class:`~repro.phy.constants.PhyParameters`.
Throughput is returned in bits per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..phy.constants import PhyParameters

__all__ = [
    "weighted_attempt_probability",
    "slot_probabilities",
    "per_station_throughput",
    "system_throughput",
    "system_throughput_weighted",
    "throughput_curve",
    "optimal_attempt_probability",
    "approximate_optimal_attempt_probability",
    "PersistentModel",
]


def weighted_attempt_probability(weight: float, p: float) -> float:
    """Map the base control variable ``p`` to a station's attempt probability.

    Lemma 1: a station with weight ``w`` uses ``p_t = w p / (1 + (w - 1) p)``
    so that its throughput is ``w`` times that of a weight-1 station.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if weight <= 0:
        raise ValueError("weight must be positive")
    # The exact map sends p = 1 to 1 for every weight, but the floating-point
    # quotient w / (1 + (w - 1)) can overshoot 1 by one ulp for w < 1; clamp
    # so the result is always a probability.
    return min(weight * p / (1.0 + (weight - 1.0) * p), 1.0)


def slot_probabilities(attempt_probabilities: Sequence[float]) -> Tuple[float, float, float]:
    """Return ``(P_idle, P_success, P_collision)`` for one virtual slot.

    ``P_idle`` is the probability no station transmits, ``P_success`` the
    probability exactly one transmits, and ``P_collision`` the remainder.
    """
    probs = np.asarray(attempt_probabilities, dtype=float)
    if probs.size == 0:
        raise ValueError("need at least one station")
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("attempt probabilities must lie in [0, 1]")
    if np.any(probs >= 1.0):
        # A station transmitting with certainty makes the idle probability 0
        # and success possible only if it is the unique such station.
        certain = np.flatnonzero(probs >= 1.0)
        if certain.size > 1:
            return 0.0, 0.0, 1.0
        others = np.delete(probs, certain)
        p_success = float(np.prod(1.0 - others)) if others.size else 1.0
        return 0.0, p_success, 1.0 - p_success
    p_idle = float(np.prod(1.0 - probs))
    ratios = probs / (1.0 - probs)
    p_success = float(p_idle * np.sum(ratios))
    p_collision = max(0.0, 1.0 - p_idle - p_success)
    return p_idle, p_success, p_collision


def _expected_slot_time(p_idle: float, p_success: float, p_collision: float,
                        phy: PhyParameters) -> float:
    """Mean duration of one virtual slot (the denominator of Eq. 2)."""
    return p_idle * phy.slot_time + p_success * phy.ts + p_collision * phy.tc


def per_station_throughput(attempt_probabilities: Sequence[float],
                           phy: Optional[PhyParameters] = None) -> np.ndarray:
    """Per-station saturation throughput (bits/s) of p-persistent CSMA.

    Implements Eq. (2): station ``t`` succeeds in a virtual slot with
    probability ``p_t * prod_{i != t} (1 - p_i)`` and each success carries
    ``E[P]`` payload bits.
    """
    phy = phy or PhyParameters()
    probs = np.asarray(attempt_probabilities, dtype=float)
    p_idle, p_success, p_collision = slot_probabilities(probs)
    denom = _expected_slot_time(p_idle, p_success, p_collision, phy)
    if denom <= 0:
        raise ValueError("expected slot time must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        # success probability of station t: p_t * prod_{i != t}(1 - p_i)
        if np.any(probs >= 1.0):
            success = np.zeros_like(probs)
            certain = np.flatnonzero(probs >= 1.0)
            if certain.size == 1:
                others = np.delete(probs, certain)
                success[certain[0]] = float(np.prod(1.0 - others)) if others.size else 1.0
        else:
            success = probs / (1.0 - probs) * p_idle
    return success * phy.payload_bits / denom


def system_throughput(attempt_probabilities: Sequence[float],
                      phy: Optional[PhyParameters] = None) -> float:
    """Total saturation throughput (bits/s); the sum over Eq. (2)."""
    return float(np.sum(per_station_throughput(attempt_probabilities, phy)))


def system_throughput_weighted(p: float, weights: Sequence[float],
                               phy: Optional[PhyParameters] = None) -> float:
    """System throughput ``S(p, W)`` of Eq. (3).

    Every station maps the shared control variable ``p`` through its weight
    (Lemma 1) and the resulting attempt-probability vector is evaluated with
    Eq. (2)/(3).
    """
    attempt = [weighted_attempt_probability(w, p) for w in weights]
    return system_throughput(attempt, phy)


def throughput_curve(p_values: Sequence[float], num_stations: int,
                     phy: Optional[PhyParameters] = None,
                     weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """Evaluate ``S(p, W)`` over a grid of ``p`` values (Figure 2)."""
    if weights is None:
        weights = [1.0] * num_stations
    elif len(weights) != num_stations:
        raise ValueError("weights length must equal num_stations")
    return np.array(
        [system_throughput_weighted(p, weights, phy) for p in p_values], dtype=float
    )


def approximate_optimal_attempt_probability(num_stations: int,
                                            phy: Optional[PhyParameters] = None) -> float:
    """Bianchi's approximation ``p* ~= 1 / (N sqrt(T*_c / 2))`` (Eq. 8)."""
    if num_stations < 1:
        raise ValueError("num_stations must be at least 1")
    phy = phy or PhyParameters()
    return 1.0 / (num_stations * np.sqrt(phy.tc_slots / 2.0))


def optimal_attempt_probability(num_stations: int,
                                phy: Optional[PhyParameters] = None,
                                weights: Optional[Sequence[float]] = None,
                                tolerance: float = 1e-10) -> float:
    """Exact maximiser ``p*`` of ``S(p, W)`` by scalar optimisation.

    Theorem 2 shows ``S(p, W)`` is strictly quasi-concave on (0, 1), so a
    bounded scalar search finds the unique maximum.
    """
    from scipy import optimize

    phy = phy or PhyParameters()
    if weights is None:
        if num_stations < 1:
            raise ValueError("num_stations must be at least 1")
        weights = [1.0] * num_stations
    elif len(weights) != num_stations:
        raise ValueError("weights length must equal num_stations")

    def negative(p: float) -> float:
        return -system_throughput_weighted(p, weights, phy)

    result = optimize.minimize_scalar(
        negative, bounds=(1e-9, 1.0 - 1e-9), method="bounded",
        options={"xatol": tolerance},
    )
    return float(result.x)


@dataclass(frozen=True)
class PersistentModel:
    """Object-oriented facade over the functions above.

    Convenient when the same PHY and weights are reused across a sweep, e.g.
    in the experiment runners.
    """

    num_stations: int
    phy: PhyParameters = PhyParameters()
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.num_stations < 1:
            raise ValueError("num_stations must be at least 1")
        if self.weights is not None and len(self.weights) != self.num_stations:
            raise ValueError("weights length must equal num_stations")

    @property
    def effective_weights(self) -> Tuple[float, ...]:
        return self.weights or tuple([1.0] * self.num_stations)

    def throughput(self, p: float) -> float:
        """System throughput at control value ``p`` (bits/s)."""
        return system_throughput_weighted(p, self.effective_weights, self.phy)

    def per_station(self, p: float) -> np.ndarray:
        """Per-station throughput at control value ``p`` (bits/s)."""
        attempt = [weighted_attempt_probability(w, p) for w in self.effective_weights]
        return per_station_throughput(attempt, self.phy)

    def optimal_p(self) -> float:
        """The exact optimal control value ``p*``."""
        return optimal_attempt_probability(
            self.num_stations, self.phy, list(self.effective_weights)
        )

    def optimal_throughput(self) -> float:
        """Throughput at the exact optimum (bits/s)."""
        return self.throughput(self.optimal_p())
