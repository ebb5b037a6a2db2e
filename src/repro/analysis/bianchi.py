"""Bianchi's saturation model of the IEEE 802.11 DCF.

Reference [1] of the paper (Bianchi, JSAC 2000).  The model assumes a fully
connected, saturated network in which every station perceives a constant,
backoff-stage-independent conditional collision probability ``c``.  The
per-station attempt probability ``tau`` then satisfies the well-known fixed
point::

    tau = 2 (1 - 2c) / [ (1 - 2c)(W + 1) + c W (1 - (2c)^m) ]
    c   = 1 - (1 - tau)^(N - 1)

with ``W = CWmin`` and ``m = log2(CWmax / CWmin)``.

This model is used for three things in the reproduction:

* the analytical "Standard 802.11" curves in Figures 1, 3, 6 and 7;
* validation of the slotted and event-driven simulators in fully connected
  topologies;
* the observation (Section I) that DCF throughput with standard parameters
  degrades as the number of stations grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..phy.constants import PhyParameters
from .persistent import slot_probabilities

__all__ = [
    "dcf_attempt_probability",
    "conditional_collision_probability",
    "solve_dcf_fixed_point",
    "dcf_saturation_throughput",
    "BianchiModel",
]


def dcf_attempt_probability(collision_probability: float, cw_min: int,
                            num_stages: int) -> float:
    """Attempt probability ``tau(c)`` of binary exponential backoff.

    ``num_stages`` is ``m`` (so the scheme has ``m + 1`` backoff stages).
    """
    if not 0.0 <= collision_probability <= 1.0:
        raise ValueError("collision probability must lie in [0, 1]")
    if cw_min < 1:
        raise ValueError("cw_min must be at least 1")
    if num_stages < 0:
        raise ValueError("num_stages must be non-negative")
    c = collision_probability
    w = float(cw_min)
    if c == 0.5:
        # The generic expression is 0/0 at c = 1/2; expanding around
        # epsilon = 1 - 2c gives tau -> 2 / (W + 1 + W m / 2).
        return 2.0 / (w + 1.0 + 0.5 * w * num_stages)
    numerator = 2.0 * (1.0 - 2.0 * c)
    denominator = (1.0 - 2.0 * c) * (w + 1.0) + c * w * (1.0 - (2.0 * c) ** num_stages)
    return numerator / denominator


def conditional_collision_probability(tau: float, num_stations: int) -> float:
    """Probability a transmission collides: ``c = 1 - (1 - tau)^(N-1)``."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if num_stations < 1:
        raise ValueError("num_stations must be at least 1")
    return 1.0 - (1.0 - tau) ** (num_stations - 1)


def solve_dcf_fixed_point(num_stations: int, cw_min: int, num_stages: int,
                          tolerance: float = 1e-12) -> Tuple[float, float]:
    """Solve the (tau, c) fixed point of Bianchi's model.

    Returns
    -------
    (tau, c):
        The unique fixed point.  ``tau(c)`` is decreasing in ``c`` while
        ``c(tau)`` is increasing in ``tau``, so the root of
        ``tau(c(t)) - t`` is unique; we bracket it on [0, 1].
    """
    from scipy import optimize

    if num_stations < 1:
        raise ValueError("num_stations must be at least 1")

    if num_stations == 1:
        tau = dcf_attempt_probability(0.0, cw_min, num_stages)
        return tau, 0.0

    def residual(tau: float) -> float:
        c = conditional_collision_probability(tau, num_stations)
        return dcf_attempt_probability(c, cw_min, num_stages) - tau

    lower, upper = 1e-12, 1.0 - 1e-12
    # residual(lower) > 0 (tau(c=~0) > 0) and residual(upper) < 0, so brentq
    # is applicable.
    tau = float(optimize.brentq(residual, lower, upper, xtol=tolerance))
    c = conditional_collision_probability(tau, num_stations)
    return tau, c


def dcf_saturation_throughput(num_stations: int,
                              phy: Optional[PhyParameters] = None) -> float:
    """Bianchi saturation throughput of standard 802.11 DCF (bits/s)."""
    phy = phy or PhyParameters()
    tau, _ = solve_dcf_fixed_point(num_stations, phy.cw_min, phy.num_backoff_stages)
    p_idle, p_success, p_collision = slot_probabilities([tau] * num_stations)
    denom = p_idle * phy.slot_time + p_success * phy.ts + p_collision * phy.tc
    return p_success * phy.payload_bits / denom


@dataclass(frozen=True)
class BianchiModel:
    """Convenience wrapper bundling PHY parameters with the DCF fixed point."""

    phy: PhyParameters = PhyParameters()

    def attempt_probability(self, num_stations: int) -> float:
        """Per-station attempt probability ``tau`` at saturation."""
        tau, _ = solve_dcf_fixed_point(
            num_stations, self.phy.cw_min, self.phy.num_backoff_stages
        )
        return tau

    def collision_probability(self, num_stations: int) -> float:
        """Conditional collision probability ``c`` at saturation."""
        _, c = solve_dcf_fixed_point(
            num_stations, self.phy.cw_min, self.phy.num_backoff_stages
        )
        return c

    def throughput(self, num_stations: int) -> float:
        """Saturation system throughput in bits/s."""
        return dcf_saturation_throughput(num_stations, self.phy)

    def throughput_curve(self, station_counts) -> np.ndarray:
        """Throughput over a range of station counts (Figure 3 baseline)."""
        return np.array([self.throughput(int(n)) for n in station_counts])
