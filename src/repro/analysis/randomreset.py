"""Analytical model of the RandomReset exponential-backoff family.

Implements the fixed-point machinery of the paper's Appendix A:

* the stage weights ``alpha_j(c)`` (Eq. 9, via the recursion used in
  Lemma 4: ``alpha_m = 2^m`` and ``alpha_j = (1-c) 2^j + c alpha_{j+1}``);
* the conditional attempt probability ``tau_c(q)`` of a generic reset
  distribution ``q`` (Eq. 9) and of RandomReset(j; p0) (Eq. 11);
* the fixed point with ``c = 1 - (1 - tau)^(N-1)`` (Eq. 10);
* the resulting saturation throughput
  ``S~(j, p0) = S(tau(j; p0), 1)`` used in Figures 5, 12 and 13;
* the attainable attempt-probability range (Lemma 6) and the equivalence
  map from a generic reset distribution to a RandomReset(j; p0) pair
  (Lemma 7).

All formulas assume a fully connected saturated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..phy.constants import PhyParameters
from .persistent import slot_probabilities

__all__ = [
    "stage_alphas",
    "conditional_attempt_probability",
    "randomreset_distribution",
    "randomreset_conditional_attempt_probability",
    "solve_attempt_probability",
    "randomreset_attempt_probability",
    "randomreset_throughput",
    "attempt_probability_range",
    "equivalent_randomreset",
    "RandomResetModel",
]


def _validate_stage(stage: int, num_stages: int) -> None:
    if not 0 <= stage <= num_stages:
        raise ValueError(f"stage must lie in [0, {num_stages}], got {stage}")


def stage_alphas(collision_probability: float, num_stages: int) -> np.ndarray:
    """Stage weights ``alpha_j(c)`` for ``j = 0 .. m``.

    Computed with the backward recursion of Lemma 4::

        alpha_m(c) = 2^m
        alpha_j(c) = (1 - c) 2^j + c alpha_{j+1}(c)

    For ``c < 1`` the sequence is strictly increasing in ``j`` (Lemma 4).
    """
    if not 0.0 <= collision_probability <= 1.0:
        raise ValueError("collision probability must lie in [0, 1]")
    if num_stages < 0:
        raise ValueError("num_stages must be non-negative")
    c = collision_probability
    alphas = np.empty(num_stages + 1, dtype=float)
    alphas[num_stages] = 2.0 ** num_stages
    for j in range(num_stages - 1, -1, -1):
        alphas[j] = (1.0 - c) * (2.0 ** j) + c * alphas[j + 1]
    return alphas


def conditional_attempt_probability(reset_distribution: Sequence[float],
                                    collision_probability: float,
                                    cw_min: int) -> float:
    """``tau_c(q)`` of Eq. (9) for a generic reset distribution ``q``.

    ``kappa_0 = 2 / CWmin`` is the per-slot attempt probability in backoff
    stage 0 (mean window ``CWmin / 2``), matching the node-side rule
    "transmit in a slot with probability 2 / CW" of Algorithm 2.
    """
    q = np.asarray(reset_distribution, dtype=float)
    if q.ndim != 1 or q.size < 1:
        raise ValueError("reset distribution must be a non-empty vector")
    if np.any(q < -1e-12):
        raise ValueError("reset distribution entries must be non-negative")
    if not np.isclose(q.sum(), 1.0, atol=1e-9):
        raise ValueError("reset distribution must sum to 1")
    if cw_min < 1:
        raise ValueError("cw_min must be at least 1")
    num_stages = q.size - 1
    alphas = stage_alphas(collision_probability, num_stages)
    kappa0 = 2.0 / cw_min
    return float(kappa0 / np.dot(q, alphas))


def randomreset_distribution(stage: int, reset_probability: float,
                             num_stages: int) -> np.ndarray:
    """Reset distribution of RandomReset(j; p0) (Definition 4).

    Stage ``j`` receives probability ``p0``; the remaining ``1 - p0`` is
    split uniformly over stages ``j+1 .. m``.  At the boundary ``j = m`` all
    mass must go to stage ``m`` (only ``p0 = 1`` is meaningful there).
    """
    if not 0.0 <= reset_probability <= 1.0:
        raise ValueError("reset probability must lie in [0, 1]")
    _validate_stage(stage, num_stages)
    q = np.zeros(num_stages + 1, dtype=float)
    if stage == num_stages:
        if not np.isclose(reset_probability, 1.0):
            raise ValueError("at stage m the reset probability must be 1")
        q[stage] = 1.0
        return q
    q[stage] = reset_probability
    higher = num_stages - stage
    q[stage + 1:] = (1.0 - reset_probability) / higher
    return q


def randomreset_conditional_attempt_probability(stage: int, reset_probability: float,
                                                collision_probability: float,
                                                cw_min: int, num_stages: int) -> float:
    """``tau_c(j; p0)`` of Eq. (11)."""
    q = randomreset_distribution(stage, reset_probability, num_stages)
    return conditional_attempt_probability(q, collision_probability, cw_min)


def solve_attempt_probability(reset_distribution: Sequence[float], num_stations: int,
                              cw_min: int, tolerance: float = 1e-12) -> Tuple[float, float]:
    """Solve the fixed point (Eq. 9-10) for a generic reset distribution.

    Returns ``(tau, c)``.  ``tau_c(q)`` is continuous and decreasing in ``c``
    while ``c(tau) = 1 - (1 - tau)^(N-1)`` is increasing in ``tau``; the
    intersection is unique (paper, citing [1]), so a bracketed root search on
    ``tau`` suffices.
    """
    from scipy import optimize

    if num_stations < 1:
        raise ValueError("num_stations must be at least 1")

    def residual(tau: float) -> float:
        c = 1.0 - (1.0 - tau) ** (num_stations - 1)
        return conditional_attempt_probability(reset_distribution, c, cw_min) - tau

    if num_stations == 1:
        tau = conditional_attempt_probability(reset_distribution, 0.0, cw_min)
        return tau, 0.0

    lower, upper = 1e-12, 1.0 - 1e-12
    tau = float(optimize.brentq(residual, lower, upper, xtol=tolerance))
    c = 1.0 - (1.0 - tau) ** (num_stations - 1)
    return tau, c


def randomreset_attempt_probability(stage: int, reset_probability: float,
                                    num_stations: int, cw_min: int,
                                    num_stages: int) -> float:
    """``tau(j; p0)``: the fixed-point attempt probability of RandomReset."""
    q = randomreset_distribution(stage, reset_probability, num_stages)
    tau, _ = solve_attempt_probability(q, num_stations, cw_min)
    return tau


def randomreset_throughput(stage: int, reset_probability: float, num_stations: int,
                           phy: Optional[PhyParameters] = None) -> float:
    """Saturation throughput ``S~(j, p0)`` in bits/s (fully connected).

    Every station attempts with the fixed-point probability ``tau(j; p0)``;
    the renewal-slot throughput formula (Eq. 2/3 with equal weights) then
    applies.
    """
    phy = phy or PhyParameters()
    tau = randomreset_attempt_probability(
        stage, reset_probability, num_stations, phy.cw_min, phy.num_backoff_stages
    )
    p_idle, p_success, p_collision = slot_probabilities([tau] * num_stations)
    denom = p_idle * phy.slot_time + p_success * phy.ts + p_collision * phy.tc
    return p_success * phy.payload_bits / denom


def attempt_probability_range(num_stations: int, cw_min: int,
                              num_stages: int) -> Tuple[float, float]:
    """Attainable ``tau`` range of exponential-backoff policies (Lemma 6).

    The minimum is achieved by RandomReset(m-1; 0) (equivalently always
    resetting to stage ``m``) and the maximum by RandomReset(0; 1) (standard
    reset to stage 0).
    """
    if num_stages < 1:
        raise ValueError("num_stages must be at least 1 for a non-trivial range")
    low = randomreset_attempt_probability(num_stages - 1, 0.0, num_stations,
                                          cw_min, num_stages)
    high = randomreset_attempt_probability(0, 1.0, num_stations, cw_min, num_stages)
    return low, high


def equivalent_randomreset(reset_distribution: Sequence[float], num_stations: int,
                           cw_min: int, tolerance: float = 1e-9) -> Tuple[int, float]:
    """Find ``(j, p0)`` with the same fixed-point ``tau`` as ``q`` (Lemma 7).

    The paper proves such a pair always exists because the RandomReset family
    sweeps the full attainable attempt-probability range continuously and
    monotonically in ``p0`` for each ``j``, and consecutive ``j`` ranges
    overlap.
    """
    from scipy import optimize

    q = np.asarray(reset_distribution, dtype=float)
    num_stages = q.size - 1
    target_tau, _ = solve_attempt_probability(q, num_stations, cw_min)

    for stage in range(num_stages):
        low = randomreset_attempt_probability(stage, 0.0, num_stations, cw_min, num_stages)
        high = randomreset_attempt_probability(stage, 1.0, num_stations, cw_min, num_stages)
        if low - tolerance <= target_tau <= high + tolerance:
            def residual(p0: float) -> float:
                return (
                    randomreset_attempt_probability(
                        stage, p0, num_stations, cw_min, num_stages
                    )
                    - target_tau
                )

            if residual(0.0) >= 0:
                return stage, 0.0
            if residual(1.0) <= 0:
                return stage, 1.0
            p0 = float(optimize.brentq(residual, 0.0, 1.0, xtol=tolerance))
            return stage, p0
    # Fall back to the boundary policies.
    low_all, high_all = attempt_probability_range(num_stations, cw_min, num_stages)
    if target_tau <= low_all:
        return num_stages - 1, 0.0
    return 0, 1.0


@dataclass(frozen=True)
class RandomResetModel:
    """Facade bundling PHY constants with the RandomReset fixed point."""

    num_stations: int
    phy: PhyParameters = PhyParameters()

    def __post_init__(self) -> None:
        if self.num_stations < 1:
            raise ValueError("num_stations must be at least 1")

    @property
    def num_stages(self) -> int:
        return self.phy.num_backoff_stages

    def attempt_probability(self, stage: int, reset_probability: float) -> float:
        """Fixed-point ``tau(j; p0)``."""
        return randomreset_attempt_probability(
            stage, reset_probability, self.num_stations, self.phy.cw_min, self.num_stages
        )

    def conditional_attempt_probability(self, stage: int, reset_probability: float,
                                        collision_probability: float) -> float:
        """``tau_c(j; p0)`` for a given conditional collision probability."""
        return randomreset_conditional_attempt_probability(
            stage, reset_probability, collision_probability, self.phy.cw_min,
            self.num_stages,
        )

    def throughput(self, stage: int, reset_probability: float) -> float:
        """Saturation throughput ``S~(j, p0)`` in bits/s."""
        return randomreset_throughput(stage, reset_probability, self.num_stations, self.phy)

    def throughput_curve(self, stage: int, reset_probabilities: Sequence[float]) -> np.ndarray:
        """Throughput over a grid of ``p0`` values (Figures 5 and 13)."""
        return np.array(
            [self.throughput(stage, p0) for p0 in reset_probabilities], dtype=float
        )

    def optimal_reset(self, stage: int) -> Tuple[float, float]:
        """Best ``p0`` (and its throughput) for a fixed ``j`` by scalar search."""
        from scipy import optimize

        def negative(p0: float) -> float:
            return -self.throughput(stage, p0)

        result = optimize.minimize_scalar(
            negative, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-6}
        )
        best_p0 = float(result.x)
        return best_p0, self.throughput(stage, best_p0)

    def optimal_policy(self) -> Tuple[int, float, float]:
        """Best ``(j, p0, throughput)`` over all RandomReset policies."""
        best: Tuple[int, float, float] = (0, 1.0, -np.inf)
        for stage in range(self.num_stages):
            p0, value = self.optimal_reset(stage)
            if value > best[2]:
                best = (stage, p0, value)
        return best
