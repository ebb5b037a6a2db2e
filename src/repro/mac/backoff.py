"""Contention-resolution (backoff) policies.

Section II of the paper defines three classes of contention resolution:

* **standard exponential backoff** — IEEE 802.11 DCF: the contention window
  doubles on every failure up to ``CWmax`` and resets to ``CWmin`` after a
  success;
* **p-persistent CSMA** — the backoff is geometric with per-slot attempt
  probability ``p``, independent of past successes/failures;
* **RandomReset** (the paper's proposal) — exponential backoff on failures,
  but on a success the backoff stage is redrawn from a reset distribution
  parameterised by ``(j, p0)``.

All policies implement :class:`BackoffPolicy`: they are per-station objects
that return the number of idle slots to wait before the next transmission
attempt, and optionally react to the control values the AP piggy-backs on
ACK frames (``apply_control``).  The interface is deliberately tiny so the
same policy objects drive the event-driven simulator, the slotted simulator
and unit tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional

import numpy as np

from ..core.weighted_fairness import station_attempt_probability
from ..phy.constants import PhyParameters

__all__ = [
    "BackoffPolicy",
    "StandardExponentialBackoff",
    "PPersistentBackoff",
    "RandomResetBackoff",
    "FixedWindowBackoff",
]


class BackoffPolicy(ABC):
    """Per-station contention resolution policy.

    The policy decides, after every transmission outcome, how many idle
    backoff slots the station waits before its next attempt.  The simulator
    calls exactly one of :meth:`on_success` / :meth:`on_failure` per
    transmission and :meth:`initial_backoff` once at start-up.
    """

    #: Short name used in reports.
    name: str = "policy"

    #: Whether the policy wants channel-activity observations (IdleSense does;
    #: the simulators skip the per-slot bookkeeping for policies that do not).
    observes_channel: bool = False

    @abstractmethod
    def initial_backoff(self, rng: np.random.Generator) -> int:
        """Backoff (in slots) before the very first transmission attempt."""

    @abstractmethod
    def on_success(self, rng: np.random.Generator) -> int:
        """Backoff (in slots) after a successful transmission."""

    @abstractmethod
    def on_failure(self, rng: np.random.Generator) -> int:
        """Backoff (in slots) after a failed (collided) transmission."""

    def apply_control(self, control: Mapping[str, float]) -> None:
        """React to AP-advertised control values (default: ignore)."""
        return None

    def observe_channel_slot(self, idle: bool) -> None:
        """Observe one channel slot (idle or busy); used by adaptive policies."""
        return None

    def observe_transmission(self, idle_slots_before: int) -> None:
        """Observe one transmission preceded by ``idle_slots_before`` idle slots.

        Batched form of :meth:`observe_channel_slot` used on the simulators'
        hot paths; the default implementation forwards to the per-slot hook.
        """
        for _ in range(idle_slots_before):
            self.observe_channel_slot(True)
        self.observe_channel_slot(False)

    def attempt_probability(self) -> Optional[float]:
        """Approximate per-slot attempt probability, if well defined."""
        return None

    def state(self) -> Dict[str, float]:
        """Diagnostic snapshot of internal state (for logging and tests)."""
        return {}


def _draw_uniform_window(window: int, rng: np.random.Generator) -> int:
    """Draw a backoff uniformly from ``{0, ..., window - 1}``."""
    if window <= 1:
        return 0
    return int(rng.integers(0, window))


class StandardExponentialBackoff(BackoffPolicy):
    """IEEE 802.11 DCF binary exponential backoff.

    After ``i`` consecutive failures the window is
    ``CW_i = min(2^i CWmin, CWmax)``; a success resets the stage to 0.
    """

    name = "802.11"

    def __init__(self, phy: Optional[PhyParameters] = None) -> None:
        self._phy = phy or PhyParameters()
        self._stage = 0

    @property
    def stage(self) -> int:
        """Current backoff stage ``i``."""
        return self._stage

    @property
    def current_window(self) -> int:
        return self._phy.contention_window(self._stage)

    def initial_backoff(self, rng: np.random.Generator) -> int:
        self._stage = 0
        return _draw_uniform_window(self.current_window, rng)

    def on_success(self, rng: np.random.Generator) -> int:
        self._stage = 0
        return _draw_uniform_window(self.current_window, rng)

    def on_failure(self, rng: np.random.Generator) -> int:
        self._stage = min(self._stage + 1, self._phy.num_backoff_stages)
        return _draw_uniform_window(self.current_window, rng)

    def attempt_probability(self) -> Optional[float]:
        # Mean backoff is (CW-1)/2, so the long-run per-slot attempt
        # probability in the current stage is roughly 2 / (CW + 1).
        return 2.0 / (self.current_window + 1.0)

    def state(self) -> Dict[str, float]:
        return {"stage": float(self._stage), "window": float(self.current_window)}


class PPersistentBackoff(BackoffPolicy):
    """p-persistent CSMA with a weighted attempt probability.

    The station stores the AP's shared control variable ``p`` and maps it
    through its weight (Lemma 1): ``p_t = w p / (1 + (w - 1) p)``.  The
    backoff count is geometric with per-slot attempt probability ``p_t``
    (``P(K = k) = p_t (1 - p_t)^k``), so in every idle slot the station
    transmits with probability exactly ``p_t``.
    """

    name = "p-persistent"

    def __init__(self, p: float = 0.1, weight: float = 1.0,
                 max_backoff_slots: int = 1_000_000) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        if max_backoff_slots < 1:
            raise ValueError("max_backoff_slots must be positive")
        self._weight = float(weight)
        self._max_backoff_slots = int(max_backoff_slots)
        self._base_p = 0.0
        self._attempt_p = 0.0
        self.set_base_probability(p)

    # ------------------------------------------------------------------
    @property
    def weight(self) -> float:
        return self._weight

    @property
    def base_probability(self) -> float:
        """The shared control variable ``p`` as last advertised."""
        return self._base_p

    def set_base_probability(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self._base_p = float(p)
        self._attempt_p = station_attempt_probability(self._weight, self._base_p)

    def apply_control(self, control: Mapping[str, float]) -> None:
        """Pick up the shared ``p`` broadcast by wTOP-CSMA in ACKs."""
        if "p" in control:
            self.set_base_probability(float(control["p"]))

    # ------------------------------------------------------------------
    def _draw(self, rng: np.random.Generator) -> int:
        p = self._attempt_p
        if p <= 0.0:
            return self._max_backoff_slots
        if p >= 1.0:
            return 0
        # numpy's geometric returns k >= 1 with P(k) = p (1-p)^(k-1); shift to
        # k >= 0 so the per-slot attempt probability equals p.
        draw = int(rng.geometric(p)) - 1
        return min(draw, self._max_backoff_slots)

    def initial_backoff(self, rng: np.random.Generator) -> int:
        return self._draw(rng)

    def on_success(self, rng: np.random.Generator) -> int:
        return self._draw(rng)

    def on_failure(self, rng: np.random.Generator) -> int:
        return self._draw(rng)

    def attempt_probability(self) -> Optional[float]:
        return self._attempt_p

    def state(self) -> Dict[str, float]:
        return {
            "base_p": self._base_p,
            "attempt_p": self._attempt_p,
            "weight": self._weight,
        }


class RandomResetBackoff(BackoffPolicy):
    """RandomReset(j; p0) backoff (Definition 4) with standard failure doubling.

    On failure the stage increments (saturating at ``m``).  On success the
    stage resets to ``j`` with probability ``p0`` and to a uniformly chosen
    stage in ``{j+1, ..., m}`` otherwise.  The AP's TORA-CSMA controller
    advertises ``(p0, j)`` in ACKs; :meth:`apply_control` picks them up.
    """

    name = "RandomReset"

    def __init__(self, phy: Optional[PhyParameters] = None, stage: int = 0,
                 reset_probability: float = 1.0) -> None:
        self._phy = phy or PhyParameters()
        self._num_stages = self._phy.num_backoff_stages
        self._reset_stage = 0
        self._reset_probability = 1.0
        self.set_reset(stage, reset_probability)
        self._stage = self._reset_stage

    # ------------------------------------------------------------------
    @property
    def reset_stage(self) -> int:
        """The target stage ``j`` advertised by the AP."""
        return self._reset_stage

    @property
    def reset_probability(self) -> float:
        """The reset probability ``p0``."""
        return self._reset_probability

    @property
    def stage(self) -> int:
        """The station's current backoff stage ``i``."""
        return self._stage

    @property
    def current_window(self) -> int:
        return self._phy.contention_window(self._stage)

    def set_reset(self, stage: int, reset_probability: float) -> None:
        if not 0 <= stage <= self._num_stages:
            raise ValueError(f"stage must lie in [0, {self._num_stages}]")
        if not 0.0 <= reset_probability <= 1.0:
            raise ValueError("reset probability must lie in [0, 1]")
        self._reset_stage = int(stage)
        self._reset_probability = float(reset_probability)

    def apply_control(self, control: Mapping[str, float]) -> None:
        """Pick up ``(p0, stage)`` broadcast by TORA-CSMA in ACKs."""
        stage = self._reset_stage
        p0 = self._reset_probability
        if "stage" in control:
            stage = int(round(float(control["stage"])))
        if "p0" in control:
            p0 = float(control["p0"])
        self.set_reset(stage, p0)

    # ------------------------------------------------------------------
    def _draw_reset_stage(self, rng: np.random.Generator) -> int:
        j = self._reset_stage
        if j >= self._num_stages:
            return self._num_stages
        if rng.random() < self._reset_probability:
            return j
        return int(rng.integers(j + 1, self._num_stages + 1))

    def initial_backoff(self, rng: np.random.Generator) -> int:
        self._stage = self._draw_reset_stage(rng)
        return _draw_uniform_window(self.current_window, rng)

    def on_success(self, rng: np.random.Generator) -> int:
        self._stage = self._draw_reset_stage(rng)
        return _draw_uniform_window(self.current_window, rng)

    def on_failure(self, rng: np.random.Generator) -> int:
        self._stage = min(self._stage + 1, self._num_stages)
        return _draw_uniform_window(self.current_window, rng)

    def attempt_probability(self) -> Optional[float]:
        return 2.0 / (self.current_window + 1.0)

    def state(self) -> Dict[str, float]:
        return {
            "stage": float(self._stage),
            "reset_stage": float(self._reset_stage),
            "reset_probability": self._reset_probability,
            "window": float(self.current_window),
        }


class FixedWindowBackoff(BackoffPolicy):
    """A constant contention window irrespective of outcomes.

    Not part of the paper's comparisons but useful as the simplest possible
    baseline in tests and ablation benches (it is the ``RandomReset(j; 1)``
    policy without failure doubling).
    """

    name = "fixed-window"

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self._window = int(window)

    @property
    def window(self) -> int:
        return self._window

    def initial_backoff(self, rng: np.random.Generator) -> int:
        return _draw_uniform_window(self._window, rng)

    def on_success(self, rng: np.random.Generator) -> int:
        return _draw_uniform_window(self._window, rng)

    def on_failure(self, rng: np.random.Generator) -> int:
        return _draw_uniform_window(self._window, rng)

    def attempt_probability(self) -> Optional[float]:
        return 2.0 / (self._window + 1.0)

    def state(self) -> Dict[str, float]:
        return {"window": float(self._window)}
