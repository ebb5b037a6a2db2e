"""IdleSense adaptive backoff (Heusse et al., SIGCOMM 2005) — baseline.

IdleSense is the strongest prior scheme the paper compares against
(Figures 1, 3, 6, 7 and Table III).  Every station measures ``n_i``, the
number of idle slots between consecutive transmissions it observes on the
channel, and drives its contention window with AIMD so that the long-run
average of ``n_i`` sits at a PHY-dependent target (the paper uses a target
of 3.1 idle slots per transmission).  In a fully connected network this is
near-optimal; with hidden nodes the *correct* target depends on the hidden
configuration (Table III), which is exactly why IdleSense collapses there.

The implementation follows the published algorithm:

* maintain ``sum_idle`` and ``ntrans`` (number of observed transmissions);
* once ``ntrans >= maxtrans``, compute ``avg_idle = sum_idle / ntrans`` and
  apply AIMD to the contention window::

      if avg_idle < target:  cw <- cw + epsilon          (back off)
      else:                  cw <- alpha * cw            (be more aggressive)

* the backoff for every transmission (success or failure) is drawn uniformly
  from ``[0, round(cw) - 1]`` — IdleSense deliberately removes the binary
  exponential backoff.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..phy.constants import PhyParameters
from .backoff import BackoffPolicy

__all__ = [
    "IdleSenseBackoff",
    "DEFAULT_TARGET_IDLE_SLOTS",
    "DEFAULT_EPSILON",
    "DEFAULT_ALPHA",
    "DEFAULT_MAXTRANS",
    "DEFAULT_MAX_WINDOW",
]

#: Target average idle slots per transmission used by the paper (Section VI).
DEFAULT_TARGET_IDLE_SLOTS = 3.1

#: The published AIMD constants, shared with the batched banks of
#: :mod:`repro.mac.batched`: additive increase, multiplicative decrease
#: factor, observed transmissions per update, and the window's upper clamp.
DEFAULT_EPSILON = 6.0
DEFAULT_ALPHA = 1.0 / 1.0666
DEFAULT_MAXTRANS = 5
DEFAULT_MAX_WINDOW = 4096


class IdleSenseBackoff(BackoffPolicy):
    """Per-station IdleSense contention-window adaptation.

    Parameters
    ----------
    phy:
        PHY parameters; ``cw_min`` seeds the initial window and acts as the
        lower clamp.
    target_idle_slots:
        The AIMD set point ``n_target`` (paper: 3.1).
    epsilon:
        Additive increase applied to the window when the channel looks too
        busy.
    alpha:
        Multiplicative decrease factor applied when the channel looks too
        idle.
    maxtrans:
        Number of observed transmissions per AIMD update.
    max_window:
        Upper clamp for the adapted window.
    """

    name = "IdleSense"

    observes_channel = True

    def __init__(
        self,
        phy: Optional[PhyParameters] = None,
        target_idle_slots: float = DEFAULT_TARGET_IDLE_SLOTS,
        epsilon: float = DEFAULT_EPSILON,
        alpha: float = DEFAULT_ALPHA,
        maxtrans: int = DEFAULT_MAXTRANS,
        max_window: int = DEFAULT_MAX_WINDOW,
    ) -> None:
        if target_idle_slots <= 0:
            raise ValueError("target_idle_slots must be positive")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if maxtrans < 1:
            raise ValueError("maxtrans must be at least 1")
        self._phy = phy or PhyParameters()
        if max_window < self._phy.cw_min:
            raise ValueError("max_window must be at least cw_min")
        self._target = float(target_idle_slots)
        self._epsilon = float(epsilon)
        self._alpha = float(alpha)
        self._maxtrans = int(maxtrans)
        self._max_window = int(max_window)

        self._window = float(self._phy.cw_min)
        self._current_idle_run = 0
        self._sum_idle = 0.0
        self._ntrans = 0
        # Long-run statistics for Table III style reporting.
        self._total_idle_slots = 0
        self._total_transmissions = 0

    # ------------------------------------------------------------------
    # Channel observation and AIMD update
    # ------------------------------------------------------------------
    def observe_channel_slot(self, idle: bool) -> None:
        """Feed one observed channel slot (idle or busy/transmission)."""
        if idle:
            self._current_idle_run += 1
            return
        self.observe_transmission(self._current_idle_run)
        self._current_idle_run = 0

    def observe_transmission(self, idle_slots_before: int) -> None:
        """Record one observed transmission and the idle run preceding it."""
        if idle_slots_before < 0:
            raise ValueError("idle_slots_before must be non-negative")
        self._sum_idle += idle_slots_before
        self._total_idle_slots += idle_slots_before
        self._total_transmissions += 1
        self._ntrans += 1
        if self._ntrans >= self._maxtrans:
            self._apply_aimd()

    def _apply_aimd(self) -> None:
        avg_idle = self._sum_idle / self._ntrans
        if avg_idle < self._target:
            self._window += self._epsilon
        else:
            self._window *= self._alpha
        self._window = min(max(self._window, float(self._phy.cw_min)),
                           float(self._max_window))
        self._sum_idle = 0.0
        self._ntrans = 0

    # ------------------------------------------------------------------
    # BackoffPolicy interface
    # ------------------------------------------------------------------
    @property
    def window(self) -> float:
        """Current (real-valued) contention window."""
        return self._window

    @property
    def target_idle_slots(self) -> float:
        return self._target

    def _draw(self, rng: np.random.Generator) -> int:
        window = max(int(round(self._window)), 1)
        if window <= 1:
            return 0
        return int(rng.integers(0, window))

    def initial_backoff(self, rng: np.random.Generator) -> int:
        return self._draw(rng)

    def on_success(self, rng: np.random.Generator) -> int:
        return self._draw(rng)

    def on_failure(self, rng: np.random.Generator) -> int:
        return self._draw(rng)

    def attempt_probability(self) -> Optional[float]:
        return 2.0 / (self._window + 1.0)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def observed_average_idle_slots(self) -> Optional[float]:
        """Long-run average idle slots per observed transmission."""
        if self._total_transmissions == 0:
            return None
        return self._total_idle_slots / self._total_transmissions

    def state(self) -> Dict[str, float]:
        return {
            "window": self._window,
            "target": self._target,
            "pending_idle_run": float(self._current_idle_run),
            "observed_transmissions": float(self._total_transmissions),
        }
