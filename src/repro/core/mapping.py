"""Control-variable mappings between the optimiser domain and MAC parameters.

The Kiefer-Wolfowitz tracker works on a normalised variable ``x`` in
``[0, 1]``.  How ``x`` translates into the MAC parameter matters in practice:

* For TORA-CSMA's reset probability ``p0`` the identity (linear) map is fine —
  the throughput is flat near the optimum (Figure 13) and ``p0`` natively
  lives in ``[0, 1]``.
* For wTOP-CSMA's attempt probability ``p`` the optimum is ``p* ~ 1/N``
  (Eq. 8), i.e. orders of magnitude smaller than 1 for realistic ``N``.
  An additive perturbation ``b_k`` on ``p`` itself would dwarf ``p*`` for a
  very long time (``b_k = k^{-1/3}`` decays slowly), so the reproduction
  optimises ``x = log(p)`` rescaled to ``[0, 1]`` instead.  The paper's own
  evaluation plots throughput against ``log(p)`` (Figures 2 and 4), and a
  strictly monotone reparameterisation preserves quasi-concavity, so the
  Kiefer-Wolfowitz convergence argument is unchanged.  This is one of the
  two implementation calibrations :mod:`repro.core.wtop` lists.

Both maps are strictly increasing bijections of ``[0, 1]`` onto
``[low, high]``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

__all__ = ["ControlMapping", "LinearMapping", "LogMapping"]


class ControlMapping(ABC):
    """Bijection between the optimiser variable ``x`` and a MAC parameter."""

    @abstractmethod
    def to_parameter(self, x: float) -> float:
        """Map ``x`` in [0, 1] to the MAC parameter value."""

    @abstractmethod
    def to_control(self, parameter: float) -> float:
        """Inverse map from a MAC parameter value back to ``x``."""

    @property
    @abstractmethod
    def low(self) -> float:
        """Parameter value at ``x = 0``."""

    @property
    @abstractmethod
    def high(self) -> float:
        """Parameter value at ``x = 1``."""

    def _check_x(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0, 1]")
        return float(x)


class LinearMapping(ControlMapping):
    """Affine map ``x -> low + x (high - low)``."""

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        if not low < high:
            raise ValueError("require low < high")
        self._low = float(low)
        self._high = float(high)

    @property
    def low(self) -> float:
        return self._low

    @property
    def high(self) -> float:
        return self._high

    def to_parameter(self, x: float) -> float:
        x = self._check_x(x)
        return self._low + x * (self._high - self._low)

    def to_control(self, parameter: float) -> float:
        if not self._low <= parameter <= self._high:
            raise ValueError("parameter outside the mapping range")
        return (parameter - self._low) / (self._high - self._low)


class LogMapping(ControlMapping):
    """Log-uniform map ``x -> low * (high / low)^x`` (requires low > 0)."""

    def __init__(self, low: float = 1e-4, high: float = 0.5) -> None:
        if not 0.0 < low < high:
            raise ValueError("require 0 < low < high")
        self._low = float(low)
        self._high = float(high)
        self._log_ratio = math.log(high / low)

    @property
    def low(self) -> float:
        return self._low

    @property
    def high(self) -> float:
        return self._high

    def to_parameter(self, x: float) -> float:
        x = self._check_x(x)
        value = self._low * math.exp(x * self._log_ratio)
        # Guard against floating-point overshoot at the endpoints.
        return min(max(value, self._low), self._high)

    def to_control(self, parameter: float) -> float:
        if not self._low * (1 - 1e-12) <= parameter <= self._high * (1 + 1e-12):
            raise ValueError("parameter outside the mapping range")
        parameter = min(max(parameter, self._low), self._high)
        return math.log(parameter / self._low) / self._log_ratio
