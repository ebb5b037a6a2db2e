"""Quasi-concavity diagnostics.

The Kiefer-Wolfowitz scheme converges to the global maximiser only when the
objective is strictly quasi-concave (unimodal) in the control variable
(Theorem 2 and the regularity conditions of Section III-B).  The paper proves
this analytically for fully connected networks and argues it empirically
(Figures 4 and 5) for hidden-node topologies.

This module provides the empirical check: given samples ``(x_i, y_i)`` of a
throughput curve it decides whether the curve is (approximately) unimodal,
tolerant of measurement noise, and reports where the mode lies.  It is used
by the Figure 2/4/5/13 experiments and by property-based tests of the
analytical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "QuasiConcavityReport",
    "is_quasiconcave",
    "check_quasiconcavity",
    "count_direction_changes",
    "unimodality_violation",
]


@dataclass(frozen=True)
class QuasiConcavityReport:
    """Outcome of an empirical unimodality check.

    Attributes
    ----------
    is_quasiconcave:
        True when the (noise-tolerant) check passes.
    argmax_index / argmax_x / max_value:
        Location and value of the sample maximum.
    violation:
        Largest "rise after fall" / "fall before rise" magnitude relative to
        the curve's dynamic range; 0 for a perfectly unimodal curve.
    direction_changes:
        Number of sign changes of the first difference after noise filtering.
    """

    is_quasiconcave: bool
    argmax_index: int
    argmax_x: float
    max_value: float
    violation: float
    direction_changes: int


def _validate_curve(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("x and y must be one-dimensional")
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 3:
        raise ValueError("need at least three samples")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")


def count_direction_changes(y: Sequence[float], noise_tolerance: float = 0.0) -> int:
    """Number of up/down direction changes in ``y``, ignoring small wiggles.

    Differences with magnitude at most ``noise_tolerance`` are treated as
    flat and do not contribute a direction.
    """
    values = np.asarray(y, dtype=float)
    diffs = np.diff(values)
    directions = []
    for d in diffs:
        if abs(d) <= noise_tolerance:
            continue
        directions.append(1 if d > 0 else -1)
    changes = 0
    for previous, current in zip(directions, directions[1:]):
        if previous != current:
            changes += 1
    return changes


def unimodality_violation(y: Sequence[float]) -> float:
    """Magnitude of the worst unimodality violation, normalised to the range.

    For each index the curve should be below the running maximum before the
    argmax and below the running maximum (from the right) after it.  The
    violation is how far the curve *rises again* after having fallen, relative
    to the overall dynamic range of the curve (0 = perfectly unimodal).
    """
    values = np.asarray(y, dtype=float)
    if values.size < 3:
        return 0.0
    dynamic_range = float(values.max() - values.min())
    if dynamic_range <= 0:
        return 0.0
    argmax = int(np.argmax(values))
    violation = 0.0
    # Left of the mode the curve should be non-decreasing: any drop that later
    # recovers is a violation of size (recovered amount).
    running_max = -np.inf
    for value in values[: argmax + 1]:
        if value < running_max:
            pass  # a dip; only matters if something later exceeds it again
        running_max = max(running_max, value)
    left = values[: argmax + 1]
    for i in range(1, left.size):
        drop = float(np.max(left[:i]) - left[i])
        if drop > 0:
            recovery = float(np.max(left[i:]) - left[i])
            violation = max(violation, min(drop, recovery))
    right = values[argmax:]
    for i in range(1, right.size):
        rise = float(right[i] - np.min(right[:i]))
        if rise > 0:
            violation = max(violation, min(rise, float(np.max(right[:i]) - np.min(right[:i])) + rise) if right[:i].size else rise)
            violation = max(violation, rise)
    return violation / dynamic_range


def check_quasiconcavity(x: Sequence[float], y: Sequence[float],
                         noise_tolerance: float = 0.05) -> QuasiConcavityReport:
    """Check a sampled curve for (noise-tolerant) unimodality.

    Parameters
    ----------
    x, y:
        Sample locations (strictly increasing) and values.
    noise_tolerance:
        Fraction of the curve's dynamic range below which a violation is
        attributed to measurement noise rather than genuine multi-modality.
        The paper's simulated curves (Figs. 4-5) are noisy; 5% is a
        conservative default.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    _validate_curve(x_arr, y_arr)
    dynamic_range = float(y_arr.max() - y_arr.min())
    violation = unimodality_violation(y_arr)
    changes = count_direction_changes(y_arr, noise_tolerance * dynamic_range)
    argmax = int(np.argmax(y_arr))
    return QuasiConcavityReport(
        is_quasiconcave=violation <= noise_tolerance,
        argmax_index=argmax,
        argmax_x=float(x_arr[argmax]),
        max_value=float(y_arr[argmax]),
        violation=violation,
        direction_changes=changes,
    )


def is_quasiconcave(x: Sequence[float], y: Sequence[float],
                    noise_tolerance: float = 0.05) -> bool:
    """Shorthand for ``check_quasiconcavity(...).is_quasiconcave``."""
    return check_quasiconcavity(x, y, noise_tolerance).is_quasiconcave
