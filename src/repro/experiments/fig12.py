"""Figure 12 — fixed-point structure of the RandomReset attempt probability.

The appendix plots, for ``N = 10``, ``m = 5`` and ``CWmin = 2``:

* the conditional attempt probability ``tau_c(0; p0)`` as a function of the
  conditional collision probability ``c`` for several values of ``p0``
  (monotonically decreasing in ``c``, increasing in ``p0``); and
* the curve ``c = 1 - (1 - tau)^(N-1)``.

Their intersections are the fixed points; as ``p0`` grows the intersection
moves up and to the right (higher attempt probability, higher collision
probability), which is Lemma 5's monotonicity.  The runner regenerates both
families of curves and the fixed points.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.randomreset import (
    randomreset_attempt_probability,
    randomreset_conditional_attempt_probability,
)
from .runner import ExperimentResult, ExperimentRow

__all__ = ["run_fig12"]


def run_fig12(
    num_stations: int = 10,
    cw_min: int = 2,
    num_stages: int = 5,
    reset_probabilities: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    collision_grid: Optional[Sequence[float]] = None,
    stage: int = 0,
) -> ExperimentResult:
    """Reproduce Figure 12 (fixed point and monotonicity in p0)."""
    collision_grid = tuple(collision_grid or np.linspace(0.0, 0.99, 23))
    columns = [f"tau_c(p0={p0:g})" for p0 in reset_probabilities]
    columns.append("c(tau) inverse")

    rows = []
    for c in collision_grid:
        values = {}
        for p0 in reset_probabilities:
            values[f"tau_c(p0={p0:g})"] = randomreset_conditional_attempt_probability(
                stage, p0, c, cw_min, num_stages
            )
        # The "load" curve c = 1 - (1 - tau)^(N-1) expressed as tau(c) so both
        # families share the x-axis of the figure.
        values["c(tau) inverse"] = 1.0 - (1.0 - c) ** (1.0 / (num_stations - 1))
        rows.append(ExperimentRow(label=f"c={c:.3f}", values=values))

    fixed_points = {
        f"p0={p0:g}": round(
            randomreset_attempt_probability(stage, p0, num_stations, cw_min, num_stages),
            6,
        )
        for p0 in reset_probabilities
    }
    return ExperimentResult(
        name="Figure 12",
        description=(
            "Conditional attempt probability tau_c(0; p0) vs conditional "
            "collision probability, and the resulting fixed points"
        ),
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={
            "num_stations": num_stations,
            "cw_min": cw_min,
            "num_stages": num_stages,
            "stage": stage,
            "fixed_point_tau": fixed_points,
        },
    )
