"""Experiment configuration presets.

Every experiment runner accepts an :class:`ExperimentConfig` controlling how
long simulations run, how many seeds are averaged and which node counts are
swept.  Two presets are provided:

* :data:`QUICK` — small budgets so the full benchmark suite finishes in
  minutes on a laptop; used by ``benchmarks/`` and the test suite.
* :data:`PAPER` — budgets closer to the paper's ns-3 runs (long adaptation
  warm-ups, 10 repetitions); used when regenerating the numbers with more
  statistical weight.

The paper's absolute settings (250 ms update period, 20 iterations, hundreds
of simulated seconds) are reachable by constructing a custom config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

__all__ = ["ExperimentConfig", "QUICK", "PAPER"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Budgets and sweep ranges shared by the experiment runners.

    Attributes
    ----------
    node_counts:
        Station counts for throughput-vs-N figures (paper: 10..60).
    seeds:
        Random seeds; results are averaged across them (paper: 20 runs).
    measure_duration / warmup:
        Measurement window and warm-up for *non-adaptive* schemes (seconds).
    adaptive_warmup:
        Warm-up for adaptive schemes (wTOP/TORA/IdleSense) so the controller
        converges before measuring.
    update_period:
        Controller UPDATE_PERIOD (paper: 0.25 s; the quick preset shrinks it
        together with the warm-up so the same number of Kiefer-Wolfowitz
        updates happen in less simulated time).
    report_interval:
        Sampling period of the convergence time lines (Figures 8-11).
    hidden_disc_radius_small / hidden_disc_radius_large:
        Disc radii of the two hidden-node placements (paper: 16 and 20).
    dynamic_segment_duration:
        Length of each constant-N segment in the dynamic scenarios.
    load_points:
        Offered-load multipliers (fractions of the channel's saturation
        frame rate) swept by the ``fig_load_sweep`` experiment.
    traffic_kind:
        Arrival-process family used by the load sweep (``poisson``, ``cbr``
        or ``on-off``; see :mod:`repro.traffic`).
    traffic_queue_limit:
        Bounded per-station FIFO capacity for unsaturated workloads.
    retry_limit:
        MAC retry limit used by the flow-level experiments
        (``fig_fct_sweep``); 7 matches 802.11's default short retry limit.
        The saturated figure/table experiments keep the historical
        infinite-retry MAC and do not read this field.
    """

    node_counts: Tuple[int, ...] = (10, 20, 30, 40, 50, 60)
    seeds: Tuple[int, ...] = (1, 2, 3)
    measure_duration: float = 2.0
    warmup: float = 0.5
    adaptive_warmup: float = 10.0
    update_period: float = 0.05
    report_interval: float = 0.25
    hidden_disc_radius_small: float = 16.0
    hidden_disc_radius_large: float = 20.0
    dynamic_segment_duration: float = 10.0
    load_points: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    traffic_kind: str = "poisson"
    traffic_queue_limit: int = 64
    retry_limit: int = 7

    def __post_init__(self) -> None:
        import math

        for load in self.load_points:
            if not math.isfinite(load) or load <= 0:
                raise ValueError(
                    f"load points must be positive finite multipliers, got {load!r}"
                )
        if self.traffic_queue_limit < 1:
            raise ValueError(
                "traffic_queue_limit must be at least 1 frame, got "
                f"{self.traffic_queue_limit!r}"
            )
        if self.retry_limit < 1:
            raise ValueError(
                "retry_limit must allow at least one transmission attempt, "
                f"got {self.retry_limit!r}"
            )

    def evolve(self, **changes: object) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def durations_for(self, adaptive: bool) -> Tuple[float, float]:
        """``(measure_duration, warmup)`` appropriate for a scheme.

        Adaptive schemes (IdleSense, wTOP-CSMA, TORA-CSMA) get the longer
        :attr:`adaptive_warmup` so their controllers converge before
        steady-state throughput is measured; open-loop schemes get the short
        :attr:`warmup`.  The task builders in :mod:`repro.experiments.runner`
        use this, so every figure measures with identical budgets.
        """
        return self.measure_duration, (self.adaptive_warmup if adaptive else self.warmup)


#: Fast preset used by the benchmark harness (minutes, not hours).
QUICK = ExperimentConfig(
    node_counts=(10, 20, 40, 60),
    seeds=(1, 2),
    measure_duration=1.0,
    warmup=0.3,
    adaptive_warmup=6.0,
    update_period=0.05,
    report_interval=0.25,
    dynamic_segment_duration=6.0,
    load_points=(0.1, 0.5, 1.0, 2.0),
)

#: Heavier preset closer to the paper's simulation budgets.
PAPER = ExperimentConfig(
    node_counts=(10, 20, 30, 40, 50, 60),
    seeds=tuple(range(1, 11)),
    measure_duration=5.0,
    warmup=1.0,
    adaptive_warmup=60.0,
    update_period=0.25,
    report_interval=1.0,
    dynamic_segment_duration=100.0,
)
