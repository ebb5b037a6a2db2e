"""Figures 8 and 9 — wTOP-CSMA under a time-varying number of stations.

The number of active stations steps through a predefined sequence; Figure 8
plots throughput vs time and Figure 9 plots the control variable (the
advertised attempt probability) vs time.  Expected behaviour: throughput
stays near the optimum across the steps (no-hidden case) and the control
variable re-converges after every step, decreasing when stations join and
increasing when they leave.

The fully connected series uses the fast slotted simulator; the hidden-node
series (optional, off by default in the quick preset because it is
expensive) uses the event-driven simulator on a radius-16 disc placement.
"""

from __future__ import annotations

from typing import Optional

from ..phy.constants import PhyParameters
from ..sim.dynamics import ActivitySchedule, step_activity
from .campaign import CampaignExecutor, SchemeSpec
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    connected_task,
    default_executor,
    hidden_task,
)

__all__ = ["run_fig8_9", "default_station_steps"]


def default_station_steps(segment_duration: float) -> ActivitySchedule:
    """The step sequence of active stations used by the dynamic figures.

    The paper steps the population up and down (10 -> 30 -> 60 -> 20 ...);
    the exact values are not critical, only that the controller re-converges
    after each change.
    """
    counts = (10, 30, 60, 20, 40)
    return step_activity(
        [(index * segment_duration, count) for index, count in enumerate(counts)]
    )


def run_fig8_9(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    include_hidden: bool = False,
    seed: int = 1,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Figures 8 and 9 (wTOP-CSMA dynamics).

    The result rows are time samples; columns are the throughput (Mbps), the
    advertised attempt probability and the active station count, for the
    no-hidden case and (optionally) a hidden-node case.
    """
    executor = executor or default_executor()
    schedule = default_station_steps(config.dynamic_segment_duration)
    total_duration = config.dynamic_segment_duration * len(schedule.breakpoints)
    spec = SchemeSpec.make("wtop-csma", update_period=config.update_period)

    dynamic_config = config.evolve(
        measure_duration=total_duration, adaptive_warmup=0.0, warmup=0.0
    )
    tasks = [connected_task(
        spec, schedule.max_active, dynamic_config, seed, phy=phy,
        activity=schedule.breakpoints, report_interval=config.report_interval,
        label=f"fig8_9/connected/seed={seed}",
    )]
    if include_hidden:
        tasks.append(hidden_task(
            spec, schedule.max_active, config.hidden_disc_radius_small, seed,
            dynamic_config, seed, phy=phy,
            activity=schedule.breakpoints, report_interval=config.report_interval,
            label=f"fig8_9/hidden/seed={seed}",
        ))
    results = executor.run(tasks)
    connected = results[0]
    hidden = results[1] if include_hidden else None

    columns = ["throughput (no hidden)", "p (no hidden)", "active stations"]
    if hidden is not None:
        columns.extend(["throughput (hidden)", "p (hidden)"])

    hidden_throughput = dict(hidden.throughput_timeline) if hidden else {}
    hidden_control = dict(hidden.control_timeline) if hidden else {}
    control_by_time = dict(connected.control_timeline)

    rows = []
    for time_s, throughput_bps in connected.throughput_timeline:
        values = {
            "throughput (no hidden)": throughput_bps / 1e6,
            "p (no hidden)": control_by_time.get(time_s, float("nan")),
            "active stations": float(schedule.active_count(time_s)),
        }
        if hidden is not None:
            values["throughput (hidden)"] = hidden_throughput.get(time_s, float("nan")) / 1e6
            values["p (hidden)"] = hidden_control.get(time_s, float("nan"))
        rows.append(ExperimentRow(label=f"t={time_s:.2f}s", values=values))

    return ExperimentResult(
        name="Figures 8-9",
        description=(
            "wTOP-CSMA throughput and control variable vs time as the number "
            "of active stations changes"
        ),
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={
            "station_steps": schedule.breakpoints,
            "segment_duration_s": config.dynamic_segment_duration,
            "report_interval_s": config.report_interval,
            "update_period_s": config.update_period,
            "include_hidden": include_hidden,
            "seed": seed,
        },
    )
