"""Figures 8-9 and 10-11 — the two controllers under a time-varying number
of stations.

The number of active stations steps through a predefined sequence.
Figures 8 and 9 plot wTOP-CSMA's throughput and its control variable (the
advertised attempt probability ``p``) vs time; Figures 10 and 11 do the
same for TORA-CSMA and its reset probability ``p0`` (with the reset stage
``j`` shifting when ``p0`` saturates).  Expected behaviour: throughput
stays near the optimum across the steps (no-hidden case) and the control
variable re-converges after every step.  For wTOP-CSMA ``p`` decreases
when stations join and increases when they leave.

The fully connected series runs on a connected cell; the hidden-node
series (optional, off by default because it is expensive) runs on a
radius-16 disc placement.
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
    hidden_task,
    submit,
)

__all__ = ["run_fig8_9", "run_fig10_11", "default_station_steps"]


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


def _dynamics(name: str, description: str, tag: str, kind: str, symbol: str,
              config: ExperimentConfig, phy: Optional[PhyParameters],
              include_hidden: bool, seed: int,
              executor: Optional[CampaignExecutor]) -> ExperimentResult:
    """Throughput and control-variable time lines of one controller.

    The rows are time samples; the columns are the throughput (Mbps), the
    control variable ``symbol`` and the active station count, for the
    no-hidden case and (optionally) a hidden-node case.
    """
    schedule = default_station_steps(config.dynamic_segment_duration)
    total_duration = config.dynamic_segment_duration * len(schedule.breakpoints)
    spec = SchemeSpec.make(kind, update_period=config.update_period)
    dynamic_config = config.evolve(
        measure_duration=total_duration, adaptive_warmup=0.0, warmup=0.0
    )
    stepped = dict(activity=schedule.breakpoints,
                   report_interval=config.report_interval)
    cells = [("connected", connected_task(
        spec, schedule.max_active, dynamic_config, seed, phy=phy,
        label=f"{tag}/connected/seed={seed}", **stepped,
    ))]
    if include_hidden:
        cells.append(("hidden", hidden_task(
            spec, schedule.max_active, config.hidden_disc_radius_small, seed,
            dynamic_config, seed, phy=phy,
            label=f"{tag}/hidden/seed={seed}", **stepped,
        )))
    grouped = submit(cells, executor)
    [connected] = grouped["connected"]
    control_by_time = dict(connected.control_timeline)

    columns = ["throughput (no hidden)", f"{symbol} (no hidden)", "active stations"]
    if include_hidden:
        columns.extend(["throughput (hidden)", f"{symbol} (hidden)"])
        [hidden] = grouped["hidden"]
        hidden_throughput = dict(hidden.throughput_timeline)
        hidden_control = dict(hidden.control_timeline)

    rows = []
    for time_s, throughput_bps in connected.throughput_timeline:
        values = {
            "throughput (no hidden)": throughput_bps / 1e6,
            f"{symbol} (no hidden)": control_by_time.get(time_s, float("nan")),
            "active stations": float(schedule.active_count(time_s)),
        }
        if include_hidden:
            values["throughput (hidden)"] = hidden_throughput.get(time_s, float("nan")) / 1e6
            values[f"{symbol} (hidden)"] = hidden_control.get(time_s, float("nan"))
        rows.append(ExperimentRow(label=f"t={time_s:.2f}s", values=values))

    return ExperimentResult(
        name=name,
        description=description,
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


def run_fig8_9(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    include_hidden: bool = False,
    seed: int = 1,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Figures 8 and 9 (wTOP-CSMA dynamics)."""
    return _dynamics(
        "Figures 8-9",
        "wTOP-CSMA throughput and control variable vs time as the number "
        "of active stations changes",
        "fig8_9", "wtop-csma", "p", config, phy, include_hidden, seed, executor,
    )


def run_fig10_11(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    include_hidden: bool = False,
    seed: int = 1,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Figures 10 and 11 (TORA-CSMA dynamics)."""
    return _dynamics(
        "Figures 10-11",
        "TORA-CSMA throughput and reset probability vs time as the number "
        "of active stations changes",
        "fig10_11", "tora-csma", "p0", config, phy, include_hidden, seed,
        executor,
    )
