"""Load sweep — throughput, queueing delay, drop rate and fairness of
standard 802.11 (DCF), IdleSense and wTOP-CSMA as the offered load sweeps
from far below to well past the channel's saturation capacity, on both the
fully connected and the hidden-node topology families.

This experiment goes beyond the paper: every figure of the original
evaluation runs saturated sources, which is a single point of the offered-
load axis.  Sweeping the load exposes the behaviour the related work on
real-time and datacenter communication treats as primary — throughput
should track the offered load in the unsaturated regime, queueing delay
should explode at the saturation knee, and drops should absorb the excess
past it — and exercises all three simulator backends (slotted/batched for
connected cells, event-driven/conflict-matrix for hidden cells) on the
same task grid.

Offered load is expressed as a multiple of the channel's zero-contention
service capacity ``1 / Ts`` (:func:`repro.traffic.saturation_frame_rate`);
the per-station arrival rate of a cell at multiplier ``x`` is
``x / Ts / N``.  The arrival-process family and the load grid come from the
config (``traffic_kind`` / ``load_points``; CLI ``--traffic`` /
``--load``).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.fairness import jain_index
from ..phy.constants import PhyParameters
from ..traffic import ArrivalProcess, saturation_frame_rate
from .campaign import CampaignExecutor, derive_seed
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    connected_task,
    extension_scheme_specs,
    hidden_task,
    mean_metric,
    submit,
)

__all__ = ["run_fig_load_sweep", "arrival_process_for"]

#: Column suffix -> (per-cell metric, scale applied to its mean over seeds).
_METRICS = {
    "Mbps": (lambda r: r.total_throughput_mbps, 1.0),
    "delay ms": (lambda r: r.mean_queue_delay_s, 1e3),
    "drop": (lambda r: r.drop_rate, 1.0),
    "Jain": (lambda r: jain_index(r.per_station_throughput_bps), 1.0),
}
_FAMILIES = ("connected", "hidden")


def arrival_process_for(config: ExperimentConfig, load: float,
                        phy: PhyParameters, num_stations: int) -> ArrivalProcess:
    """The per-station arrival process of a cell at load multiplier ``load``.

    ``on-off`` sources burst at twice the target rate with equal 50 ms
    on/off phases, so their *mean* rate matches the poisson/cbr grid and
    the three families sweep the identical offered-load axis.
    """
    rate = load * saturation_frame_rate(phy) / num_stations
    kind = config.traffic_kind
    limit = config.traffic_queue_limit
    if kind == "poisson":
        return ArrivalProcess.poisson(rate, queue_limit=limit)
    if kind == "cbr":
        return ArrivalProcess.cbr(rate, queue_limit=limit)
    if kind == "on-off":
        return ArrivalProcess.on_off(2.0 * rate, on_mean_s=0.05,
                                     off_mean_s=0.05, queue_limit=limit)
    raise ValueError(f"unknown traffic kind '{kind}'")


def run_fig_load_sweep(config: ExperimentConfig = QUICK,
                       phy: Optional[PhyParameters] = None,
                       executor: Optional[CampaignExecutor] = None,
                       ) -> ExperimentResult:
    """Sweep offered load across schemes, topologies and backends."""
    phy_obj = phy or PhyParameters()
    num_stations = min(config.node_counts)
    schemes = extension_scheme_specs(config)

    cells = []
    for family in _FAMILIES:
        for load in config.load_points:
            traffic = arrival_process_for(config, load, phy_obj, num_stations)
            for name, spec in schemes.items():
                for seed in config.seeds:
                    label = (f"fig_load_sweep/{family}/{name}/x={load:g}"
                             f"/seed={seed}")
                    if family == "connected":
                        task = connected_task(
                            spec, num_stations, config, seed, phy=phy,
                            traffic=traffic, label=label,
                        )
                    else:
                        topo_seed = derive_seed(
                            "fig_load_sweep", "topology", num_stations, seed
                        )
                        task = hidden_task(
                            spec, num_stations,
                            config.hidden_disc_radius_small, topo_seed,
                            config, seed, phy=phy, traffic=traffic,
                            label=label,
                        )
                    cells.append(((family, load, name), task))
    grouped = submit(cells, executor)

    columns = [f"{name} {metric}" for name in schemes for metric in _METRICS]
    rows = [
        ExperimentRow(label=f"{family}/x={load:g}", values={
            f"{name} {metric}": mean_metric(grouped[(family, load, name)], get) * scale
            for name in schemes
            for metric, (get, scale) in _METRICS.items()
        })
        for family in _FAMILIES
        for load in config.load_points
    ]

    offered_fps = saturation_frame_rate(phy_obj)
    return ExperimentResult(
        name="Load sweep",
        description=(
            "Throughput (Mbps), mean queueing delay (ms), drop rate and "
            "Jain fairness vs offered load (fraction of the saturation "
            f"frame rate {offered_fps:.0f} fps), {config.traffic_kind} "
            "arrivals, connected and hidden topologies"
        ),
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={
            "num_stations": num_stations,
            "seeds": config.seeds,
            "load_points": config.load_points,
            "traffic_kind": config.traffic_kind,
            "queue_limit": config.traffic_queue_limit,
            "saturation_frame_rate_fps": offered_fps,
            "hidden_disc_radius": config.hidden_disc_radius_small,
            "update_period_s": config.update_period,
            "adaptive_warmup_s": config.adaptive_warmup,
        },
    )
