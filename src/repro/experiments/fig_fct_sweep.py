"""Flow-completion-time sweep — closed-loop window flows, N-to-1 incast
bursts and AP-downlink traffic under a bounded MAC retry limit.

The paper evaluates open-loop saturated sources only; every congestion-
coupled workload of the related datacenter/real-time literature is *closed
loop*: sources release new frames only when earlier ones leave the MAC, so
MAC-level behaviour (collisions, retries, discards) feeds back into the
offered load.  This experiment measures that regime across the paper's
schemes on the connected topology family:

* ``window`` — every station runs one TCP-like window-limited flow
  (window 4, 200 frames); the primary metric is the per-flow completion
  time (FCT).
* ``incast`` — all N stations burst a fixed batch at the same epoch
  instants (the N-to-1 incast pattern); queues absorb the bursts and the
  p99 queueing delay exposes the synchronised contention.
* ``downlink`` — station 0 models the AP carrying the aggregate downlink
  at (N-1) x the per-station rate, contending against N-1 uplink stations.

All workloads run with the configured MAC retry limit
(:attr:`~repro.experiments.config.ExperimentConfig.retry_limit`, default 7
to match 802.11's short retry limit), so frames that repeatedly collide are
*discarded* instead of blocking the head of the queue forever — the
``retry discards`` column counts them.  Measurement starts at t = 0
(``warmup = 0``): a closed-loop flow's completion time includes the
contention it actually experienced from its first frame.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..phy.constants import PhyParameters
from ..traffic import ArrivalProcess, saturation_frame_rate
from .campaign import CampaignExecutor, RunTask, TopologySpec
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    extension_scheme_specs,
    mean_metric,
    submit,
)

__all__ = ["run_fig_fct_sweep", "fct_workloads_for"]

#: Window size of the closed-loop flows (frames in flight per station).
FLOW_WINDOW = 4
#: Frames per closed-loop flow.
FLOW_FRAMES = 200
#: Frames per incast burst and the burst repetition period.
INCAST_BURST = 32
INCAST_EPOCH_S = 0.25
#: Downlink load as a fraction of the channel's saturation frame rate.
DOWNLINK_LOAD = 0.9

#: Column suffix -> (per-cell metric, scale applied to its mean over seeds).
_METRICS = {
    "FCT ms": (lambda r: r.mean_flow_completion_s, 1e3),
    "p99 ms": (lambda r: r.queue_delay_p99_s, 1e3),
    "discards": (lambda r: r.retry_discards, 1.0),
    "Mbps": (lambda r: r.total_throughput_mbps, 1.0),
    "drop": (lambda r: r.drop_rate, 1.0),
}


def fct_workloads_for(config: ExperimentConfig, phy: PhyParameters,
                      num_stations: int) -> List[Tuple[str, ArrivalProcess]]:
    """The labelled closed-loop/congestion workloads of the sweep."""
    retry = config.retry_limit
    rate = DOWNLINK_LOAD * saturation_frame_rate(phy) / num_stations
    return [
        ("window", ArrivalProcess.window_limited(
            FLOW_WINDOW, flow_frames=FLOW_FRAMES, retry_limit=retry,
        )),
        ("incast", ArrivalProcess.incast(
            INCAST_BURST, INCAST_EPOCH_S,
            queue_limit=config.traffic_queue_limit, retry_limit=retry,
        )),
        ("downlink", ArrivalProcess.poisson(
            rate, queue_limit=config.traffic_queue_limit,
            retry_limit=retry, downlink=True,
        )),
    ]


def run_fig_fct_sweep(config: ExperimentConfig = QUICK,
                      phy: Optional[PhyParameters] = None,
                      executor: Optional[CampaignExecutor] = None,
                      ) -> ExperimentResult:
    """Closed-loop window, incast and downlink workloads across schemes."""
    phy_obj = phy or PhyParameters()
    num_stations = min(config.node_counts)
    schemes = extension_scheme_specs(config)
    workloads = fct_workloads_for(config, phy_obj, num_stations)

    grouped = submit((
        ((workload, name), RunTask(
            scheme=spec,
            topology=TopologySpec.connected(num_stations),
            seed=seed,
            duration=config.measure_duration,
            warmup=0.0,
            phy=phy,
            traffic=traffic,
            label=f"fig_fct_sweep/{workload}/{name}/seed={seed}",
        ))
        for workload, traffic in workloads
        for name, spec in schemes.items()
        for seed in config.seeds
    ), executor)

    columns = [f"{name} {metric}" for name in schemes for metric in _METRICS]
    rows = [
        ExperimentRow(label=workload, values={
            f"{name} {metric}": mean_metric(grouped[(workload, name)], get) * scale
            for name in schemes
            for metric, (get, scale) in _METRICS.items()
        })
        for workload, _ in workloads
    ]

    return ExperimentResult(
        name="Flow-completion sweep",
        description=(
            "Mean flow completion time (ms), p99 queueing delay (ms), MAC "
            f"retry discards (limit {config.retry_limit}), throughput and "
            "drop rate for closed-loop window flows "
            f"(W={FLOW_WINDOW}, {FLOW_FRAMES} frames), "
            f"{INCAST_BURST}-frame incast bursts every "
            f"{INCAST_EPOCH_S * 1e3:.0f} ms and AP downlink at "
            f"{DOWNLINK_LOAD:g} x saturation, connected topology"
        ),
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={
            "num_stations": num_stations,
            "seeds": config.seeds,
            "retry_limit": config.retry_limit,
            "flow_window": FLOW_WINDOW,
            "flow_frames": FLOW_FRAMES,
            "incast_burst": INCAST_BURST,
            "incast_epoch_s": INCAST_EPOCH_S,
            "downlink_load": DOWNLINK_LOAD,
            "queue_limit": config.traffic_queue_limit,
            "update_period_s": config.update_period,
        },
    )
