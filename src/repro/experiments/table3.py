"""Table III — average idle slots and throughput, with and without hidden
nodes, for IdleSense and wTOP-CSMA (40 stations).

The paper's point: IdleSense always drives the network to its fixed target of
~3.1-3.4 idle slots per transmission, which is near-optimal without hidden
nodes but catastrophically wrong with them; wTOP-CSMA, which tracks
throughput directly, settles at a *different* idle-slot level for every
hidden-node configuration (≈5 without hidden nodes, ≈10 and ≈25 in the
paper's two hidden cases) and therefore retains much more throughput.

Reported idle-slot metrics:

* for IdleSense — the station-observed average (what the AIMD law actually
  regulates), averaged over stations;
* for wTOP-CSMA — the system-level contention idle slots per transmission
  measured at the channel.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..phy.constants import PhyParameters
from ..sim.metrics import SimulationResult
from .campaign import CampaignExecutor
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    connected_task,
    hidden_task,
    paper_scheme_specs,
    submit,
)

__all__ = ["run_table3"]


def _idle_metric(result: SimulationResult) -> float:
    """The idle-slot figure reported for one case.

    ``station_observed_idle`` is the mean of the per-station observed idle
    averages — :func:`~repro.experiments.campaign.execute_task` annotates it
    whenever the scheme's stations (IdleSense) track one, because that is the
    quantity the AIMD law actually regulates.  Other schemes fall back to the
    system-level contention idle slots measured at the channel.
    """
    station_idle = result.extra.get("station_observed_idle")
    if station_idle is not None:
        return float(station_idle)
    return result.average_idle_slots_per_transmission


def run_table3(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    num_stations: int = 40,
    hidden_case_seeds: Sequence[int] = (11, 12),
    seed: int = 1,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Table III (idle slots and throughput, 40 stations)."""
    cases = [("Without hidden nodes", None)]
    cases.extend(
        (f"With hidden nodes (case {index + 1})", topo_seed)
        for index, topo_seed in enumerate(hidden_case_seeds)
    )
    specs = paper_scheme_specs(config)
    schemes = {name: specs[name] for name in ("IdleSense", "wTOP-CSMA")}

    cells = []
    for case_label, topo_seed in cases:
        for scheme_name, spec in schemes.items():
            label = f"table3/{case_label}/{scheme_name}/seed={seed}"
            if topo_seed is None:
                task = connected_task(
                    spec, num_stations, config, seed, phy=phy, label=label
                )
            else:
                task = hidden_task(
                    spec, num_stations, config.hidden_disc_radius_small,
                    topo_seed, config, seed, phy=phy, label=label,
                )
            cells.append(((case_label, scheme_name), task))
    grouped = submit(cells, executor)

    rows = []
    for case_label, _topo_seed in cases:
        values = {}
        for scheme_name in schemes:
            [result] = grouped[(case_label, scheme_name)]
            values[f"{scheme_name} idle slots"] = _idle_metric(result)
            values[f"{scheme_name} throughput (Mbps)"] = result.total_throughput_mbps
        rows.append(ExperimentRow(label=case_label, values=values))

    return ExperimentResult(
        name="Table III",
        description=(
            "Average idle slots per transmission and throughput for IdleSense "
            f"and wTOP-CSMA, {num_stations} stations, with and without hidden nodes"
        ),
        columns=(
            "IdleSense idle slots",
            "IdleSense throughput (Mbps)",
            "wTOP-CSMA idle slots",
            "wTOP-CSMA throughput (Mbps)",
        ),
        rows=tuple(rows),
        metadata={
            "num_stations": num_stations,
            "hidden_disc_radius": config.hidden_disc_radius_small,
            "hidden_case_seeds": tuple(hidden_case_seeds),
            "seed": seed,
            "adaptive_warmup_s": config.adaptive_warmup,
        },
    )
