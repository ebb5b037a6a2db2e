"""Shared plumbing for the per-figure experiment runners.

The runners all need the same few operations:

* describe one MAC-scheme-on-topology simulation as a declarative
  :class:`~repro.experiments.campaign.RunTask` (:func:`connected_task`,
  :func:`hidden_task`) so whole figures execute through a
  :class:`~repro.experiments.campaign.CampaignExecutor` — in parallel and
  with result caching (a single cell runs through
  :func:`~repro.experiments.campaign.execute_task`);
* average throughput over seeds and express results as plain rows that the
  reporting module can format.

Keeping this logic in one place guarantees that every figure uses identical
measurement methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..phy.constants import PhyParameters
from ..sim.metrics import SimulationResult
from ..traffic import ArrivalProcess
from .campaign import CampaignExecutor, RunTask, SchemeSpec, TopologySpec
from .config import ExperimentConfig

__all__ = [
    "ExperimentRow",
    "ExperimentResult",
    "average_throughput_mbps",
    "paper_scheme_specs",
    "connected_task",
    "hidden_task",
    "group_results",
    "default_executor",
]


@dataclass(frozen=True)
class ExperimentRow:
    """One row of an experiment's output table.

    Values are usually floats (throughputs, probabilities) but strings are
    allowed for descriptive tables such as Table I.
    """

    label: str
    values: Mapping[str, object]


@dataclass(frozen=True)
class ExperimentResult:
    """Structured output of one experiment runner.

    ``columns`` fixes the column ordering used when rendering text tables;
    ``rows`` hold the data; ``metadata`` records the configuration that
    produced them (durations, seeds, topology parameters).
    """

    name: str
    description: str
    columns: Tuple[str, ...]
    rows: Tuple[ExperimentRow, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def column(self, name: str) -> List[float]:
        """Extract one column as a list (missing cells become NaN)."""
        return [float(row.values.get(name, float("nan"))) for row in self.rows]

    def row_labels(self) -> List[str]:
        return [row.label for row in self.rows]


# ----------------------------------------------------------------------
# Campaign task construction
# ----------------------------------------------------------------------
def default_executor() -> CampaignExecutor:
    """Serial, cache-less executor used when a runner gets none injected."""
    return CampaignExecutor(jobs=1)


def connected_task(
    spec: SchemeSpec,
    num_stations: int,
    config: ExperimentConfig,
    seed: int,
    phy: Optional[PhyParameters] = None,
    activity: Optional[Sequence[Tuple[float, int]]] = None,
    report_interval: Optional[float] = None,
    traffic: Optional["ArrivalProcess"] = None,
    label: str = "",
) -> RunTask:
    """Task for one scheme on a fully connected network.

    Under the ``auto`` backend it runs on the batched renewal kernel when
    one models it, else on the slotted simulator.
    """
    duration, warmup = config.durations_for(spec.adaptive)
    return RunTask(
        scheme=spec,
        topology=TopologySpec.connected(num_stations),
        seed=seed,
        duration=duration,
        warmup=warmup,
        report_interval=report_interval,
        activity=tuple(activity) if activity is not None else None,
        phy=phy,
        traffic=traffic,
        label=label,
    )


def hidden_task(
    spec: SchemeSpec,
    num_stations: int,
    radius: float,
    topology_seed: int,
    config: ExperimentConfig,
    seed: int,
    phy: Optional[PhyParameters] = None,
    activity: Optional[Sequence[Tuple[float, int]]] = None,
    report_interval: Optional[float] = None,
    traffic: Optional["ArrivalProcess"] = None,
    label: str = "",
) -> RunTask:
    """Task for one scheme on a hidden-node disc.

    Under the ``auto`` backend it runs on the batched conflict-matrix kernel
    when one models it, else on the event-driven simulator.
    """
    duration, warmup = config.durations_for(spec.adaptive)
    return RunTask(
        scheme=spec,
        topology=TopologySpec.hidden_disc(num_stations, radius, topology_seed),
        seed=seed,
        duration=duration,
        warmup=warmup,
        report_interval=report_interval,
        activity=tuple(activity) if activity is not None else None,
        phy=phy,
        traffic=traffic,
        label=label,
    )


def group_results(
    keys: Sequence[object], results: Sequence[SimulationResult]
) -> Dict[object, List[SimulationResult]]:
    """Re-group a flat campaign result list by the caller's cell keys.

    The runners submit their whole figure grid as one flat task list (so the
    executor can parallelise across every cell at once) and tag each task
    with a key such as ``(column, num_stations)``; this folds the flat result
    list back into per-cell buckets, preserving submission order within each.
    """
    grouped: Dict[object, List[SimulationResult]] = {}
    for key, result in zip(keys, results):
        grouped.setdefault(key, []).append(result)
    return grouped


def average_throughput_mbps(results: Sequence[SimulationResult]) -> float:
    """Mean system throughput over repeated runs, in Mbps."""
    if not results:
        raise ValueError("need at least one result")
    return float(np.mean([r.total_throughput_mbps for r in results]))


# ----------------------------------------------------------------------
# The paper's four schemes, parameterised by the config
# ----------------------------------------------------------------------
def paper_scheme_specs(config: ExperimentConfig) -> Dict[str, SchemeSpec]:
    """The four schemes compared throughout the evaluation.

    The PHY is supplied by the task that embeds each spec; the specs are
    picklable descriptors the campaign engine can hash, cache and ship to
    worker processes.
    """
    return {
        "Standard 802.11": SchemeSpec.make("standard-802.11"),
        "IdleSense": SchemeSpec.make("idlesense"),
        "wTOP-CSMA": SchemeSpec.make(
            "wtop-csma", update_period=config.update_period
        ),
        "TORA-CSMA": SchemeSpec.make(
            "tora-csma", update_period=config.update_period
        ),
    }
