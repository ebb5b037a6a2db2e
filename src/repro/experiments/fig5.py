"""Figure 5 — throughput of RandomReset CSMA vs the reset probability ``p0``
in the presence of hidden nodes.

Together with Figure 4 this is the paper's empirical quasi-concavity evidence
for the exponential-backoff control variable.  The runner fixes the reset
stage at ``j = 0`` (as in the paper's figure) and sweeps ``p0`` over random
disc topologies with the event-driven simulator.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.quasiconcavity import check_quasiconcavity
from ..phy.constants import PhyParameters
from .campaign import CampaignExecutor, SchemeSpec
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    average_throughput_mbps,
    default_executor,
    group_results,
    hidden_task,
)

__all__ = ["run_fig5"]


def run_fig5(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    node_counts: Sequence[int] = (20, 40),
    reset_probabilities: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    stage: int = 0,
    topology_seeds: Sequence[int] = (11, 12),
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Figure 5 (RandomReset p0 sweep with hidden nodes)."""
    executor = executor or default_executor()
    phy = phy or PhyParameters()
    columns = [
        f"N={n} scenario {scenario_index + 1}"
        for n in node_counts
        for scenario_index in range(len(topology_seeds))
    ]
    curves = {column: [] for column in columns}

    tasks, keys = [], []
    for p0 in reset_probabilities:
        for n in node_counts:
            for scenario_index, topo_seed in enumerate(topology_seeds):
                column = f"N={n} scenario {scenario_index + 1}"
                for seed in config.seeds:
                    tasks.append(hidden_task(
                        SchemeSpec.make("fixed-randomreset", stage=stage, p0=p0),
                        n, config.hidden_disc_radius_small, topo_seed,
                        config, seed, phy=phy,
                        label=(
                            f"fig5/p0={float(p0):.2f}/N={n}"
                            f"/scenario={scenario_index + 1}/seed={seed}"
                        ),
                    ))
                    keys.append((float(p0), column))
    grouped = group_results(keys, executor.run(tasks))

    rows = []
    for p0 in reset_probabilities:
        values = {}
        for n in node_counts:
            for scenario_index in range(len(topology_seeds)):
                column = f"N={n} scenario {scenario_index + 1}"
                value = average_throughput_mbps(grouped[(float(p0), column)])
                values[column] = value
                curves[column].append(value)
        rows.append(ExperimentRow(label=f"p0={p0:.2f}", values=values))

    quasiconcavity = {
        name: check_quasiconcavity(
            list(reset_probabilities), curve, noise_tolerance=0.15
        ).is_quasiconcave
        for name, curve in curves.items()
    }
    return ExperimentResult(
        name="Figure 5",
        description=(
            "Throughput (Mbps) of RandomReset CSMA vs reset probability p0 "
            "with hidden nodes (j=0)"
        ),
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={
            "reset_probabilities": tuple(reset_probabilities),
            "stage": stage,
            "quasi_concave": quasiconcavity,
            "hidden_disc_radius": config.hidden_disc_radius_small,
            "topology_seeds": tuple(topology_seeds),
            "seeds": config.seeds,
        },
    )
