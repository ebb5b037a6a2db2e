"""Figure 4 — throughput of p-persistent CSMA vs attempt probability in the
presence of hidden nodes.

The paper uses this sweep as empirical evidence that the throughput remains a
quasi-concave function of the control variable when hidden nodes exist (the
property the Kiefer-Wolfowitz argument needs but cannot be proven
analytically).  The runner sweeps a fixed ``p`` over random disc topologies
with the event-driven simulator and reports the unimodality check.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.quasiconcavity import check_quasiconcavity
from ..phy.constants import PhyParameters
from .campaign import CampaignExecutor, SchemeSpec
from .config import ExperimentConfig, QUICK
from .fig2 import default_probability_grid
from .runner import (
    ExperimentResult,
    ExperimentRow,
    average_throughput_mbps,
    default_executor,
    group_results,
    hidden_task,
)

__all__ = ["run_fig4"]


def run_fig4(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    node_counts: Sequence[int] = (20, 40),
    probabilities: Optional[Sequence[float]] = None,
    topology_seeds: Sequence[int] = (11, 12),
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Figure 4 (p-persistent sweep with hidden nodes).

    ``topology_seeds`` picks the random hidden-node placements; the paper
    similarly shows two scenarios per node count.
    """
    executor = executor or default_executor()
    phy = phy or PhyParameters()
    probabilities = tuple(probabilities or default_probability_grid(9))
    columns = [
        f"N={n} scenario {scenario_index + 1}"
        for n in node_counts
        for scenario_index in range(len(topology_seeds))
    ]
    curves = {column: [] for column in columns}

    tasks, keys = [], []
    for p in probabilities:
        for n in node_counts:
            for scenario_index, topo_seed in enumerate(topology_seeds):
                column = f"N={n} scenario {scenario_index + 1}"
                for seed in config.seeds:
                    tasks.append(hidden_task(
                        SchemeSpec.make("fixed-p", p=p), n,
                        config.hidden_disc_radius_small, topo_seed,
                        config, seed, phy=phy,
                        label=(
                            f"fig4/p={float(p):.6g}/N={n}"
                            f"/scenario={scenario_index + 1}/seed={seed}"
                        ),
                    ))
                    keys.append((float(p), column))
    grouped = group_results(keys, executor.run(tasks))

    rows = []
    for p in probabilities:
        values = {}
        for n in node_counts:
            for scenario_index in range(len(topology_seeds)):
                column = f"N={n} scenario {scenario_index + 1}"
                value = average_throughput_mbps(grouped[(float(p), column)])
                values[column] = value
                curves[column].append(value)
        rows.append(ExperimentRow(label=f"log(p)={np.log(p):.2f}", values=values))

    quasiconcavity = {
        name: check_quasiconcavity(
            np.log(probabilities), curve, noise_tolerance=0.15
        ).is_quasiconcave
        for name, curve in curves.items()
    }
    return ExperimentResult(
        name="Figure 4",
        description=(
            "Throughput (Mbps) of p-persistent CSMA vs log(attempt probability) "
            "with hidden nodes"
        ),
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={
            "probabilities": tuple(round(float(p), 6) for p in probabilities),
            "quasi_concave": quasiconcavity,
            "hidden_disc_radius": config.hidden_disc_radius_small,
            "topology_seeds": tuple(topology_seeds),
            "seeds": config.seeds,
        },
    )
