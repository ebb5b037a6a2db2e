"""Figures 1, 3, 6 and 7 — mean throughput vs the number of stations.

* Figure 1 (motivation): IdleSense vs standard 802.11, with and without
  hidden nodes.  Without hidden nodes IdleSense clearly beats 802.11 and
  stays roughly flat with N while 802.11 degrades; with hidden nodes
  IdleSense drops *below* 802.11 — the motivating observation of the
  paper.
* Figure 3: the four schemes on a fully connected network.  The three
  adaptive schemes stay near the analytic optimum (flat in N) while
  standard 802.11 degrades as N grows.
* Figures 6 and 7: the four schemes on random uniform-disc placements of
  radius 16 and 20 (hidden nodes present).  Expected ordering (paper):
  TORA-CSMA >= wTOP-CSMA, both well above IdleSense (which collapses),
  with standard 802.11 in between — and in particular TORA-CSMA beating
  the optimal p-persistent scheme, the paper's headline hidden-node result.

Each figure is one table (:func:`_throughput_vs_n`): a row per node count,
a column per scheme-and-topology case, each value averaged over the seeds.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional

from ..analysis.persistent import optimal_attempt_probability, system_throughput_weighted
from ..phy.constants import PhyParameters
from .campaign import CampaignExecutor, RunTask, SchemeSpec
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    average_throughput_mbps,
    connected_task,
    hidden_task,
    paper_scheme_specs,
    submit,
)

__all__ = ["run_fig1", "run_fig3", "run_fig6", "run_fig7", "run_hidden_comparison"]


def _throughput_vs_n(tag: str, columns: Mapping[str, SchemeSpec],
                     task: Callable[[str, SchemeSpec, int, int, str], RunTask],
                     config: ExperimentConfig,
                     executor: Optional[CampaignExecutor]) -> List[ExperimentRow]:
    """One row per node count of each column's mean throughput (Mbps).

    ``task(column, spec, num_stations, seed, label)`` builds one cell.
    """
    grouped = submit((
        ((name, n), task(name, spec, n, seed, f"{tag}/{name}/N={n}/seed={seed}"))
        for n in config.node_counts
        for name, spec in columns.items()
        for seed in config.seeds
    ), executor)
    return [
        ExperimentRow(label=f"N={n}", values={
            name: average_throughput_mbps(grouped[(name, n)]) for name in columns
        })
        for n in config.node_counts
    ]


def run_fig1(config: ExperimentConfig = QUICK,
             phy: Optional[PhyParameters] = None,
             executor: Optional[CampaignExecutor] = None) -> ExperimentResult:
    """Reproduce Figure 1 (throughput vs N for 802.11/IdleSense, +- hidden)."""
    specs = paper_scheme_specs(config)
    columns = {
        "IdleSense (no hidden)": specs["IdleSense"],
        "802.11 (no hidden)": specs["Standard 802.11"],
        "802.11 (hidden)": specs["Standard 802.11"],
        "IdleSense (hidden)": specs["IdleSense"],
    }

    def task(name, spec, n, seed, label):
        # Hidden cases run on random disc placements, one per seed.
        if "(hidden)" in name:
            return hidden_task(spec, n, config.hidden_disc_radius_small, seed,
                               config, seed, phy=phy, label=label)
        return connected_task(spec, n, config, seed, phy=phy, label=label)

    return ExperimentResult(
        name="Figure 1",
        description=(
            "Throughput (Mbps) of IdleSense and standard 802.11, without and "
            "with hidden nodes"
        ),
        columns=tuple(columns),
        rows=tuple(_throughput_vs_n("fig1", columns, task, config, executor)),
        metadata={
            "node_counts": config.node_counts,
            "seeds": config.seeds,
            "hidden_disc_radius": config.hidden_disc_radius_small,
            "measure_duration_s": config.measure_duration,
        },
    )


def run_fig3(config: ExperimentConfig = QUICK,
             phy: Optional[PhyParameters] = None,
             include_optimum: bool = True,
             executor: Optional[CampaignExecutor] = None) -> ExperimentResult:
    """Reproduce Figure 3 (scheme comparison, fully connected)."""
    specs = paper_scheme_specs(config)
    rows = _throughput_vs_n(
        "fig3", specs,
        lambda _, spec, n, seed, label: connected_task(
            spec, n, config, seed, phy=phy, label=label),
        config, executor,
    )
    columns = list(specs)
    if include_optimum:
        columns.append("Analytic optimum")
        phy_obj = phy or PhyParameters()
        rows = [
            ExperimentRow(label=row.label, values={
                **row.values,
                "Analytic optimum": system_throughput_weighted(
                    optimal_attempt_probability(n, phy_obj), [1.0] * n, phy_obj
                ) / 1e6,
            })
            for row, n in zip(rows, config.node_counts)
        ]
    return ExperimentResult(
        name="Figure 3",
        description=(
            "Throughput (Mbps) vs number of stations, fully connected network"
        ),
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={
            "node_counts": config.node_counts,
            "seeds": config.seeds,
            "update_period_s": config.update_period,
            "adaptive_warmup_s": config.adaptive_warmup,
        },
    )


def run_hidden_comparison(radius: float, name: str,
                          config: ExperimentConfig = QUICK,
                          phy: Optional[PhyParameters] = None,
                          executor: Optional[CampaignExecutor] = None
                          ) -> ExperimentResult:
    """Scheme comparison on hidden-node topologies of the given disc radius."""
    specs = paper_scheme_specs(config)
    rows = _throughput_vs_n(
        name, specs,
        lambda _, spec, n, seed, label: hidden_task(
            spec, n, radius, seed, config, seed, phy=phy, label=label),
        config, executor,
    )
    return ExperimentResult(
        name=name,
        description=(
            f"Throughput (Mbps) vs number of stations, nodes uniform in a disc "
            f"of radius {radius:g} (hidden nodes present)"
        ),
        columns=tuple(specs),
        rows=tuple(rows),
        metadata={
            "disc_radius": radius,
            "node_counts": config.node_counts,
            "seeds": config.seeds,
            "update_period_s": config.update_period,
            "adaptive_warmup_s": config.adaptive_warmup,
        },
    )


def run_fig6(config: ExperimentConfig = QUICK,
             phy: Optional[PhyParameters] = None,
             executor: Optional[CampaignExecutor] = None) -> ExperimentResult:
    """Reproduce Figure 6 (disc radius 16)."""
    return run_hidden_comparison(
        config.hidden_disc_radius_small, "Figure 6", config, phy, executor
    )


def run_fig7(config: ExperimentConfig = QUICK,
             phy: Optional[PhyParameters] = None,
             executor: Optional[CampaignExecutor] = None) -> ExperimentResult:
    """Reproduce Figure 7 (disc radius 20)."""
    return run_hidden_comparison(
        config.hidden_disc_radius_large, "Figure 7", config, phy, executor
    )
