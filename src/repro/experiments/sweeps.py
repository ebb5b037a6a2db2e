"""Figures 2, 4, 5 and 13 — throughput vs a fixed value of a control
variable, the paper's empirical evidence of quasi-concavity.

wTOP-CSMA tunes the attempt probability ``p`` of p-persistent CSMA and
TORA-CSMA tunes the reset probability ``p0`` of RandomReset(j; p0), so the
paper runs each sweep once per control variable:

* Figure 2 (``p``) and Figure 13 (``p0``, stage ``j = 0``) sweep a fully
  connected network of 20 and 40 stations beside the analytic curve (Eq. 3
  and the RandomReset fixed point).  The ``p`` curve is a bell over
  ``log(p)`` (Theorem 2 proves it quasi-concave); the ``p0`` curve is much
  flatter around its maximum, the paper's argument for why TORA-CSMA
  tolerates oscillation of its control variable better than wTOP-CSMA.
* Figure 4 (``p``) and Figure 5 (``p0``) sweep random hidden-node disc
  placements, two scenarios per node count, where quasi-concavity — which
  the Kiefer-Wolfowitz argument needs — cannot be proven analytically.

One descriptor per control variable (:class:`_Control`) carries
everything the two sweep shapes vary by, and every curve goes through the
same noise-tolerant unimodality check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.persistent import system_throughput_weighted
from ..analysis.quasiconcavity import check_quasiconcavity
from ..analysis.randomreset import randomreset_throughput
from ..phy.constants import PhyParameters
from .campaign import CampaignExecutor, SchemeSpec
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    average_throughput_mbps,
    connected_task,
    hidden_task,
    submit,
)

__all__ = ["run_fig2", "run_fig4", "run_fig5", "run_fig13", "default_probability_grid"]

#: Unimodality tolerance of the hidden-node curves, which are noisier than
#: the connected ones.
_HIDDEN_TOLERANCE = 0.15


@dataclass(frozen=True)
class _Control:
    """One control variable, as a sweep over its fixed values sees it."""

    #: The open-loop scheme that holds the variable at one value.
    spec: Callable[[float], SchemeSpec]
    #: Analytic throughput (Mbps) of ``n`` saturated connected stations.
    analytic: Callable[[float, int, PhyParameters], float]
    #: Row label and task-label tag of one value.
    row: Callable[[float], str]
    tag: Callable[[float], str]
    #: x axis of the quasi-concavity check, and its tolerance on the
    #: connected curves.
    axis: Callable[[Sequence[float]], Sequence[float]]
    tolerance: float
    #: Leading metadata entries describing the swept values.
    metadata: Callable[[Sequence[float]], Dict[str, object]]


_ATTEMPT_PROBABILITY = _Control(
    spec=lambda p: SchemeSpec.make("fixed-p", p=p),
    analytic=lambda p, n, phy: system_throughput_weighted(p, [1.0] * n, phy) / 1e6,
    row=lambda p: f"log(p)={np.log(p):.2f}",
    tag=lambda p: f"p={float(p):.6g}",
    axis=np.log,
    tolerance=0.05,
    metadata=lambda ps: {"probabilities": tuple(round(float(p), 6) for p in ps)},
)


def _reset_probability(stage: int) -> _Control:
    return _Control(
        spec=lambda p0: SchemeSpec.make("fixed-randomreset", stage=stage, p0=p0),
        analytic=lambda p0, n, phy: randomreset_throughput(stage, p0, n, phy) / 1e6,
        row=lambda p0: f"p0={p0:.2f}",
        tag=lambda p0: f"p0={float(p0):.2f}",
        axis=list,
        tolerance=0.1,
        metadata=lambda p0s: {"reset_probabilities": tuple(p0s), "stage": stage},
    )


def default_probability_grid(num_points: int = 13) -> Tuple[float, ...]:
    """Log-spaced attempt probabilities covering the paper's x-axis range.

    The paper sweeps log(p) from about -10 to -2 (natural log), i.e. p from
    ~4.5e-5 to ~0.135.
    """
    return tuple(np.exp(np.linspace(-10.0, -2.0, num_points)))


def _sweep_result(name: str, description: str, control: _Control,
                  values: Sequence[float], columns: Sequence[str],
                  rows: Sequence[ExperimentRow], tolerance: float,
                  metadata: Mapping[str, object]) -> ExperimentResult:
    quasi_concave = {
        column: check_quasiconcavity(
            control.axis(values), [row.values[column] for row in rows],
            noise_tolerance=tolerance,
        ).is_quasiconcave
        for column in columns
    }
    return ExperimentResult(
        name=name,
        description=description,
        columns=tuple(columns),
        rows=tuple(rows),
        metadata={**control.metadata(values), "quasi_concave": quasi_concave,
                  **metadata},
    )


def _connected_sweep(name: str, description: str, tag: str, control: _Control,
                     values: Sequence[float], node_counts: Sequence[int],
                     simulate: bool, config: ExperimentConfig,
                     phy: Optional[PhyParameters],
                     executor: Optional[CampaignExecutor]) -> ExperimentResult:
    """Analytic and (optionally) simulated curves on connected cells."""
    phy = phy or PhyParameters()
    kinds = ("analytic", "simulated") if simulate else ("analytic",)
    columns = [f"{kind} N={n}" for n in node_counts for kind in kinds]
    grouped = submit((
        ((v, n), connected_task(
            control.spec(v), n, config, seed, phy=phy,
            label=f"{tag}/{control.tag(v)}/N={n}/seed={seed}",
        ))
        for v in (values if simulate else ())
        for n in node_counts
        for seed in config.seeds
    ), executor)
    rows = []
    for v in values:
        row = {}
        for n in node_counts:
            row[f"analytic N={n}"] = control.analytic(v, n, phy)
            if simulate:
                row[f"simulated N={n}"] = average_throughput_mbps(grouped[(v, n)])
        rows.append(ExperimentRow(label=control.row(v), values=row))
    return _sweep_result(name, description, control, values, columns, rows,
                         control.tolerance, {"seeds": config.seeds})


def _hidden_sweep(name: str, description: str, tag: str, control: _Control,
                  values: Sequence[float], node_counts: Sequence[int],
                  topology_seeds: Sequence[int], config: ExperimentConfig,
                  phy: Optional[PhyParameters],
                  executor: Optional[CampaignExecutor]) -> ExperimentResult:
    """Simulated curves on hidden-node discs, one per (N, placement)."""
    phy = phy or PhyParameters()
    scenarios = {
        f"N={n} scenario {index + 1}": (n, index + 1, topology_seed)
        for n in node_counts
        for index, topology_seed in enumerate(topology_seeds)
    }
    grouped = submit((
        ((v, column), hidden_task(
            control.spec(v), n, config.hidden_disc_radius_small, topology_seed,
            config, seed, phy=phy,
            label=f"{tag}/{control.tag(v)}/N={n}/scenario={scenario}/seed={seed}",
        ))
        for v in values
        for column, (n, scenario, topology_seed) in scenarios.items()
        for seed in config.seeds
    ), executor)
    rows = [
        ExperimentRow(label=control.row(v), values={
            column: average_throughput_mbps(grouped[(v, column)])
            for column in scenarios
        })
        for v in values
    ]
    return _sweep_result(name, description, control, values, list(scenarios),
                         rows, _HIDDEN_TOLERANCE, {
                             "hidden_disc_radius": config.hidden_disc_radius_small,
                             "topology_seeds": tuple(topology_seeds),
                             "seeds": config.seeds,
                         })


def run_fig2(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    node_counts: Sequence[int] = (20, 40),
    probabilities: Optional[Sequence[float]] = None,
    simulate: bool = True,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Figure 2 (throughput vs attempt probability, connected)."""
    return _connected_sweep(
        "Figure 2",
        "Throughput (Mbps) of p-persistent CSMA vs log(attempt probability), "
        "fully connected network",
        "fig2", _ATTEMPT_PROBABILITY,
        default_probability_grid() if probabilities is None else tuple(probabilities),
        node_counts, simulate, config, phy, executor,
    )


def run_fig13(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    node_counts: Sequence[int] = (20, 40),
    reset_probabilities: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    stage: int = 0,
    simulate: bool = True,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Figure 13 (RandomReset p0 sweep, fully connected)."""
    return _connected_sweep(
        "Figure 13",
        f"Throughput (Mbps) of RandomReset({stage}; p0) vs reset probability, "
        "fully connected network",
        "fig13", _reset_probability(stage), reset_probabilities,
        node_counts, simulate, config, phy, executor,
    )


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
    return _hidden_sweep(
        "Figure 4",
        "Throughput (Mbps) of p-persistent CSMA vs log(attempt probability) "
        "with hidden nodes",
        "fig4", _ATTEMPT_PROBABILITY,
        default_probability_grid(9) if probabilities is None else tuple(probabilities),
        node_counts, topology_seeds, config, phy, executor,
    )


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
    return _hidden_sweep(
        "Figure 5",
        "Throughput (Mbps) of RandomReset CSMA vs reset probability p0 "
        f"with hidden nodes (j={stage})",
        "fig5", _reset_probability(stage), reset_probabilities,
        node_counts, topology_seeds, config, phy, executor,
    )
