"""Stability atlas — a phase diagram of controller stability over
(offered load, cluster separation, scheme) on the two-cluster
hidden-terminal geometry.

The regression suite pins a dramatic failure mode: IdleSense on two
mutually hidden clusters can fall into a *livelock* where both clusters
open their windows in lockstep, collide almost every transmission and
deliver well under 1 Mb/s (seeds 1 and 5 of the documented scenario).
This experiment maps the basin of that failure instead of sampling it at a
point: it sweeps the two-cluster separation through the carrier-sense
boundary (below the sense range the clusters coordinate; above it they are
hidden), crosses that with offered load (an unsaturated point and the
saturated paper workload) and the paper's scheme set, runs every cell over
a seed sweep on the batched conflict backend, and classifies each cell's
throughput time line with :mod:`repro.analysis.stability` into
converged / oscillating / livelock.

The per-cell time lines come from the simulators' ``report_interval``
sampling; with ``--trace`` and ``--probe-interval`` the same cells also
emit per-station ``probe`` records, so ``trace-report`` can show the
controller state inside the livelock basin.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.stability import StabilityReport, classify_stability
from ..phy.constants import PhyParameters
from ..sim.metrics import SimulationResult
from .campaign import CampaignExecutor, RunTask, SchemeSpec, TopologySpec
from .config import ExperimentConfig, QUICK
from .fig_load_sweep import arrival_process_for
from .runner import (
    ExperimentResult,
    ExperimentRow,
    extension_scheme_specs,
    mean_metric,
    submit,
)

__all__ = [
    "run_fig_stability_atlas",
    "ATLAS_SEPARATIONS",
    "ATLAS_LOADS",
    "ATLAS_STATIONS_PER_CLUSTER",
]

#: Cross-cluster separations (metres) swept by the atlas.  The paper PHY
#: senses at 24 m: 20 m keeps the clusters mutually sensing, 28 m makes
#: them hidden (the documented livelock geometry).
ATLAS_SEPARATIONS: Tuple[float, ...] = (20.0, 28.0)

#: Offered-load multipliers; ``None`` is the saturated paper workload.
ATLAS_LOADS: Tuple[Optional[float], ...] = (0.5, None)

ATLAS_STATIONS_PER_CLUSTER = 3

# The documented livelock reproduction runs 1 s measurement after 1 s
# warm-up with intra-cluster spread 0.5 m and the deterministic placement
# seed 0 (tests/sim/test_simulation.py pins seeds 1 and 5 as livelocked).
_ATLAS_DURATION = 1.0
_ATLAS_WARMUP = 1.0
_ATLAS_REPORT_INTERVAL = 0.25
_ATLAS_SPREAD = 0.5
_ATLAS_TOPOLOGY_SEED = 0

#: Seeds that must be part of every atlas sweep so the documented
#: IdleSense livelock region is always sampled.
_LIVELOCK_SEEDS = (1, 5)


def _classify_cell(result: SimulationResult) -> StabilityReport:
    """Classify one cell's throughput time line."""
    return classify_stability(result.throughput_timeline)


def run_fig_stability_atlas(config: ExperimentConfig = QUICK,
                            phy: Optional[PhyParameters] = None,
                            executor: Optional[CampaignExecutor] = None,
                            separations: Optional[Sequence[float]] = None,
                            loads: Optional[Sequence[Optional[float]]] = None,
                            schemes: Optional[Mapping[str, SchemeSpec]] = None,
                            ) -> ExperimentResult:
    """Map controller stability over (load, separation, scheme).

    ``separations`` / ``loads`` / ``schemes`` override the swept axes (the
    acceptance test trims the grid to the IdleSense livelock corner); by
    default the full :data:`ATLAS_SEPARATIONS` x :data:`ATLAS_LOADS` x
    paper-scheme grid runs, over ``config.seeds`` extended with the
    documented livelock seeds 1 and 5.
    """
    phy_obj = phy or PhyParameters()
    scheme_map = (dict(schemes) if schemes is not None
                  else extension_scheme_specs(config))
    separations = tuple(separations) if separations is not None else ATLAS_SEPARATIONS
    loads = tuple(loads) if loads is not None else ATLAS_LOADS
    seeds = tuple(sorted(set(config.seeds) | set(_LIVELOCK_SEEDS)))
    num_stations = 2 * ATLAS_STATIONS_PER_CLUSTER

    cells = []
    for name, spec in scheme_map.items():
        for separation in separations:
            topology = TopologySpec.two_cluster(
                ATLAS_STATIONS_PER_CLUSTER, separation,
                _ATLAS_TOPOLOGY_SEED, spread=_ATLAS_SPREAD,
            )
            for load in loads:
                traffic = None
                if load is not None:
                    traffic = arrival_process_for(
                        config, load, phy_obj, num_stations
                    )
                for seed in seeds:
                    load_label = "sat" if load is None else f"x={load:g}"
                    cells.append(((name, separation, load), RunTask(
                        scheme=spec,
                        topology=topology,
                        seed=seed,
                        duration=_ATLAS_DURATION,
                        warmup=_ATLAS_WARMUP,
                        report_interval=_ATLAS_REPORT_INTERVAL,
                        phy=phy,
                        traffic=traffic,
                        label=(f"fig_stability_atlas/{name}/sep={separation:g}"
                               f"/{load_label}/seed={seed}"),
                    )))
    grouped = submit(cells, executor)

    columns = ("Mbps", "classification", "livelock frac",
               "settling s", "amplitude")
    rows: List[ExperimentRow] = []
    livelock_seeds: Dict[str, Tuple[int, ...]] = {}
    for name in scheme_map:
        for separation in separations:
            for load in loads:
                results = grouped[(name, separation, load)]
                reports = [_classify_cell(r) for r in results]
                counts: Dict[str, int] = {}
                for report in reports:
                    counts[report.classification] = (
                        counts.get(report.classification, 0) + 1
                    )
                # Modal classification; livelock wins ties (it is the
                # phase boundary the atlas exists to surface).
                modal = max(
                    counts, key=lambda c: (counts[c], c == "livelock")
                )
                settles = [r.settling_time_s for r in reports
                           if r.settling_time_s is not None]
                load_label = "sat" if load is None else f"x={load:g}"
                label = f"{name}/sep={separation:g}/{load_label}"
                rows.append(ExperimentRow(label=label, values={
                    "Mbps": mean_metric(results, lambda r: r.total_throughput_mbps),
                    "classification": modal,
                    "livelock frac": counts.get("livelock", 0) / len(reports),
                    "settling s": (mean_metric(settles, float)
                                   if settles else float("nan")),
                    "amplitude": mean_metric(
                        reports, lambda r: r.oscillation_amplitude),
                }))
                flagged = tuple(
                    seed for seed, report in zip(seeds, reports)
                    if report.is_livelock
                )
                if flagged:
                    livelock_seeds[label] = flagged

    return ExperimentResult(
        name="Stability atlas",
        description=(
            "Controller stability phase diagram on the two-cluster "
            "hidden-terminal geometry: mean throughput (Mbps), modal "
            "stability classification, livelock fraction across seeds, "
            "mean settling time (s) and mean relative tail amplitude vs "
            "(scheme, cluster separation, offered load)"
        ),
        columns=columns,
        rows=tuple(rows),
        metadata={
            "stations_per_cluster": ATLAS_STATIONS_PER_CLUSTER,
            "separations_m": separations,
            "loads": loads,
            "seeds": seeds,
            "duration_s": _ATLAS_DURATION,
            "warmup_s": _ATLAS_WARMUP,
            "report_interval_s": _ATLAS_REPORT_INTERVAL,
            "spread_m": _ATLAS_SPREAD,
            "topology_seed": _ATLAS_TOPOLOGY_SEED,
            "livelock": livelock_seeds,
        },
    )
