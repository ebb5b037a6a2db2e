"""The benchmark's workloads: seeded campaign task lists plus executor settings.

Each workload is a list of :class:`~repro.experiments.campaign.RunTask`
cells built from the workload seed alone, and the :class:`CampaignExecutor`
settings it runs under.  Every cell seed and every hidden-node topology seed
derives from the workload seed through :func:`derive_seed`, so a claim made
on one seed can be re-checked on a held-out one.  All cells use the ``auto``
backend; none of them has a scalar fallback.

Importing this module imports :mod:`repro.experiments`, which is part of
what ``setup_s`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments import (
    CampaignExecutor,
    ExperimentConfig,
    RunTask,
    SchemeSpec,
    connected_task,
    derive_seed,
    hidden_task,
    paper_scheme_specs,
)
from repro.experiments.fig_load_sweep import arrival_process_for
from repro.phy.constants import PhyParameters

__all__ = ["Workload", "WORKLOADS", "make_executor"]

#: The fig3 grid at the ``test_batched_speedup`` budget, with 8 seeds.
FIG3_CONFIG = ExperimentConfig(
    node_counts=(10, 20, 40, 60),
    measure_duration=1.0,
    warmup=0.3,
    adaptive_warmup=5.0,
    update_period=0.05,
)

#: The fig6 + fig7 grids at the ``test_hidden_speedup`` budget, 6 seeds.
HIDDEN_CONFIG = ExperimentConfig(
    node_counts=(10, 20),
    measure_duration=0.5,
    warmup=0.3,
    adaptive_warmup=2.0,
    update_period=0.05,
)

#: The ``fig_load_sweep`` grid at N = 10 with Poisson arrivals.  Its budgets
#: are the quick preset's cut about sixfold: at quick budgets one campaign
#: takes 35-39 s on two workers, too long to repeat within one run.
LOAD_CONFIG = ExperimentConfig(
    node_counts=(10,),
    measure_duration=0.3,
    warmup=0.2,
    adaptive_warmup=0.6,
    update_period=0.05,
    load_points=(0.25, 0.5, 1.0, 2.0),
    traffic_kind="poisson",
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    #: Worker processes of the campaign executor (1 runs in-process).
    jobs: int
    #: Whether each run stores every cell in a fresh, empty result cache.
    fresh_cache: bool
    build: Callable[[int], List[RunTask]]


def _seeds(workload: str, seed: int, count: int) -> List[int]:
    return [derive_seed("perfbench", workload, seed, "cell", rep)
            for rep in range(count)]


def _fig3_tasks(seed: int) -> List[RunTask]:
    config = FIG3_CONFIG
    tasks = []
    for num_stations in config.node_counts:
        for name, spec in paper_scheme_specs(config).items():
            for rep, cell_seed in enumerate(_seeds("fig3-connected", seed, 8)):
                tasks.append(connected_task(
                    spec, num_stations, config, cell_seed,
                    label=f"fig3/{name}/N={num_stations}/rep={rep}",
                ))
    return tasks


def _hidden_tasks(seed: int) -> List[RunTask]:
    config = HIDDEN_CONFIG
    tasks = []
    for radius in (config.hidden_disc_radius_small,
                   config.hidden_disc_radius_large):
        for num_stations in config.node_counts:
            for name, spec in paper_scheme_specs(config).items():
                for rep, cell_seed in enumerate(
                        _seeds("fig6-7-hidden", seed, 6)):
                    topology_seed = derive_seed(
                        "perfbench", "fig6-7-hidden", seed, "topology",
                        radius, num_stations, rep,
                    )
                    tasks.append(hidden_task(
                        spec, num_stations, radius, topology_seed, config,
                        cell_seed,
                        label=(f"fig6_7/r={radius:g}/{name}/N={num_stations}"
                               f"/rep={rep}"),
                    ))
    return tasks


def _load_sweep_tasks(seed: int) -> List[RunTask]:
    config = LOAD_CONFIG
    phy = PhyParameters()
    num_stations = config.node_counts[0]
    schemes = {
        "Standard 802.11": SchemeSpec.make("standard-802.11"),
        "IdleSense": SchemeSpec.make("idlesense"),
        "wTOP-CSMA": SchemeSpec.make("wtop-csma",
                                     update_period=config.update_period),
    }
    # Unlike the figure, every cell draws its own seed and topology: the
    # run time of a 2-cell unit swings with its draws, and 48 independent
    # draws spread the total less across workload seeds than 2 shared ones.
    tasks = []
    for family in ("connected", "hidden"):
        for load in config.load_points:
            traffic = arrival_process_for(config, load, phy, num_stations)
            for name, spec in schemes.items():
                for rep in range(2):
                    cell = (seed, family, load, name, rep)
                    cell_seed = derive_seed("perfbench", "load-sweep-pool",
                                            "cell", *cell)
                    label = f"load_sweep/{family}/{name}/x={load:g}/rep={rep}"
                    if family == "connected":
                        tasks.append(connected_task(
                            spec, num_stations, config, cell_seed,
                            traffic=traffic, label=label,
                        ))
                    else:
                        topology_seed = derive_seed(
                            "perfbench", "load-sweep-pool", "topology", *cell)
                        tasks.append(hidden_task(
                            spec, num_stations,
                            config.hidden_disc_radius_small, topology_seed,
                            config, cell_seed, traffic=traffic, label=label,
                        ))
    return tasks


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig3-connected", jobs=1, fresh_cache=False,
                 build=_fig3_tasks),
        Workload("fig6-7-hidden", jobs=1, fresh_cache=False,
                 build=_hidden_tasks),
        Workload("load-sweep-pool", jobs=2, fresh_cache=True,
                 build=_load_sweep_tasks),
    )
}


def make_executor(name: str, cache_dir, **kwargs) -> CampaignExecutor:
    """The executor a workload runs under (``cache_dir`` must be empty)."""
    workload = WORKLOADS[name]
    return CampaignExecutor(
        jobs=workload.jobs,
        cache_dir=cache_dir if workload.fresh_cache else None,
        backend="auto",
        **kwargs,
    )
