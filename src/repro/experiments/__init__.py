"""Experiment runners regenerating every figure and table of the paper.

Each ``run_*`` function returns an :class:`~repro.experiments.runner.ExperimentResult`
that can be rendered with :func:`~repro.experiments.reporting.format_result`.
``EXPERIMENT_REGISTRY`` maps experiment ids to their runners so the benchmark
harness and the examples can iterate over them uniformly.

Every simulation-backed runner accepts an optional ``executor`` — a
:class:`~repro.experiments.campaign.CampaignExecutor` — through which it
submits its whole (scheme x topology x seed) grid as one flat task list.
Passing a shared executor with ``jobs > 1`` parallelises the evaluation over
worker processes, and a ``cache_dir`` makes re-runs skip completed cells;
``python -m repro.experiments all --jobs N`` wires this up from the command
line.  Without an executor the runners fall back to serial in-process
execution, producing bit-identical results.
"""

from .campaign import (
    CampaignExecutor,
    CampaignStats,
    ResultCache,
    RunTask,
    SchemeSpec,
    TopologySpec,
    derive_seed,
    execute_task,
)
from .config import PAPER, QUICK, ExperimentConfig
from .fig1 import run_fig1
from .fig2 import default_probability_grid, run_fig2
from .fig3 import run_fig3
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig6_7 import run_fig6, run_fig7, run_hidden_comparison
from .fig8_9 import default_station_steps, run_fig8_9
from .fig10_11 import run_fig10_11
from .fig12 import run_fig12
from .fig13 import run_fig13
from .fig_fct_sweep import run_fig_fct_sweep
from .fig_load_sweep import run_fig_load_sweep
from .fig_stability_atlas import run_fig_stability_atlas
from .reporting import format_result, format_table, summarize_series
from .runner import (
    ExperimentResult,
    ExperimentRow,
    average_throughput_mbps,
    connected_task,
    default_executor,
    group_results,
    hidden_task,
    paper_scheme_specs,
)
from .table1 import run_table1
from .table2 import PAPER_WEIGHTS, run_table2
from .table3 import run_table3

#: Mapping from experiment id (as used in DESIGN.md / EXPERIMENTS.md) to runner.
EXPERIMENT_REGISTRY = {
    "table1": run_table1,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8_9": run_fig8_9,
    "fig10_11": run_fig10_11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "table2": run_table2,
    "table3": run_table3,
    "fig_load_sweep": run_fig_load_sweep,
    "fig_fct_sweep": run_fig_fct_sweep,
    "fig_stability_atlas": run_fig_stability_atlas,
}

__all__ = [
    "PAPER",
    "QUICK",
    "ExperimentConfig",
    "CampaignExecutor",
    "CampaignStats",
    "ResultCache",
    "RunTask",
    "SchemeSpec",
    "TopologySpec",
    "derive_seed",
    "execute_task",
    "connected_task",
    "default_executor",
    "group_results",
    "hidden_task",
    "paper_scheme_specs",
    "run_fig1",
    "default_probability_grid",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_hidden_comparison",
    "default_station_steps",
    "run_fig8_9",
    "run_fig10_11",
    "run_fig12",
    "run_fig13",
    "run_fig_fct_sweep",
    "run_fig_load_sweep",
    "run_fig_stability_atlas",
    "format_result",
    "format_table",
    "summarize_series",
    "ExperimentResult",
    "ExperimentRow",
    "average_throughput_mbps",
    "run_table1",
    "PAPER_WEIGHTS",
    "run_table2",
    "run_table3",
    "EXPERIMENT_REGISTRY",
]
