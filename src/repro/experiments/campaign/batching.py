"""Batch planning: group compatible campaign tasks into vectorized calls.

Two vectorized backends exist, selected by a task's topology family:

* :mod:`repro.sim.batched` advances many *fully connected* cells at once as
  a renewal-slot process; cells in one batch share everything except station
  count and seed.
* :mod:`repro.sim.conflict` advances many *arbitrary sensing-graph* cells
  (the hidden-node figures) at once, carrying a per-cell conflict/sensing
  matrix; cells in one batch share everything except station count,
  topology and seed.

This module decides which tasks qualify (:func:`batch_eligible`), groups
them (:func:`plan_batches` — the grouping key includes the topology family
so the two backends never mix inside one call) and executes one group as a
single vectorized run (:func:`execute_batch`), annotating each cell's
result with :func:`annotate` exactly like
:func:`~repro.experiments.campaign.executor.execute_task` does.

Because per-cell results are independent of batch composition (each cell
consumes its own seeded random stream — see :mod:`repro.sim.batched`),
grouping is purely a performance decision: any partition of the same tasks
produces bit-identical per-cell results, so caching, deduplication and
process-level parallelism all compose with batching.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ...sim.batched import batchable_scheme, run_batched
from ...sim.conflict import run_conflict
from ...sim.dynamics import step_activity
from ...sim.metrics import SimulationResult
from .specs import RunTask

__all__ = [
    "batch_eligible",
    "fallback_reason",
    "degraded_reason",
    "batch_key",
    "topology_fingerprint",
    "plan_batches",
    "execute_batch",
    "annotate",
]


def topology_fingerprint(task: RunTask) -> str:
    """The batching dimension a task's topology contributes.

    ``"connected"`` tasks run on the renewal-slot backend (the topology is
    fully described by the station count, which batches pad over);
    ``"graph"`` tasks run on the conflict-matrix backend (each cell carries
    its own sensing matrix, so topologies may differ freely inside one
    batch).  The fingerprint is part of :func:`batch_key` so one vectorized
    call never mixes backends.
    """
    return "connected" if task.topology.kind == "connected" else "graph"


def fallback_reason(task: RunTask) -> Optional[str]:
    """Why a task has no batched kernel (``None`` when it is eligible).

    This is the single source of truth for batch eligibility, phrased as a
    diagnosis: the executor surfaces the reason when an ``auto`` hidden-node
    task silently degrades from the conflict-matrix backend to the (3x
    slower) event-driven simulator, and telemetry attaches it to the task's
    trace record.  It is a pure function of the task (never of its
    neighbours), so backend resolution stays deterministic and cache keys
    stable across campaigns that submit different task mixes.
    """
    params = dict(task.scheme.params)
    if not batchable_scheme(task.scheme.kind, params):
        return f"unbatchable scheme '{task.scheme.kind}'"
    weights = params.get("weights")
    if weights is not None and len(weights) < task.topology.num_stations:
        return "unbatchable scheme (weight vector shorter than the cell)"
    if task.topology.kind == "connected":
        return None
    if task.topology.kind in ("hidden-disc", "two-cluster"):
        if task.activity is not None:
            return ("activity schedule (the conflict-matrix backend models "
                    "static populations only)")
        return None
    return f"topology kind '{task.topology.kind}' has no batched kernel"


def degraded_reason(kind: str, target: str) -> str:
    """Fallback-style diagnosis for a cell re-dispatched after batch failure.

    Companion of :func:`fallback_reason` for the *runtime* degradation path:
    when a batched cell exhausts its retry budget (worker crash, hang or
    exception), the fault-tolerant executor gives it one final attempt on
    its scalar oracle simulator and names the degradation with this string
    in the same places planner fallbacks appear (stderr warning, trace
    record ``fallback_reason``).
    """
    return (f"batched kernel failed repeatedly ({kind}); cell re-dispatched "
            f"on the scalar '{target}' simulator")


def batch_eligible(task: RunTask) -> bool:
    """Whether this task can execute on a batched backend.

    Connected tasks need a batched scheme kernel; hidden-node tasks
    additionally must not use an activity schedule (the conflict-matrix
    backend does not model dynamic populations — those cells fall back to
    the event-driven simulator).  See :func:`fallback_reason` for the
    diagnosis behind a ``False``.
    """
    return fallback_reason(task) is None


def batch_key(task: RunTask) -> Tuple:
    """Grouping key: everything a batch must share (not N, seed, topology).

    The topology contributes only its :func:`fingerprint
    <topology_fingerprint>`: connected batches pad over station counts,
    conflict-matrix batches carry per-cell sensing matrices, so the concrete
    placement never needs to be shared.
    """
    return (
        topology_fingerprint(task),
        task.scheme,
        task.phy,
        task.duration,
        task.warmup,
        task.frame_error_rate,
        task.report_interval,
        task.activity,
        task.traffic,
    )


def plan_batches(tasks: Sequence[RunTask],
                 target_units: Optional[int] = None) -> List[List[RunTask]]:
    """Partition tasks into compatible groups, preserving first-seen order.

    When ``target_units`` is given (the executor passes its worker count),
    the largest groups are split in half until at least that many independent
    units of work exist (or every group is a single cell), so process-level
    parallelism is not capped at the number of distinct batch keys.  Splitting
    is invisible in the per-cell results because cells are composition
    independent.
    """
    groups: Dict[Tuple, List[RunTask]] = {}
    for task in tasks:
        groups.setdefault(batch_key(task), []).append(task)
    planned = list(groups.values())
    # An empty plan stays empty (a fully cache-served campaign has nothing
    # to split across workers).
    if target_units is not None and planned:
        while len(planned) < target_units:
            largest = max(range(len(planned)), key=lambda i: len(planned[i]))
            group = planned[largest]
            if len(group) < 2:
                break
            middle = len(group) // 2
            planned[largest:largest + 1] = [group[:middle], group[middle:]]
    return planned


def execute_batch(tasks: Sequence[RunTask]) -> List[SimulationResult]:
    """Run one compatible group through its vectorized backend (pure).

    Results come back in task order, each annotated with the task key, seed
    and label exactly as :func:`execute_task` annotates scalar runs, so the
    two execution paths are interchangeable for callers and for the cache.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    key = batch_key(tasks[0])
    for task in tasks[1:]:
        if batch_key(task) != key:
            raise ValueError("tasks in a batch must share a batch_key")
    first = tasks[0]
    seeds = [task.seed for task in tasks]
    shared = dict(
        duration=first.duration,
        warmup=first.warmup,
        phy=first.phy,
        frame_error_rate=first.frame_error_rate,
        report_interval=first.report_interval,
        traffic=first.traffic,
    )
    if topology_fingerprint(first) == "connected":
        results = run_batched(
            first.scheme.kind, first.scheme.params,
            [task.topology.num_stations for task in tasks], seeds,
            activity=step_activity(first.activity) if first.activity else None,
            **shared,
        )
    else:
        results = run_conflict(
            first.scheme.kind, first.scheme.params,
            (task.topology.build() for task in tasks), seeds, **shared,
        )
    return [annotate(task, result) for task, result in zip(tasks, results)]


def annotate(task: RunTask, result: SimulationResult) -> SimulationResult:
    """``result`` with the task key, seed and (when set) label in ``extra``.

    Every backend's result passes through here, so a cell reads the same
    wherever it ran.  The returned ``extra`` is a fresh mapping.
    """
    extra = dict(result.extra, task_key=task.task_key(), seed=task.seed)
    if task.label:
        extra["label"] = task.label
    return dataclasses.replace(result, extra=extra)
