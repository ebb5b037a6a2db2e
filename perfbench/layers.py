"""Per-layer metrics from one traced campaign run.

Inputs are what the traced run collects through the executor's public
hooks: the telemetry records (spans, ``task`` and ``counters`` records)
and ``CampaignExecutor.profile_stats``, one cProfile stats mapping per
executed unit of work.  Layers are this repository's modules; a layer's
self time is the cProfile ``tottime`` of every function defined in it,
summed over all units.  cProfile does not see ufunc calls made through
operators or ufunc objects, so that array time counts as self time of
the calling layer, not of ``numpy``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["LAYER_FILES", "KERNELS", "layer_of", "is_numpy",
           "kernel_of_profile", "layer_metrics"]

#: Layer name -> path fragment of the source files that belong to it.
LAYER_FILES = {
    "campaign": "repro/experiments/campaign/",
    "sim.batched": "repro/sim/batched.py",
    "sim.conflict": "repro/sim/conflict.py",
    "mac.batched": "repro/mac/batched.py",
    "core.batched": "repro/core/batched.py",
    "traffic": "repro/traffic/",
    "topology": "repro/topology/",
}

#: Kernel layer -> telemetry counters scope, and the work counters kept.
KERNELS = {
    "sim.batched": ("batched", ("loop_iterations", "idle_fast_forwards",
                                "busy_slots", "idle_slots_advanced")),
    "sim.conflict": ("conflict", ("loop_iterations", "frame_starts",
                                  "sense_recomputes", "sense_product_ops")),
}

FuncKey = Tuple[str, int, str]


def _normalise(filename: str) -> str:
    return filename.replace("\\", "/")


def layer_of(func: FuncKey) -> Optional[str]:
    """The layer a profiled function belongs to (``None``: no layer)."""
    filename = _normalise(func[0])
    for layer, fragment in LAYER_FILES.items():
        if fragment in filename:
            return layer
    return None


def is_numpy(func: FuncKey) -> bool:
    """numpy's Python functions and the C functions cProfile names."""
    filename, _, name = func
    if filename == "~":
        return "numpy" in name
    return "/numpy/" in _normalise(filename)


def kernel_of_profile(stats: Mapping[FuncKey, Any]) -> Optional[str]:
    """Which kernel layer a unit ran: the one whose ``run`` was profiled."""
    for func in stats:
        layer = layer_of(func)
        if layer in KERNELS and func[2] == "run":
            return layer
    return None


def _units(records: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """One ``task`` record per executed unit (cells of a unit share one)."""
    units: Dict[Any, Mapping[str, Any]] = {}
    for record in records:
        if record.get("type") != "task" or record.get("source") != "run":
            continue
        group = record.get("group")
        key = ("group", group) if group is not None else ("cell",
                                                          record["key"])
        units.setdefault(key, record)
    return list(units.values())


def _span(records: Sequence[Mapping[str, Any]], name: str
          ) -> Optional[Mapping[str, Any]]:
    for record in records:
        if record.get("type") == "span" and record.get("name") == name:
            return record
    return None


def layer_metrics(records: Sequence[Mapping[str, Any]],
                  profiles: Sequence[Mapping[FuncKey, Any]],
                  run_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``run_wall_s`` is the wall time of ``CampaignExecutor.run``.  Timings
    come from the traced run itself, so they include cProfile's overhead.
    A kernel that did not run reports zeros.
    """
    tasks = [r for r in records
             if r.get("type") == "task" and r.get("source") == "run"]
    units = _units(records)
    dispatch = _span(records, "dispatch")
    execute = _span(records, "execute")
    workers = int(dispatch["args"].get("workers", 1)) if dispatch else 1
    unit_execute_s = sum(u.get("execute_s") or 0.0 for u in units)
    metrics: Dict[str, float] = {
        "campaign.units": len(units),
        "campaign.cells_per_unit": len(tasks) / len(units) if units else 0.0,
        "campaign.worker_util": (
            unit_execute_s / (workers * execute["dur"])
            if execute and execute["dur"] > 0 else 0.0),
        "campaign.queue_wait_s": sum(u.get("queue_wait_s") or 0.0
                                     for u in units),
        "campaign.overhead_s": run_wall_s - unit_execute_s / workers,
        "campaign.fallback_cells": sum(
            1 for r in records
            if r.get("type") == "task" and r.get("backend") != "batched"),
    }

    self_s = {layer: 0.0 for layer in LAYER_FILES}
    numpy_self_s = 0.0
    kernel_time = {layer: 0.0 for layer in KERNELS}
    kernel_numpy_calls = {layer: 0 for layer in KERNELS}
    for stats in profiles:
        kernel = kernel_of_profile(stats)
        for func, (_, ncalls, tottime, _, _) in stats.items():
            layer = layer_of(func)
            if layer is not None:
                self_s[layer] += tottime
            if is_numpy(func):
                numpy_self_s += tottime
                if kernel is not None:
                    kernel_numpy_calls[kernel] += ncalls
            if kernel is not None:
                kernel_time[kernel] += tottime

    for layer, (scope, names) in KERNELS.items():
        totals = {name: 0 for name in names}
        for record in records:
            if record.get("type") == "counters" and record.get("scope") == scope:
                for name in names:
                    totals[name] += record["counters"].get(name, 0)
        iterations = totals["loop_iterations"]
        for name, value in totals.items():
            metrics[f"{layer}.{name}"] = value
        metrics[f"{layer}.us_per_iteration"] = (
            kernel_time[layer] / iterations * 1e6 if iterations else 0.0)
        metrics[f"{layer}.numpy_calls_per_iteration"] = (
            kernel_numpy_calls[layer] / iterations if iterations else 0.0)
    for layer in ("sim.batched", "sim.conflict", "mac.batched",
                  "core.batched", "traffic", "topology"):
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["numpy.self_s"] = numpy_self_s
    return metrics
