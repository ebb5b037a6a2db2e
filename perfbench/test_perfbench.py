"""Tests of the benchmark's own code: workloads, metric extraction, checks."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.experiments import CampaignExecutor, RunTask, SchemeSpec, TopologySpec
from repro.experiments.campaign.batching import fallback_reason, plan_batches
from repro.experiments.campaign.cache import result_to_dict
from repro.telemetry import Telemetry
from repro.traffic import ArrivalProcess

from perfbench import checks, layers, run, workloads


# ----------------------------------------------------------------------
# Workloads

@pytest.mark.parametrize("name, cells, units", [
    ("fig3-connected", 128, 4),
    ("fig6-7-hidden", 96, 4),
    ("load-sweep-pool", 48, 24),
])
def test_workload_shape_and_seeding(name, cells, units):
    tasks = workloads.WORKLOADS[name].build(7)
    assert len(tasks) == cells
    assert all(fallback_reason(task) is None for task in tasks)
    jobs = workloads.WORKLOADS[name].jobs
    planned = plan_batches(tasks, target_units=jobs if jobs > 1 else None)
    assert len(planned) == units
    assert [t.task_key() for t in workloads.WORKLOADS[name].build(7)] == [
        t.task_key() for t in tasks]
    other = {t.task_key() for t in workloads.WORKLOADS[name].build(8)}
    assert other.isdisjoint(t.task_key() for t in tasks)


def test_runner_and_benchmark_json_name_every_workload_and_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == tuple(workloads.WORKLOADS) == tuple(
        w["name"] for w in spec["workloads"])
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert run.LAYER_UNITS == {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = layers.layer_metrics(_synthetic_records(),
                                   _synthetic_profiles(), run_wall_s=2.1)
    assert set(run.LAYER_UNITS) == set(metrics) | {"trace.overhead_ratio"}


# ----------------------------------------------------------------------
# Per-layer metric extraction

SRC = "/checkout/src/repro"


def _synthetic_records():
    def task(key, group, execute_s, queue_wait_s):
        return {"type": "task", "key": key, "label": key, "source": "run",
                "backend": "batched", "group": group, "worker_pid": 11,
                "execute_s": execute_s, "queue_wait_s": queue_wait_s}

    return [
        {"type": "span", "name": "dispatch", "dur": 0.01,
         "args": {"mode": "parallel", "units": 2, "workers": 2}},
        {"type": "counters", "scope": "batched",
         "counters": {"loop_iterations": 100, "idle_fast_forwards": 40,
                      "busy_slots": 60, "idle_slots_advanced": 500,
                      "cells": 2}},
        task("a", 0, 1.0, 0.1),
        task("b", 0, 1.0, 0.1),
        {"type": "counters", "scope": "conflict",
         "counters": {"loop_iterations": 50, "frame_starts": 30,
                      "sense_recomputes": 20, "sense_product_ops": 2000}},
        task("c", 1, 1.5, 0.2),
        {"type": "span", "name": "execute", "dur": 2.0,
         "args": {"mode": "parallel", "workers": 2}},
    ]


def _synthetic_profiles():
    renewal = {
        (f"{SRC}/sim/batched.py", 10, "run"): (1, 1, 0.5, 0.85, {}),
        (f"{SRC}/mac/batched.py", 5, "draw"): (10, 10, 0.2, 0.2, {}),
        ("~", 0, "<built-in method numpy.zeros>"): (300, 300, 0.1, 0.1, {}),
        ("/site-packages/numpy/_core/fromnumeric.py", 9, "sum"):
            (100, 100, 0.05, 0.05, {}),
    }
    conflict = {
        (f"{SRC}/sim/conflict.py", 20, "run"): (1, 1, 0.8, 1.4, {}),
        (f"{SRC}/sim/batched.py", 30, "draw"): (5, 5, 0.1, 0.1, {}),
        (f"{SRC}/traffic/__init__.py", 3, "arrive"): (7, 7, 0.15, 0.15, {}),
        (f"{SRC}/topology/graph.py", 4, "sensing"): (2, 2, 0.05, 0.05, {}),
        ("~", 0, "<method 'sum' of 'numpy.ndarray' objects>"):
            (200, 200, 0.3, 0.3, {}),
        ("~", 0, "<built-in method builtins.len>"): (9, 9, 0.01, 0.01, {}),
    }
    return [renewal, conflict]


def test_layer_metrics_from_synthetic_records():
    metrics = layers.layer_metrics(_synthetic_records(),
                                   _synthetic_profiles(), run_wall_s=2.1)
    approx = pytest.approx
    assert metrics["campaign.units"] == 2
    assert metrics["campaign.cells_per_unit"] == approx(1.5)
    assert metrics["campaign.worker_util"] == approx(2.5 / (2 * 2.0))
    assert metrics["campaign.queue_wait_s"] == approx(0.3)
    assert metrics["campaign.overhead_s"] == approx(2.1 - 2.5 / 2)
    assert metrics["campaign.fallback_cells"] == 0
    assert metrics["sim.batched.loop_iterations"] == 100
    assert metrics["sim.batched.idle_slots_advanced"] == 500
    assert metrics["sim.batched.us_per_iteration"] == approx(0.85 / 100 * 1e6)
    assert metrics["sim.batched.numpy_calls_per_iteration"] == approx(4.0)
    assert metrics["sim.conflict.sense_product_ops"] == 2000
    assert metrics["sim.conflict.us_per_iteration"] == approx(1.41 / 50 * 1e6)
    assert metrics["sim.conflict.numpy_calls_per_iteration"] == approx(4.0)
    assert metrics["sim.batched.self_s"] == approx(0.6)
    assert metrics["sim.conflict.self_s"] == approx(0.8)
    assert metrics["mac.batched.self_s"] == approx(0.2)
    assert metrics["core.batched.self_s"] == 0.0
    assert metrics["traffic.self_s"] == approx(0.15)
    assert metrics["topology.self_s"] == approx(0.05)
    assert metrics["numpy.self_s"] == approx(0.45)


def test_layer_metrics_report_zero_for_a_kernel_that_did_not_run():
    records = [r for r in _synthetic_records() if r.get("scope") != "conflict"]
    metrics = layers.layer_metrics(records, _synthetic_profiles()[:1], 2.1)
    assert metrics["sim.conflict.loop_iterations"] == 0
    assert metrics["sim.conflict.us_per_iteration"] == 0.0
    assert metrics["sim.conflict.numpy_calls_per_iteration"] == 0.0


def _tiny_task(**overrides):
    fields = dict(scheme=SchemeSpec.make("standard-802.11"),
                  topology=TopologySpec.connected(5), seed=3,
                  duration=0.2, warmup=0.05,
                  traffic=ArrivalProcess.poisson(600.0, queue_limit=8))
    fields.update(overrides)
    return RunTask(**fields)


def _traced_run(backend):
    telemetry = Telemetry(keep_records=True)
    executor = CampaignExecutor(jobs=1, backend=backend, telemetry=telemetry,
                                profile=True)
    results = executor.run([_tiny_task()])
    return results, telemetry.records, executor


def test_layer_metrics_on_a_real_traced_run():
    _, records, executor = _traced_run("auto")
    metrics = layers.layer_metrics(records, executor.profile_stats, 0.5)
    assert metrics["campaign.units"] == 1
    assert metrics["campaign.fallback_cells"] == 0
    assert metrics["sim.batched.loop_iterations"] > 0
    assert metrics["sim.batched.numpy_calls_per_iteration"] > 0
    assert metrics["sim.batched.self_s"] > 0
    assert metrics["traffic.self_s"] > 0
    assert metrics["sim.conflict.loop_iterations"] == 0


# ----------------------------------------------------------------------
# Output checks, each against an injected defect

@pytest.fixture(scope="module")
def tiny():
    tasks = [_tiny_task(seed=seed) for seed in (3, 4)]
    return tasks, CampaignExecutor(jobs=1).run(tasks)


def test_clean_results_pass_every_check(tiny):
    tasks, results = tiny
    assert checks.check_finite(results) == []
    assert checks.check_frame_accounting(tasks, results) == []
    assert checks.check_no_fallback(0) == []


def test_nan_throughput_fails_the_finite_check(tiny):
    _, results = tiny
    broken = [dataclasses.replace(results[0], total_throughput_bps=math.nan),
              results[1]]
    [failure] = checks.check_finite(broken)
    assert (failure.check, failure.cells) == ("finite", 1)


def test_quarantined_cell_fails_the_completion_check(tiny):
    _, results = tiny
    [failure] = checks.check_finite([results[0], None])
    assert (failure.check, failure.cells) == ("completed", 1)


def test_frame_accounting_allows_exactly_one_backlog(tiny):
    tasks, results = tiny
    result = results[0]
    backlog = result.num_stations * tasks[0].traffic.queue_limit
    closed = (result.total_successes + result.dropped_frames
              + result.retry_discards)
    at_limit = dataclasses.replace(result, offered_frames=closed + backlog)
    assert checks.check_frame_accounting(tasks[:1], [at_limit]) == []
    beyond = dataclasses.replace(result, offered_frames=closed + backlog + 1)
    [failure] = checks.check_frame_accounting(tasks[:1], [beyond])
    assert (failure.check, failure.cells) == ("frame_accounting", 1)


def test_altered_result_fails_the_digest_check(tiny):
    _, results = tiny
    reference = checks.cell_digests([result_to_dict(r) for r in results])
    altered = [results[0], dataclasses.replace(
        results[1], total_throughput_bps=results[1].total_throughput_bps + 1)]
    digests = checks.cell_digests([result_to_dict(r) for r in altered])
    assert checks.results_digest(digests) != checks.results_digest(reference)
    [failure] = checks.check_digests(reference, digests)
    assert (failure.check, failure.cells) == ("digest", 1)
    assert checks.check_digests(reference, list(reference)) == []


def test_forced_scalar_fallback_fails_the_fallback_check():
    results, records, executor = _traced_run("slotted")
    stats = executor.last_run_stats
    fallback_cells = stats.executed - stats.batched_cells
    assert fallback_cells == 1
    metrics = layers.layer_metrics(records, executor.profile_stats, 0.5)
    assert metrics["campaign.fallback_cells"] == 1
    [failure] = checks.check_no_fallback(fallback_cells)
    assert (failure.check, failure.cells) == ("fallback", 1)


def test_bianchi_check_flags_a_station_count_off_the_closed_form():
    dcf = SchemeSpec.make("standard-802.11")
    tasks = [RunTask(scheme=dcf, topology=TopologySpec.connected(n),
                     seed=seed, duration=1.0)
             for n in (10, 20) for seed in (1, 2)]
    tasks.append(RunTask(scheme=dcf, seed=1, duration=1.0,
                         topology=TopologySpec.hidden_disc(10, 20.0, 1)))

    class Result:
        def __init__(self, bps):
            self.total_throughput_bps = bps

    results = [Result(bps) for bps in (99.0, 101.0, 80.0, 82.0, 10.0)]
    errors = checks.dcf_model_errors(tasks, results, lambda n: 100.0)
    assert errors[10] == (pytest.approx(0.0), 2)
    assert errors[20] == (pytest.approx(0.19), 2)
    [failure] = checks.check_bianchi(errors)
    assert (failure.check, failure.cells) == ("bianchi", 2)
    assert checks.check_bianchi(errors, tolerance=0.2) == []
