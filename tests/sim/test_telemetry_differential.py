"""Telemetry must observe, never perturb: counters and bit-identity.

Two contracts, per simulator backend (scalar slotted, scalar event-driven,
batched renewal-slot, batched conflict-matrix):

1. With a collector active, one ``counters`` record per ``run()`` appears
   under the backend's scope with the loop-level counters the trace report
   documents.
2. Results are **bit-identical** with telemetry enabled, disabled, or
   absent — the instrumentation never touches a random stream or simulator
   state.  A Hypothesis sweep hunts for (scheme, N, seed) corners where an
   instrumented branch could diverge.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.campaign import (
    ArrivalProcess,
    RunTask,
    SchemeSpec,
    TopologySpec,
)
from repro.experiments.campaign.batching import execute_batch
from repro.experiments.campaign.executor import execute_task
from repro.telemetry import Telemetry, session


def connected_task(simulator, *, kind="standard-802.11", num_stations=5,
                   seed=3, **params):
    return RunTask(
        scheme=SchemeSpec.make(kind, **params),
        topology=TopologySpec.connected(num_stations),
        seed=seed, duration=0.2, warmup=0.1, simulator=simulator,
    )


def hidden_task(simulator, *, num_stations=6, seed=3):
    return RunTask(
        scheme=SchemeSpec.make("standard-802.11"),
        topology=TopologySpec.hidden_disc(num_stations, 16.0, 1),
        seed=seed, duration=0.2, warmup=0.1, simulator=simulator,
    )


def run_with_telemetry(task):
    """Execute a task with a fresh collector; returns (result, records)."""
    tel = Telemetry()
    with session(tel):
        if task.resolved_simulator() == "batched":
            [result] = execute_batch([task])
        else:
            result = execute_task(task)
    return result, tel.records


BACKEND_TASKS = {
    "slotted": connected_task("slotted"),
    "event": hidden_task("event"),
    "batched": connected_task("batched"),
    "conflict": hidden_task("batched"),
}

EXPECTED_COUNTERS = {
    "slotted": {"virtual_slots", "idle_fast_forwards", "busy_slots",
                "num_stations"},
    "event": {"events_processed", "events_cancelled", "heap_compactions",
              "events_pending_at_end", "num_stations"},
    "batched": {"loop_iterations", "idle_fast_forwards",
                "idle_slots_advanced", "busy_slots", "cells", "max_stations"},
    "conflict": {"loop_iterations", "frame_starts", "frame_ends",
                 "sense_recomputes", "sense_product_ops", "cells",
                 "max_stations"},
}


class TestCountersPerBackend:
    @pytest.mark.parametrize("scope", sorted(BACKEND_TASKS))
    def test_one_counters_record_with_documented_names(self, scope):
        _, records = run_with_telemetry(BACKEND_TASKS[scope])
        matching = [r for r in records
                    if r["type"] == "counters" and r["scope"] == scope]
        assert len(matching) == 1, f"expected one '{scope}' counters record"
        counters = matching[0]["counters"]
        assert EXPECTED_COUNTERS[scope] <= set(counters)
        assert all(isinstance(v, int) for v in counters.values())

    def test_slotted_counters_describe_real_work(self):
        _, records = run_with_telemetry(BACKEND_TASKS["slotted"])
        [record] = [r for r in records if r["type"] == "counters"]
        counters = record["counters"]
        assert counters["num_stations"] == 5
        assert counters["busy_slots"] > 0
        assert counters["virtual_slots"] >= counters["busy_slots"]

    def test_event_counters_describe_real_work(self):
        _, records = run_with_telemetry(BACKEND_TASKS["event"])
        [record] = [r for r in records if r["type"] == "counters"]
        assert record["counters"]["events_processed"] > 0

    def test_conflict_product_ops_scale_with_recomputes(self):
        _, records = run_with_telemetry(BACKEND_TASKS["conflict"])
        [record] = [r for r in records if r["type"] == "counters"]
        counters = record["counters"]
        assert counters["frame_starts"] > 0
        n = counters["max_stations"]
        assert counters["sense_product_ops"] == \
            counters["sense_recomputes"] * counters["cells"] * n * n

    def test_no_records_without_a_session(self):
        tel = Telemetry()
        execute_task(BACKEND_TASKS["slotted"])  # no session() activation
        assert tel.records == []

    def test_one_record_per_cell_in_a_batch(self):
        tasks = [connected_task("batched", num_stations=n) for n in (3, 5)]
        tel = Telemetry()
        with session(tel):
            execute_batch(tasks)
        # One vectorized call sweeps both cells: one counters record.
        scopes = [r["scope"] for r in tel.records if r["type"] == "counters"]
        assert scopes == ["batched"]
        [record] = [r for r in tel.records if r["type"] == "counters"]
        assert record["counters"]["cells"] == 2


class TestBitIdentity:
    @pytest.mark.parametrize("scope", sorted(BACKEND_TASKS))
    def test_results_identical_with_and_without_telemetry(self, scope):
        task = BACKEND_TASKS[scope]
        if task.resolved_simulator() == "batched":
            [plain] = execute_batch([task])
        else:
            plain = execute_task(task)
        traced, records = run_with_telemetry(task)
        assert any(r["type"] == "counters" for r in records)
        assert traced == plain

    @pytest.mark.parametrize("scope", sorted(BACKEND_TASKS))
    def test_task_key_ignores_telemetry(self, scope):
        task = BACKEND_TASKS[scope]
        with session(Telemetry()):
            key = task.task_key()
        assert key == task.task_key()

    def test_retry_limited_discards_are_counted_and_identical(self):
        task = dataclasses.replace(
            connected_task("slotted", num_stations=8, seed=1),
            traffic=ArrivalProcess.saturated(retry_limit=1),
        )
        traced, records = run_with_telemetry(task)
        [record] = [r for r in records if r["type"] == "counters"]
        assert record["counters"]["retry_discards"] > 0
        assert traced == execute_task(task)


SCHEMES = ["standard-802.11", "idlesense", "fixed-p"]


class TestBitIdentityProperty:
    @given(
        kind=st.sampled_from(SCHEMES),
        num_stations=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
        simulator=st.sampled_from(["slotted", "event", "batched"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_connected_results_do_not_depend_on_telemetry(
        self, kind, num_stations, seed, simulator
    ):
        params = {"p": 0.05} if kind == "fixed-p" else {}
        task = RunTask(
            scheme=SchemeSpec.make(kind, **params),
            topology=TopologySpec.connected(num_stations),
            seed=seed, duration=0.15, warmup=0.05, simulator=simulator,
        )
        if task.resolved_simulator() == "batched":
            [plain] = execute_batch([task])
        else:
            plain = execute_task(task)
        traced, _ = run_with_telemetry(task)
        assert traced == plain

    @given(
        num_stations=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_hidden_results_do_not_depend_on_telemetry(self, num_stations,
                                                       seed):
        task = hidden_task("batched", num_stations=num_stations, seed=seed)
        [plain] = execute_batch([task])
        traced, _ = run_with_telemetry(task)
        assert traced == plain
