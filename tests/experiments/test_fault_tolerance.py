"""Fault-tolerance tests: injection harness, retries, recovery, degradation.

The load-bearing guarantee (the differential criterion): a campaign that
suffers injected worker crashes, hangs and poisoned tasks returns, for every
cell that is *not* quarantined, results bit-identical to an uninterrupted
fault-free campaign — on all four simulator backends.
"""

import pickle

import pytest

from repro.experiments.campaign import (
    CampaignExecutor,
    FailedTask,
    ResultCache,
    RunTask,
    SchemeSpec,
    TopologySpec,
)
from repro.experiments.campaign.executor import _MAX_BACKOFF_S
from repro.testing import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    tear_file,
)


def _task(seed=1, label="", num_stations=4, **overrides):
    defaults = dict(
        scheme=SchemeSpec.make("standard-802.11"),
        topology=TopologySpec.connected(num_stations),
        seed=seed,
        duration=0.25,
        warmup=0.05,
        label=label or f"cell-{seed}",
    )
    defaults.update(overrides)
    return RunTask(**defaults)


def _executor(tmp_path, sub, **overrides):
    defaults = dict(jobs=1, cache_dir=tmp_path / sub, task_retries=2,
                    retry_backoff_s=0.01)
    defaults.update(overrides)
    return CampaignExecutor(**defaults)


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("segfault")

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            FaultRule("error", times=0)

    def test_matches_by_key_prefix_and_label(self):
        rule = FaultRule("error", key_prefix="ab", label_contains="beta")
        assert rule.matches("abcdef", "the beta cell")
        assert not rule.matches("zzcdef", "the beta cell")
        assert not rule.matches("abcdef", "alpha")

    def test_empty_predicates_match_everything(self):
        assert FaultRule("error").matches("anykey", "any label")


class TestFaultPlan:
    def test_fires_limited_number_of_times(self, tmp_path):
        plan = FaultPlan([FaultRule("error", times=2)], state_dir=tmp_path)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.inject("k", "l", allow_exit=False)
        plan.inject("k", "l", allow_exit=False)  # exhausted: no-op
        assert plan.fired(0) == 2

    def test_claims_are_shared_across_pickled_copies(self, tmp_path):
        """Marker files make times= budgets global across worker processes."""
        plan = FaultPlan([FaultRule("error", times=1)], state_dir=tmp_path)
        clone = pickle.loads(pickle.dumps(plan))
        with pytest.raises(InjectedFault):
            clone.inject("k", "l", allow_exit=False)
        plan.inject("k", "l", allow_exit=False)  # already claimed by clone
        assert plan.fired(0) == 1

    def test_crash_without_exit_raises_injected_crash(self, tmp_path):
        plan = FaultPlan([FaultRule("crash")], state_dir=tmp_path)
        with pytest.raises(InjectedCrash):
            plan.inject("k", "l", allow_exit=False)

    def test_unlimited_rule_rejects_fired_count(self, tmp_path):
        plan = FaultPlan([FaultRule("error", times=None)], state_dir=tmp_path)
        with pytest.raises(ValueError):
            plan.fired(0)

    def test_write_kinds_do_not_fire_at_execute_time(self, tmp_path):
        plan = FaultPlan([FaultRule("torn-cache")], state_dir=tmp_path)
        plan.inject("k", "l", allow_exit=False)  # no-op: a write-time rule


class TestTearFile:
    def test_truncates_final_record_midway(self, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"c": 3}\n')
        tear_file(path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b'{"a": 1}'
        assert lines[1] == b'{"b": 2}'
        torn = lines[2]
        assert 0 < len(torn) < len(b'{"c": 3}')

    def test_single_record_file(self, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_text('{"only": "record"}\n')
        tear_file(path)
        data = path.read_bytes()
        assert 0 < len(data) < len(b'{"only": "record"}')


class TestRetries:
    def test_transient_error_is_retried_to_success(self, tmp_path):
        tasks = [_task(seed=s, simulator="slotted") for s in (1, 2)]
        reference = _executor(tmp_path, "ref").run(tasks)
        faults = FaultPlan([FaultRule("error", times=1)],
                           state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", faults=faults)
        results = executor.run(tasks)
        assert executor.stats.retries >= 1
        assert not executor.stats.failures
        assert results == reference

    def test_retry_budget_exhaustion_quarantines(self, tmp_path):
        tasks = [_task(seed=1, label="poisoned"), _task(seed=2, label="fine")]
        reference = _executor(tmp_path, "ref").run(tasks)
        faults = FaultPlan(
            [FaultRule("error", label_contains="poisoned", times=None)],
            state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", faults=faults)
        results = executor.run(tasks)
        assert results[0] is None
        assert results[1] == reference[1]
        [failed] = executor.stats.failures
        assert isinstance(failed, FailedTask)
        assert failed.label == "poisoned"
        assert failed.seed == 1
        assert "InjectedFault" in failed.error
        assert "InjectedFault" in failed.traceback
        assert failed.attempts >= executor.stats.retries
        assert "quarantined" in executor.stats.summary()

    def test_quarantine_does_not_abort_the_campaign(self, tmp_path):
        """A poisoned cell yields None in place, never an exception."""
        tasks = [_task(seed=s, label=f"s{s}") for s in (1, 2, 3)]
        faults = FaultPlan([FaultRule("error", label_contains="s2",
                                      times=None)],
                           state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", faults=faults)
        results = executor.run(tasks)
        assert [r is None for r in results] == [False, True, False]

    def test_backoff_is_deterministic_bounded_and_exponential(self, tmp_path):
        executor = _executor(tmp_path, "c", retry_backoff_s=0.1)
        key = "deadbeef" + "0" * 56
        first = executor._backoff_s(1, key)
        second = executor._backoff_s(2, key)
        assert first == executor._backoff_s(1, key)  # deterministic
        assert 0.05 <= first <= 0.15  # base 0.1 with jitter in [0.5, 1.5)
        assert second == pytest.approx(first * 2)
        assert executor._backoff_s(100, key) == _MAX_BACKOFF_S

    def test_retry_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignExecutor(task_retries=-1)
        with pytest.raises(ValueError):
            CampaignExecutor(task_timeout_s=0)
        with pytest.raises(ValueError):
            CampaignExecutor(retry_backoff_s=-0.5)


class TestCrashRecovery:
    def test_worker_crash_is_recovered_bit_identically(self, tmp_path):
        tasks = [_task(seed=s, simulator="slotted") for s in (1, 2, 3)]
        reference = _executor(tmp_path, "ref").run(tasks)
        faults = FaultPlan([FaultRule("crash", times=1)],
                           state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", jobs=2, faults=faults)
        results = executor.run(tasks)
        assert executor.stats.recoveries >= 1
        assert not executor.stats.failures
        assert results == reference

    def test_repeated_crashes_of_one_task_quarantine_it(self, tmp_path):
        tasks = [_task(seed=1, label="crasher", simulator="slotted"),
                 _task(seed=2, label="fine", simulator="slotted")]
        reference = _executor(tmp_path, "ref").run(tasks)
        faults = FaultPlan(
            [FaultRule("crash", label_contains="crasher", times=None)],
            state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", jobs=2, task_retries=1,
                             faults=faults)
        results = executor.run(tasks)
        assert results[0] is None
        assert results[1] == reference[1]
        [failed] = executor.stats.failures
        assert failed.label == "crasher"
        assert executor.stats.recoveries >= 1

    def test_serial_mode_treats_crash_as_failure_not_exit(self, tmp_path):
        """jobs=1 runs in-process: injected crashes must not kill pytest."""
        faults = FaultPlan([FaultRule("crash", times=1)],
                           state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", jobs=1, faults=faults)
        [result] = executor.run([_task(seed=1, simulator="slotted")])
        assert result is not None
        assert executor.stats.retries == 1


class TestHangTimeout:
    def test_hung_worker_is_reclaimed_and_retried(self, tmp_path):
        tasks = [_task(seed=s, simulator="slotted") for s in (1, 2)]
        reference = _executor(tmp_path, "ref").run(tasks)
        faults = FaultPlan([FaultRule("hang", times=1, hang_s=30.0)],
                           state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", jobs=2, task_timeout_s=1.5,
                             faults=faults)
        results = executor.run(tasks)
        assert executor.stats.timeouts >= 1
        assert executor.stats.recoveries >= 1
        assert not executor.stats.failures
        assert results == reference

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timeout_applies_even_to_a_single_unit(self, tmp_path, jobs):
        """One dispatchable unit must still run in a worker process when a
        timeout is set, at ``jobs=1`` too — an in-process call cannot be
        reclaimed when it hangs."""
        faults = FaultPlan([FaultRule("hang", times=1, hang_s=30.0)],
                           state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", jobs=jobs, task_timeout_s=1.5,
                             faults=faults)
        [result] = executor.run([_task(seed=1, simulator="slotted")])
        assert result is not None
        assert executor.stats.timeouts == 1


class TestBatchedDegradation:
    def test_failed_group_is_split_without_charging_batch_mates(self, tmp_path):
        """One poisoned cell cannot take down its batch-mates: the group is
        split into singleton *batched* units (bit-identical re-execution) and
        only the poisoned cell is quarantined."""
        tasks = [_task(seed=s, label=f"s{s}") for s in (1, 2, 3)]
        reference = _executor(tmp_path, "ref").run(tasks)
        assert all(r.extra["simulator"] == "batched" for r in reference)
        faults = FaultPlan(
            [FaultRule("error", label_contains="s2", times=None)],
            state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", task_retries=1, faults=faults)
        results = executor.run(tasks)
        assert executor.stats.degraded_groups >= 1
        assert results[0] == reference[0]
        assert results[2] == reference[2]
        assert results[1] is None
        [failed] = executor.stats.failures
        assert failed.label == "s2"
        assert "split" in executor.stats.summary()

    def test_poisoned_batched_cell_degrades_to_scalar(self, tmp_path):
        """When only the batched kernel is poisoned (key-prefix rule: the
        scalar twin has a different task key), the cell survives on the
        scalar backend and the fallback is named in stats and telemetry."""
        # Pin simulator="batched" so the input task key IS the executed key
        # (under "auto" the planner rewrites the task, changing its hash).
        tasks = [_task(seed=s, label=f"s{s}", simulator="batched")
                 for s in (1, 2)]
        poisoned = tasks[0]
        faults = FaultPlan(
            [FaultRule("error", key_prefix=poisoned.task_key()[:16],
                       times=None)],
            state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", task_retries=1, faults=faults)
        results = executor.run(tasks)
        assert not executor.stats.failures
        assert executor.stats.scalar_retries == 1
        assert results[0] is not None
        assert results[0].extra["simulator"] == "slotted"
        assert results[1] is not None
        assert "degraded to scalar" in executor.stats.summary()

    def test_degraded_result_is_the_scalar_backends_result(self, tmp_path):
        """The degraded cell's result equals a plain scalar execution of the
        same cell — degradation changes the backend, nothing else."""
        task = _task(seed=7, label="victim", simulator="batched")
        scalar_twin = task.scalar_equivalent()
        [scalar_reference] = _executor(tmp_path, "ref").run([scalar_twin])
        faults = FaultPlan(
            [FaultRule("error", key_prefix=task.task_key()[:16], times=None)],
            state_dir=tmp_path / "faults")
        executor = _executor(tmp_path, "c", task_retries=0, faults=faults)
        [result] = executor.run([task])
        assert result == scalar_reference

    def test_scalar_equivalent_targets_the_right_simulator(self):
        connected = _task(seed=1)
        assert connected.scalar_equivalent().resolved_simulator() == "slotted"
        hidden = _task(seed=1, num_stations=6,
                       topology=TopologySpec.hidden_disc(6, 16.0, 1))
        assert hidden.scalar_equivalent().resolved_simulator() == "event"


class TestTornWrites:
    def test_torn_cache_write_is_quarantined_on_reload(self, tmp_path):
        task = _task(seed=1)
        faults = FaultPlan([FaultRule("torn-cache", times=1)],
                           state_dir=tmp_path / "faults")
        cache_dir = tmp_path / "cache"
        first = _executor(tmp_path, "ignored", cache_dir=cache_dir,
                          faults=faults)
        [reference] = first.run([task])
        # The stored entry is torn; a fresh campaign must quarantine it,
        # re-simulate, and still produce the identical result.
        second = CampaignExecutor(jobs=1, cache_dir=cache_dir)
        [result] = second.run([task])
        assert result == reference
        assert second.stats.cache_corrupt == 1
        assert second.stats.cached == 0
        assert "corrupt" in second.stats.summary()
        corrupt = list(cache_dir.glob("*.corrupt"))
        assert len(corrupt) == 1


class TestCorruptCacheQuarantine:
    def test_invalid_json_entry_is_renamed_and_warned(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        task = _task(seed=1)
        path = cache.path_for(task.task_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        assert cache.load(task.task_key()) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert cache.corrupt_entries == 1
        assert "corrupt" in capsys.readouterr().err

    def test_malformed_payload_is_quarantined(self, tmp_path):
        import json
        cache = ResultCache(tmp_path / "cache")
        task = _task(seed=1)
        stored_path = cache.store(task, _executor(tmp_path, "x").run([task])[0])
        payload = json.loads(stored_path.read_text())
        payload["result"] = {"wrong": "shape"}
        stored_path.write_text(json.dumps(payload))
        assert cache.load(task.task_key()) is None
        assert cache.corrupt_entries == 1

    def test_quarantined_entries_do_not_count_as_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = _task(seed=1)
        path = cache.path_for(task.task_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("garbage")
        cache.load(task.task_key())
        assert len(cache) == 0

    def test_version_mismatch_is_a_silent_miss_not_corruption(self, tmp_path):
        """Stale schema versions are expected churn, not data damage."""
        cache = ResultCache(tmp_path / "cache")
        task = _task(seed=1)
        result = _executor(tmp_path, "x").run([task])[0]
        stored_path = cache.store(task, result)
        import json
        payload = json.loads(stored_path.read_text())
        payload["schema_version"] = -1
        stored_path.write_text(json.dumps(payload))
        assert cache.load(task.task_key()) is None
        assert cache.corrupt_entries == 0
        assert stored_path.exists()


class TestGracefulInterrupt:
    def test_serial_interrupt_reports_partial_results(self, tmp_path, capsys):
        """Ctrl-C mid-campaign: stats survive, journal keeps finished cells,
        and the KeyboardInterrupt propagates for the CLI to turn into 130."""
        calls = []

        def interrupt_after_first(event):
            calls.append(event)
            if len(calls) == 1:
                raise KeyboardInterrupt

        journal_path = tmp_path / "run.jsonl"
        executor = CampaignExecutor(jobs=1, cache_dir=tmp_path / "c",
                                    journal=journal_path,
                                    progress=interrupt_after_first)
        tasks = [_task(seed=s) for s in (1, 2, 3)]
        with pytest.raises(KeyboardInterrupt):
            executor.run(tasks)
        executor.close()
        assert executor.stats.executed == 1
        assert "interrupted" in capsys.readouterr().err
        # The journal holds the completed cell and resumes cleanly.
        resumed = CampaignExecutor(jobs=1, cache_dir=tmp_path / "c2",
                                   journal=journal_path)
        try:
            results = resumed.run(tasks)
        finally:
            resumed.close()
        assert all(r is not None for r in results)
        assert resumed.stats.journaled == 1


BACKEND_GRIDS = {
    "slotted": dict(simulator="slotted"),
    "event": dict(simulator="event"),
    "batched-renewal": dict(),  # connected + auto -> renewal-slot kernel
    "conflict-matrix": dict(num_stations=6),  # hidden + auto
}


@pytest.mark.parametrize("backend", sorted(BACKEND_GRIDS))
class TestDifferentialFaultSuite:
    """Acceptance criterion: crashed-and-recovered == uninterrupted, for
    every backend; the deliberately poisoned task is quarantined by name and
    every other cell is bit-identical to the fault-free campaign."""

    def _tasks(self, backend):
        overrides = dict(BACKEND_GRIDS[backend])
        tasks = []
        for seed in (1, 2, 3, 4):
            cell = dict(overrides)
            if backend == "conflict-matrix":
                n = cell.pop("num_stations")
                cell["num_stations"] = n
                cell["topology"] = TopologySpec.hidden_disc(n, 16.0, seed)
            tasks.append(_task(seed=seed, label=f"{backend}-s{seed}", **cell))
        return tasks

    def test_faulted_campaign_matches_fault_free(self, tmp_path, backend):
        tasks = self._tasks(backend)
        reference = _executor(tmp_path, "ref").run(tasks)
        faults = FaultPlan(
            [
                FaultRule("crash", label_contains="-s1", times=1),
                FaultRule("hang", label_contains="-s2", times=1, hang_s=30.0),
                FaultRule("error", label_contains="-s3", times=None),
            ],
            state_dir=tmp_path / "faults",
        )
        executor = _executor(tmp_path, "c", jobs=2, task_timeout_s=2.0,
                             faults=faults)
        results = executor.run(tasks)
        # The poisoned cell is quarantined by name...
        assert results[2] is None
        [failed] = executor.stats.failures
        assert failed.label == f"{backend}-s3"
        assert failed.reason in ("error", "crash", "timeout")
        # ...and every survivor is bit-identical to the fault-free run.
        for index in (0, 1, 3):
            assert results[index] == reference[index], (
                f"{backend}: cell {index} diverged after fault recovery")
        # The crash rebuilt the pool at least once.  (No assertion on
        # stats.timeouts: when the crash and the hang overlap in flight, the
        # crash-triggered rebuild kills the hung worker too — the hang is
        # then absorbed by recovery rather than the timeout path.  The
        # timeout path is covered deterministically in TestHangTimeout.)
        assert executor.stats.recoveries >= 1
