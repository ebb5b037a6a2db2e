"""Tests for the parallel experiment campaign engine.

The load-bearing guarantees:

* a task is a pure value — executing it serially, in a process pool, or
  loading it from the on-disk cache yields bit-identical results;
* task hashes are stable, label-independent and sensitive to everything
  that affects the simulation;
* per-cell seeds derive deterministically from grid coordinates.
"""

import json

import numpy as np
import pytest

from repro.experiments.campaign import (
    RESULT_SCHEMA_VERSION,
    CampaignExecutor,
    ResultCache,
    RunTask,
    SchemeSpec,
    TopologySpec,
    derive_seed,
    execute_batch,
    execute_task,
    fallback_reason,
    plan_batches,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.campaign import executor as executor_module
from repro.mac.schemes import REQUIRED, SCHEME_KINDS
from repro.phy.constants import PhyParameters

#: A valid value for each parameter a scheme kind requires.
_REQUIRED_VALUES = {"p": 0.1, "stage": 1, "p0": 0.5}


def _quick_task(seed=1, num_stations=4, duration=0.25, **overrides):
    defaults = dict(
        scheme=SchemeSpec.make("standard-802.11"),
        topology=TopologySpec.connected(num_stations),
        seed=seed,
        duration=duration,
        warmup=0.05,
        phy=PhyParameters(),
    )
    defaults.update(overrides)
    return RunTask(**defaults)


class TestSchemeSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec.make("carrier-pigeon")

    def test_params_are_order_independent(self):
        a = SchemeSpec.make("wtop-csma", update_period=0.05, initial_control=0.4)
        b = SchemeSpec.make("wtop-csma", initial_control=0.4, update_period=0.05)
        assert a == b

    def test_numpy_scalars_normalised(self):
        a = SchemeSpec.make("fixed-p", p=np.float64(0.02))
        b = SchemeSpec.make("fixed-p", p=0.02)
        assert a == b

    def test_adaptive_flag(self):
        assert SchemeSpec.make("idlesense").adaptive
        assert SchemeSpec.make("tora-csma").adaptive
        assert not SchemeSpec.make("standard-802.11").adaptive
        assert not SchemeSpec.make("fixed-p", p=0.1).adaptive

    def test_build_produces_fresh_schemes(self, phy):
        spec = SchemeSpec.make("wtop-csma", update_period=0.05)
        assert spec.build(phy).make_controller() is not spec.build(phy).make_controller()

    def test_build_with_weights(self, phy):
        spec = SchemeSpec.make("wtop-csma", weights=(1.0, 2.0), update_period=0.05)
        policies = spec.build(phy).make_policies(2)
        assert policies[0].weight != policies[1].weight

    def test_undeclared_parameter_rejected_when_the_spec_is_made(self):
        """A misspelled name fails here, not in a quarantined cell."""
        with pytest.raises(TypeError, match=r"takes no parameter\(s\) \['target_idle'\]"):
            SchemeSpec.make("idlesense", target_idle=4.0)
        with pytest.raises(TypeError, match="takes no parameter"):
            SchemeSpec.make("wtop-csma", initial_stage=1)
        with pytest.raises(TypeError, match="takes no parameter"):
            SchemeSpec.make("tora-csma", mapping="linear")
        with pytest.raises(TypeError, match="needs parameter"):
            SchemeSpec.make("fixed-randomreset", stage=1)

    @pytest.mark.parametrize("kind", sorted(SCHEME_KINDS))
    def test_every_kind_refuses_an_undeclared_parameter(self, kind):
        required = {name: _REQUIRED_VALUES[name]
                    for name, value in SCHEME_KINDS[kind].defaults.items()
                    if value is REQUIRED}
        with pytest.raises(TypeError, match=r"\['no_such_parameter'\]"):
            SchemeSpec.make(kind, no_such_parameter=1.0, **required)

    @pytest.mark.parametrize("kind", sorted(SCHEME_KINDS))
    def test_every_kind_accepts_each_declared_parameter(self, kind, phy):
        params = {name: _REQUIRED_VALUES.get(name, value)
                  for name, value in SCHEME_KINDS[kind].defaults.items()}
        spec = SchemeSpec.make(kind, **params)
        assert dict(spec.params) == params
        assert len(spec.build(phy).make_policies(2)) == 2

    @pytest.mark.parametrize("kind, given", [
        ("fixed-p", {}), ("fixed-randomreset", {"p0": 0.5})])
    def test_missing_required_parameter_rejected(self, kind, given):
        with pytest.raises(TypeError, match="needs parameter"):
            SchemeSpec.make(kind, **given)

    def test_controller_keywords_accepted_for_wtop_and_tora(self, phy):
        spec = SchemeSpec.make("wtop-csma", initial_k=3)
        assert spec.build(phy).make_controller() is not None
        spec = SchemeSpec.make("tora-csma", throughput_scale=1e6)
        assert spec.build(phy).make_controller() is not None


class TestTopologySpec:
    def test_connected_builds_fully_connected(self):
        assert TopologySpec.connected(6).build().is_fully_connected()

    def test_hidden_disc_is_seeded(self):
        a = TopologySpec.hidden_disc(15, 16.0, topology_seed=3).build()
        b = TopologySpec.hidden_disc(15, 16.0, topology_seed=3).build()
        assert a.hidden_pairs() == b.hidden_pairs()
        assert not a.is_fully_connected()

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="mesh", num_stations=4)
        with pytest.raises(ValueError):
            TopologySpec(kind="hidden-disc", num_stations=4, radius=16.0)
        with pytest.raises(ValueError):
            TopologySpec.connected(0)


class TestRunTask:
    def test_task_key_is_stable_and_label_independent(self):
        task = _quick_task()
        assert task.task_key() == _quick_task().task_key()
        assert task.with_label("renamed").task_key() == task.task_key()

    def test_task_key_sensitive_to_simulation_inputs(self):
        base = _quick_task()
        assert _quick_task(seed=2).task_key() != base.task_key()
        assert _quick_task(duration=0.3).task_key() != base.task_key()
        assert _quick_task(num_stations=5).task_key() != base.task_key()
        assert _quick_task(frame_error_rate=0.1).task_key() != base.task_key()
        assert (_quick_task(scheme=SchemeSpec.make("idlesense")).task_key()
                != base.task_key())

    def test_auto_simulator_resolution(self):
        assert _quick_task().resolved_simulator() == "slotted"
        hidden = _quick_task(
            num_stations=10,
            topology=TopologySpec.hidden_disc(10, 16.0, 1),
        )
        assert hidden.resolved_simulator() == "event"

    def test_slotted_rejected_on_hidden_topology(self):
        with pytest.raises(ValueError):
            _quick_task(
                topology=TopologySpec.hidden_disc(10, 16.0, 1),
                simulator="slotted",
            )

    @pytest.mark.parametrize("topology", [
        TopologySpec.connected(4), TopologySpec.hidden_disc(4, 16.0, 1),
        TopologySpec.two_cluster(2, 28.0, 1)])
    def test_explicit_batched_task_without_a_kernel_rejected(self, topology):
        """Refused when built, instead of degrading to a scalar simulator
        under another task key."""
        with pytest.raises(ValueError, match="unbatchable scheme 'n-estimating'"):
            RunTask(scheme=SchemeSpec.make("n-estimating"), topology=topology,
                    seed=1, duration=0.1, simulator="batched")

    @pytest.mark.parametrize("topology", [
        TopologySpec.connected(4), TopologySpec.hidden_disc(4, 16.0, 1),
        TopologySpec.two_cluster(2, 28.0, 1)])
    def test_explicit_batched_task_a_kernel_models_accepted(self, topology):
        task = _quick_task(topology=topology, simulator="batched")
        assert task.simulator == "batched"
        assert fallback_reason(task) is None

    def test_explicit_batched_hidden_task_with_activity_rejected(self):
        with pytest.raises(ValueError, match="activity schedule"):
            _quick_task(topology=TopologySpec.hidden_disc(4, 16.0, 1),
                        activity=((0.0, 2), (0.1, 4)), simulator="batched")

    def test_validation(self):
        with pytest.raises(ValueError):
            _quick_task(duration=0.0)
        with pytest.raises(ValueError):
            _quick_task(warmup=-1.0)
        with pytest.raises(ValueError):
            _quick_task(simulator="quantum")

    def test_to_json_round_trips_through_json(self):
        payload = json.dumps(_quick_task().to_json(), sort_keys=True)
        assert json.loads(payload)["seed"] == 1

    def test_short_weight_vector_rejected(self):
        """Every station needs a weight: a short vector is refused when the
        task is built, not left to fail its cell at run time."""
        def task(weights):
            return RunTask(
                scheme=SchemeSpec.make("fixed-p", p=0.05, weights=weights),
                topology=TopologySpec.connected(4), seed=1, duration=0.2,
            )

        with pytest.raises(ValueError, match="2 weights for a cell of 4"):
            task((1.0, 2.0))
        [result] = CampaignExecutor(jobs=1).run([task((1.0, 2.0, 1.0, 1.0))])
        assert result is not None


class TestExecuteTask:
    def test_result_annotated_with_task_identity(self):
        task = _quick_task().with_label("unit/label")
        result = execute_task(task)
        assert result.extra["task_key"] == task.task_key()
        assert result.extra["seed"] == task.seed
        assert result.extra["label"] == "unit/label"
        assert result.extra["simulator"] == "slotted"

    def test_idlesense_station_observed_idle_annotated(self, phy):
        task = _quick_task(
            scheme=SchemeSpec.make("idlesense"), duration=0.5, warmup=1.0,
        )
        result = execute_task(task)
        assert result.extra["station_observed_idle"] > 0

    def test_event_simulator_override_on_connected_topology(self):
        result = execute_task(_quick_task(simulator="event"))
        assert result.extra["simulator"] == "event-driven"
        assert result.total_throughput_bps > 0

    def test_activity_schedule_honoured(self):
        task = _quick_task(num_stations=4, activity=((0.0, 2), (0.15, 4)))
        result = execute_task(task)
        assert result.station_stats[0].payload_bits > result.station_stats[3].payload_bits


class TestDeterministicSeeding:
    def test_derive_seed_is_stable(self):
        assert derive_seed("camp", 7, "dcf", 10, 0) == derive_seed("camp", 7, "dcf", 10, 0)

    def test_derive_seed_distinguishes_components(self):
        seeds = {
            derive_seed("camp", 7, "dcf", n, rep)
            for n in (10, 20, 30)
            for rep in range(4)
        }
        assert len(seeds) == 12

    def test_derive_seed_fits_numpy(self):
        seed = derive_seed("x")
        np.random.default_rng(seed)  # must not raise
        assert 0 <= seed < 2 ** 63


class TestCampaignExecutorDeterminism:
    def test_parallel_results_bit_identical_to_serial(self):
        """Acceptance criterion: jobs=4 output equals jobs=1 output exactly."""
        schemes = {"dcf": SchemeSpec.make("standard-802.11"),
                   "fixed": SchemeSpec.make("fixed-p", p=0.05)}
        tasks = [
            RunTask(scheme=spec, topology=TopologySpec.connected(n),
                    seed=derive_seed("determinism", 11, label, n, rep),
                    duration=0.2, warmup=0.05)
            for label, spec in schemes.items()
            for n in (3, 5)
            for rep in range(2)
        ]
        serial = CampaignExecutor(jobs=1).run(tasks)
        parallel = CampaignExecutor(jobs=4).run(tasks)
        assert len(serial) == len(tasks)
        for left, right in zip(serial, parallel):
            assert left == right  # full SimulationResult equality, bit for bit

    def test_results_come_back_in_input_order(self):
        tasks = [_quick_task(seed=s) for s in (5, 3, 4)]
        results = CampaignExecutor(jobs=2).run(tasks)
        assert [r.extra["seed"] for r in results] == [5, 3, 4]

    def test_duplicate_tasks_simulated_once(self):
        executor = CampaignExecutor(jobs=1)
        results = executor.run([_quick_task(seed=1), _quick_task(seed=1)])
        assert executor.last_run_stats.executed == 1
        assert executor.last_run_stats.deduplicated == 1
        assert results[0] == results[1]


class TestBackendSelection:
    def test_auto_backend_batches_eligible_connected_tasks(self):
        events = []
        executor = CampaignExecutor(jobs=1, progress=events.append)
        [result] = executor.run([_quick_task()])
        assert result.extra["simulator"] == "batched"
        assert events[0].backend == "batched"
        assert executor.last_run_stats.batched_cells == 1

    def test_slotted_backend_keeps_scalar_behaviour(self):
        executor = CampaignExecutor(jobs=1, backend="slotted")
        [result] = executor.run([_quick_task()])
        assert result.extra["simulator"] == "slotted"
        assert executor.last_run_stats.batched_cells == 0

    def test_event_backend_forces_event_simulator(self):
        [result] = CampaignExecutor(jobs=1, backend="event").run([_quick_task()])
        assert result.extra["simulator"] == "event-driven"

    def test_explicit_simulator_choice_is_respected(self):
        [result] = CampaignExecutor(jobs=1).run(
            [_quick_task(simulator="slotted")]
        )
        assert result.extra["simulator"] == "slotted"

    def test_ineligible_scheme_falls_back_to_slotted(self):
        task = _quick_task(scheme=SchemeSpec.make("n-estimating"))
        assert fallback_reason(task)
        [result] = CampaignExecutor(jobs=1).run([task])
        assert result.extra["simulator"] == "slotted"

    def test_auto_backend_batches_eligible_hidden_tasks(self):
        task = _quick_task(
            num_stations=6, topology=TopologySpec.hidden_disc(6, 16.0, 1)
        )
        assert fallback_reason(task) is None
        executor = CampaignExecutor(jobs=1)
        [result] = executor.run([task])
        assert result.extra["simulator"] == "batched"
        assert result.extra["backend"] == "conflict-matrix"
        assert executor.last_run_stats.batched_cells == 1

    def test_hidden_tasks_with_activity_fall_back_to_event(self):
        task = _quick_task(
            num_stations=6,
            topology=TopologySpec.hidden_disc(6, 16.0, 1),
            activity=((0.0, 3), (0.1, 6)),
        )
        assert fallback_reason(task)
        [result] = CampaignExecutor(jobs=1).run([task])
        assert result.extra["simulator"] == "event-driven"

    def test_hidden_tasks_with_unbatchable_scheme_fall_back_to_event(self):
        task = _quick_task(
            num_stations=6,
            scheme=SchemeSpec.make("n-estimating"),
            topology=TopologySpec.hidden_disc(6, 16.0, 1),
        )
        assert fallback_reason(task)
        [result] = CampaignExecutor(jobs=1).run([task])
        assert result.extra["simulator"] == "event-driven"

    def test_slotted_backend_keeps_hidden_tasks_on_event_simulator(self):
        task = _quick_task(
            num_stations=6, topology=TopologySpec.hidden_disc(6, 16.0, 1)
        )
        [result] = CampaignExecutor(jobs=1, backend="slotted").run([task])
        assert result.extra["simulator"] == "event-driven"

    def test_plan_batches_never_mixes_topology_families(self):
        connected = [_quick_task(seed=s) for s in (1, 2)]
        hidden = [
            _quick_task(
                seed=s, num_stations=5,
                topology=TopologySpec.hidden_disc(5, 16.0, s),
            )
            for s in (1, 2)
        ]
        groups = plan_batches(connected + hidden)
        assert len(groups) == 2
        for group in groups:
            kinds = {task.topology.kind for task in group}
            assert len(kinds) == 1

    def test_hidden_batch_may_mix_topologies_and_station_counts(self):
        tasks = [
            _quick_task(
                seed=seed, num_stations=n,
                topology=TopologySpec.hidden_disc(n, radius, seed),
                simulator="batched",
            )
            for seed, n, radius in [(1, 4, 16.0), (2, 7, 20.0), (3, 5, 16.0)]
        ]
        [group] = plan_batches(tasks)
        assert len(group) == 3
        results = execute_batch(group)
        for task, result in zip(tasks, results):
            assert result.extra["task_key"] == task.task_key()
            assert result.extra["num_stations"] == task.topology.num_stations
            [alone] = execute_batch([task])
            extra = {k: v for k, v in alone.extra.items()}
            assert extra == dict(result.extra)
            assert alone == result

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            CampaignExecutor(backend="quantum")

    def test_backend_changes_cache_key_but_not_task(self):
        task = _quick_task()
        auto, auto_reason = CampaignExecutor(jobs=1)._resolve_backend(task)
        slotted, slotted_reason = CampaignExecutor(
            jobs=1, backend="slotted"
        )._resolve_backend(task)
        assert auto.task_key() != slotted.task_key()
        assert auto_reason is None and slotted_reason is None
        assert task.simulator == "auto"  # original untouched

    def test_plan_batches_groups_only_compatible_tasks(self):
        compatible = [_quick_task(seed=s) for s in (1, 2)]
        different_duration = _quick_task(seed=3, duration=0.5)
        different_scheme = _quick_task(
            seed=4, scheme=SchemeSpec.make("idlesense")
        )
        groups = plan_batches(compatible + [different_duration, different_scheme])
        assert sorted(len(g) for g in groups) == [1, 1, 2]

    def test_plan_batches_splits_groups_to_fill_workers(self):
        tasks = [_quick_task(seed=s) for s in range(8)]
        assert len(plan_batches(tasks)) == 1
        split = plan_batches(tasks, target_units=4)
        assert len(split) == 4
        assert sorted(t.seed for g in split for t in g) == list(range(8))
        # Can't split below one cell per unit.
        assert len(plan_batches(tasks[:2], target_units=8)) == 2

    def test_batched_results_identical_serial_vs_parallel(self):
        tasks = [_quick_task(seed=s, num_stations=n)
                 for s in (1, 2) for n in (3, 6)]
        serial = CampaignExecutor(jobs=1).run(tasks)
        parallel = CampaignExecutor(jobs=4).run(tasks)
        for left, right in zip(serial, parallel):
            assert left == right

    def test_batched_cells_round_trip_the_cache_bit_exactly(self, tmp_path):
        tasks = [_quick_task(seed=s) for s in (1, 2, 3)]
        cold = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        cold_results = cold.run(tasks)
        assert cold.last_run_stats.batched_cells == 3
        warm = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        warm_results = warm.run(tasks)
        assert warm.last_run_stats.cached == 3
        assert warm.last_run_stats.executed == 0
        assert warm_results == cold_results

    def test_execute_task_handles_batched_tasks(self):
        result = execute_task(_quick_task(simulator="batched"))
        assert result.extra["simulator"] == "batched"
        assert result.total_throughput_bps > 0

    def test_execute_batch_rejects_incompatible_groups(self):
        with pytest.raises(ValueError):
            execute_batch([
                _quick_task(simulator="batched"),
                _quick_task(simulator="batched", duration=0.5),
            ])

    def test_progress_events_report_rate_and_backend(self):
        events = []
        CampaignExecutor(jobs=1, progress=events.append).run(
            [_quick_task(seed=s) for s in (1, 2)]
        )
        assert all(e.backend == "batched" for e in events)
        assert events[-1].cells_per_s > 0


class TestCampaignCache:
    def test_cache_round_trip_is_exact(self, tmp_path):
        task = _quick_task(report_interval=0.1)
        result = execute_task(task)
        cache = ResultCache(tmp_path)
        cache.store(task, result)
        assert task.task_key() in cache
        assert cache.load(task.task_key()) == result

    def test_result_dict_round_trip(self):
        result = execute_task(_quick_task(report_interval=0.1))
        assert result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        ) == result

    def test_warm_cache_performs_zero_simulator_runs(self, tmp_path, monkeypatch):
        """Acceptance criterion: second invocation never touches a simulator."""
        tasks = [_quick_task(seed=s) for s in (1, 2, 3)]
        cold = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        cold_results = cold.run(tasks)
        assert cold.last_run_stats.executed == 3

        # Every unit of work, jobs=1 included, runs through _execute_unit;
        # record calls rather than raise, since a raise inside a unit is
        # absorbed by the retry and quarantine policy.
        units = []
        monkeypatch.setattr(executor_module, "_execute_unit",
                            lambda *args, **kwargs: units.append(args))
        warm = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        warm_results = warm.run(tasks)
        assert units == []
        assert warm.last_run_stats.executed == 0
        assert warm.last_run_stats.cached == 3
        assert warm_results == cold_results

    def test_corrupt_cache_entry_treated_as_miss(self, tmp_path):
        task = _quick_task()
        cache = ResultCache(tmp_path)
        cache.store(task, execute_task(task))
        cache.path_for(task.task_key()).write_text("{not json", encoding="utf-8")
        executor = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        executor.run([task])
        assert executor.last_run_stats.executed == 1

    def test_schema_version_mismatch_treated_as_miss(self, tmp_path):
        """Entries written by older code (wrong or missing result schema
        version) must be re-simulated, never deserialised into a campaign."""
        task = _quick_task()
        cache = ResultCache(tmp_path)
        cache.store(task, execute_task(task))
        path = cache.path_for(task.task_key())

        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        payload["schema_version"] = RESULT_SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(task.task_key()) is None

        del payload["schema_version"]  # entry predating the field entirely
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(task.task_key()) is None

        executor = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        executor.run([task])
        assert executor.last_run_stats.executed == 1

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        tasks = [_quick_task(seed=s) for s in (1, 2, 3, 4)]
        parallel = CampaignExecutor(jobs=4, cache_dir=tmp_path)
        first = parallel.run(tasks)
        serial = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        second = serial.run(tasks)
        assert serial.last_run_stats.cached == 4
        assert first == second

    def test_stats_accumulate_across_runs(self, tmp_path):
        executor = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        executor.run([_quick_task(seed=1)])
        executor.run([_quick_task(seed=1)])
        assert executor.stats.total == 2
        assert executor.stats.executed == 1
        assert executor.stats.cached == 1

    def test_progress_events_emitted(self, tmp_path):
        events = []
        executor = CampaignExecutor(
            jobs=1, cache_dir=tmp_path, progress=events.append
        )
        executor.run([_quick_task(seed=1), _quick_task(seed=2)])
        assert [e.source for e in events] == ["run", "run"]
        assert events[-1].completed == events[-1].total == 2
        events.clear()
        CampaignExecutor(jobs=1, cache_dir=tmp_path, progress=events.append).run(
            [_quick_task(seed=1)]
        )
        assert [e.source for e in events] == ["cache"]


class TestWarmCacheWithWorkers:
    def test_fully_cached_campaign_with_jobs_gt_1(self, tmp_path):
        """A 100% cache-served campaign must not touch the batch planner.

        Regression test: plan_batches([]) used to crash on the worker-split
        path (max() over an empty plan) whenever every cell of a jobs>1
        campaign was served from cache.
        """
        tasks = [_quick_task(seed=seed) for seed in (1, 2)]
        cold = CampaignExecutor(jobs=2, cache_dir=tmp_path)
        first = cold.run(tasks)
        warm = CampaignExecutor(jobs=2, cache_dir=tmp_path)
        second = warm.run(tasks)
        assert warm.last_run_stats.cached == 2
        assert warm.last_run_stats.executed == 0
        assert second == first

    def test_plan_batches_empty_input_with_target_units(self):
        assert plan_batches([], target_units=4) == []


class TestTrafficCampaignIntegration:
    """The arrival spec is a first-class, cacheable task dimension."""

    def _traffic_task(self, seed=1, **overrides):
        from repro.traffic import ArrivalProcess

        overrides.setdefault(
            "traffic", ArrivalProcess.poisson(800.0, queue_limit=8)
        )
        return _quick_task(seed=seed, duration=0.3, **overrides)

    def test_traffic_separates_batch_keys(self):
        from repro.experiments.campaign import batch_key
        from repro.traffic import ArrivalProcess

        saturated = _quick_task()
        poisson = self._traffic_task()
        cbr = self._traffic_task(traffic=ArrivalProcess.cbr(800.0))
        assert batch_key(saturated) != batch_key(poisson)
        assert batch_key(poisson) != batch_key(cbr)
        # plan_batches therefore never mixes workloads in one call.
        groups = plan_batches([saturated, poisson, cbr, poisson])
        assert sorted(len(g) for g in groups) == [1, 1, 2]

    def test_traffic_tasks_are_batch_eligible_on_both_families(self):
        from repro.traffic import ArrivalProcess

        assert fallback_reason(self._traffic_task()) is None
        hidden = self._traffic_task(
            topology=TopologySpec.hidden_disc(5, 16.0, 7),
        )
        assert fallback_reason(hidden) is None
        # ... but hidden + activity still falls back to the event simulator.
        churn = _quick_task(
            topology=TopologySpec.hidden_disc(5, 16.0, 7),
            traffic=ArrivalProcess.poisson(800.0),
            activity=((0.0, 2), (0.1, 3)),
        )
        assert fallback_reason(churn)

    def test_traffic_result_round_trips_the_cache_bit_exactly(self, tmp_path):
        task = self._traffic_task()
        cold = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        [first] = cold.run([task])
        warm = CampaignExecutor(jobs=1, cache_dir=tmp_path)
        [second] = warm.run([task])
        assert warm.last_run_stats.cached == 1
        assert second == first
        assert second.offered_frames > 0
        assert second.mean_queue_delay_s > 0.0

    def test_result_dict_round_trips_traffic_counters(self):
        result = execute_task(self._traffic_task())
        assert result.offered_frames > 0
        restored = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert restored == result

    def test_saturated_result_serialisation_is_unchanged(self):
        """Saturated payloads must not grow the new keys (old caches and
        new code agree on the exact same JSON)."""
        payload = result_to_dict(execute_task(_quick_task()))
        assert "offered_frames" not in payload
        assert "queue_delay_sum_s" not in payload

    def test_scalar_and_batched_execution_paths_annotate_traffic(self):
        task = self._traffic_task()
        scalar = execute_task(
            RunTask(**{**task.__dict__, "simulator": "slotted"})
        )
        assert scalar.extra["traffic"] == "poisson"
        [grouped] = execute_batch([
            RunTask(**{**task.__dict__, "simulator": "batched"})
        ])
        assert grouped.extra["traffic"] == "poisson"
        assert grouped.offered_frames > 0
