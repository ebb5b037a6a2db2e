"""Smoke and shape tests for the per-figure experiment runners.

These use deliberately tiny budgets: they verify wiring, output structure and
the cheap qualitative properties, not the paper's quantitative shapes (the
benchmark harness does that with bigger budgets).
"""

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENT_REGISTRY,
    QUICK,
    format_result,
    run_fig12,
    run_fig13,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig8_9,
    run_table1,
    run_table2,
)
from repro.experiments.campaign import RunTask, SchemeSpec, TopologySpec, execute_task
from repro.experiments.runner import (
    average_throughput_mbps,
    connected_task,
    paper_scheme_specs,
    submit,
)
from test_figure_digests import StubExecutor


class TestRunnerHelpers:
    def test_paper_scheme_specs_cover_four_schemes(self, tiny_config):
        specs = paper_scheme_specs(tiny_config)
        assert set(specs) == {
            "Standard 802.11", "IdleSense", "wTOP-CSMA", "TORA-CSMA"
        }
        for name in ("wTOP-CSMA", "TORA-CSMA"):
            assert dict(specs[name].params) == {
                "update_period": tiny_config.update_period
            }

    def test_average_throughput(self, tiny_config, phy):
        spec = paper_scheme_specs(tiny_config)["Standard 802.11"]
        results = [
            execute_task(connected_task(spec, 5, tiny_config, seed=s, phy=phy))
            for s in (1, 2)
        ]
        avg = average_throughput_mbps(results)
        assert min(r.total_throughput_mbps for r in results) <= avg
        assert avg <= max(r.total_throughput_mbps for r in results)
        with pytest.raises(ValueError):
            average_throughput_mbps([])

    def test_submit_makes_one_run_call_and_groups_by_key(self):
        calls = []

        class Recorder:
            def run(self, tasks):
                calls.append(list(tasks))
                return [task.seed for task in tasks]

        tasks = [
            RunTask(scheme=SchemeSpec.make("standard-802.11"),
                    topology=TopologySpec.connected(2), seed=seed, duration=1.0)
            for seed in (1, 2, 3)
        ]
        grouped = submit(zip(("a", "b", "a"), tasks), Recorder())
        assert grouped == {"a": [1, 3], "b": [2]}
        assert calls == [tasks]
        # A runner with nothing to simulate still makes its one call.
        assert submit([], Recorder()) == {}
        assert calls[-1] == []


class TestAnalyticalRunners:
    def test_table1_lists_parameters(self):
        result = run_table1()
        labels = result.row_labels()
        assert "CWmin" in labels and "Bit Rate" in labels
        assert "Ts (us)" in result.metadata

    def test_fig12_fixed_points_monotone_in_p0(self):
        result = run_fig12()
        fixed_points = result.metadata["fixed_point_tau"]
        values = [fixed_points[f"p0={p:g}"] for p in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert values == sorted(values)

    def test_fig12_tau_columns_decreasing_in_c(self):
        result = run_fig12()
        column = result.column("tau_c(p0=0.4)")
        assert column == sorted(column, reverse=True)

    def test_fig2_analytic_only_is_quasiconcave(self, tiny_config):
        result = run_fig2(tiny_config, simulate=False, node_counts=(20,))
        assert result.metadata["quasi_concave"]["analytic N=20"] is True
        curve = result.column("analytic N=20")
        assert max(curve) > curve[0] and max(curve) > curve[-1]

    def test_fig13_analytic_only_flat_top(self, tiny_config):
        result = run_fig13(tiny_config, simulate=False, node_counts=(20,),
                           reset_probabilities=(0.0, 0.25, 0.5, 0.75, 1.0))
        assert result.metadata["quasi_concave"]["analytic N=20"] is True


class TestSweepArguments:
    GRID = np.exp(np.linspace(-8.0, -3.0, 5))

    def test_fig2_takes_a_numpy_probability_grid(self):
        from_array = run_fig2(QUICK, probabilities=self.GRID, simulate=False)
        from_tuple = run_fig2(QUICK, probabilities=tuple(self.GRID), simulate=False)
        assert from_array.rows == from_tuple.rows
        assert from_array.metadata == from_tuple.metadata

    def test_fig4_takes_a_numpy_probability_grid(self):
        runs = []
        for probabilities in (self.GRID, tuple(self.GRID)):
            executor = StubExecutor()
            result = run_fig4(QUICK, probabilities=probabilities, executor=executor)
            runs.append((executor.submitted, result.rows, result.metadata))
        assert runs[0] == runs[1]

    def test_p0_sweeps_describe_their_stage(self):
        fig13 = run_fig13(QUICK, stage=2, simulate=False)
        fig5 = run_fig5(QUICK, stage=2, executor=StubExecutor())
        assert "RandomReset(2; p0)" in fig13.description
        assert "(j=2)" in fig5.description
        assert fig13.metadata["stage"] == fig5.metadata["stage"] == 2


class TestSimulationRunners:
    def test_fig3_shape_with_tiny_budget(self, tiny_config, phy):
        config = tiny_config.evolve(node_counts=(5, 10), adaptive_warmup=2.0)
        result = run_fig3(config, phy=phy)
        assert result.row_labels() == ["N=5", "N=10"]
        text = format_result(result)
        assert "Figure 3" in text
        # 802.11 should not beat the analytic optimum.
        for row in result.rows:
            assert row.values["Standard 802.11"] <= row.values["Analytic optimum"] * 1.1

    def test_table2_normalized_throughput_consistent(self, tiny_config, phy):
        config = tiny_config.evolve(adaptive_warmup=3.0, measure_duration=1.0)
        result = run_table2(config, phy=phy, weights=(1, 1, 2, 2), seed=1)
        assert len(result.rows) == 4
        assert result.metadata["jain_index_normalized"] > 0.8
        for row in result.rows:
            expected = row.values["throughput (Mbps)"] / row.values["weight"]
            assert row.values["normalized (Mbps)"] == pytest.approx(expected, rel=1e-6)

    def test_fig8_9_timeline_tracks_station_steps(self, tiny_config, phy):
        config = tiny_config.evolve(dynamic_segment_duration=0.5, report_interval=0.1)
        result = run_fig8_9(config, phy=phy, include_hidden=False, seed=1)
        assert len(result.rows) > 5
        counts = result.column("active stations")
        assert min(counts) >= 10 and max(counts) <= 60
        throughputs = result.column("throughput (no hidden)")
        assert all(t >= 0 for t in throughputs)

    def test_registry_contains_all_seventeen_experiments(self):
        assert set(EXPERIMENT_REGISTRY) == {
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig8_9", "fig10_11", "fig12", "fig13", "table2", "table3",
            "fig_load_sweep", "fig_fct_sweep", "fig_stability_atlas",
        }
