"""Acceptance tests for the fig_stability_atlas experiment.

The headline requirement: the atlas must reproduce the documented IdleSense
hidden-terminal livelock (seeds 1 and 5 of the two-cluster scenario pinned
by ``tests/sim/test_simulation.py``) as a classified livelock region.  The
grid is trimmed to that corner so the test stays fast; the full sweep runs
through the same code path.
"""

import pytest

from repro.experiments import EXPERIMENT_REGISTRY, QUICK, run_fig_stability_atlas
from repro.experiments.campaign import (
    CampaignExecutor,
    RunTask,
    SchemeSpec,
    TopologySpec,
)


class TestTwoClusterSpec:
    def test_builds_hidden_geometry_above_sense_range(self):
        graph = TopologySpec.two_cluster(3, 28.0, 0, spread=0.5).build()
        assert len(graph.hidden_pairs()) > 0

    def test_builds_coordinated_geometry_below_sense_range(self):
        graph = TopologySpec.two_cluster(3, 20.0, 0, spread=0.5).build()
        assert len(graph.hidden_pairs()) == 0

    def test_station_count_and_determinism(self):
        spec = TopologySpec.two_cluster(3, 28.0, 0)
        assert spec.num_stations == 6
        first = spec.build().sensing_matrix()
        second = spec.build().sensing_matrix()
        assert (first == second).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="two-cluster", num_stations=5,
                         separation=28.0, topology_seed=0, spread=0.5)
        with pytest.raises(ValueError):
            TopologySpec.two_cluster(3, 0.0, 0)
        with pytest.raises(ValueError):
            TopologySpec(kind="two-cluster", num_stations=6,
                         separation=28.0, topology_seed=None, spread=0.5)

    def test_json_round_trip_distinguishes_separations(self):
        near = TopologySpec.two_cluster(3, 20.0, 0, spread=0.5)
        far = TopologySpec.two_cluster(3, 28.0, 0, spread=0.5)
        assert near.to_json() != far.to_json()
        assert near.to_json()["kind"] == "two-cluster"

    def test_batched_conflict_backend_accepts_two_cluster(self):
        task = RunTask(
            scheme=SchemeSpec.make("idlesense"),
            topology=TopologySpec.two_cluster(2, 28.0, 0),
            seed=1, duration=0.2, warmup=0.1,
        )
        executor = CampaignExecutor(jobs=1, backend="auto")
        [result] = executor.run([task])
        assert result is not None
        assert executor.last_run_stats.batched_cells == 1
        assert executor.last_run_stats.fallbacks == 0


class TestStabilityAtlas:
    @pytest.fixture(scope="class")
    def livelock_corner(self):
        # IdleSense, hidden separation, saturated, the two documented
        # livelock seeds only: the smallest grid containing the basin.
        return run_fig_stability_atlas(
            QUICK.evolve(seeds=(1, 5)),
            executor=CampaignExecutor(jobs=1, backend="auto"),
            separations=(28.0,),
            loads=(None,),
            schemes={"IdleSense": SchemeSpec.make("idlesense")},
        )

    def test_registered(self):
        assert EXPERIMENT_REGISTRY["fig_stability_atlas"] is run_fig_stability_atlas

    def test_documented_livelock_seeds_classify_as_livelock(self, livelock_corner):
        [row] = livelock_corner.rows
        assert row.label == "IdleSense/sep=28/sat"
        assert row.values["classification"] == "livelock"
        assert row.values["livelock frac"] == 1.0
        assert row.values["Mbps"] < 1.0

    def test_livelock_metadata_names_the_seeds(self, livelock_corner):
        assert livelock_corner.metadata["livelock"] == {
            "IdleSense/sep=28/sat": (1, 5),
        }

    def test_coordinated_separation_does_not_livelock(self):
        result = run_fig_stability_atlas(
            QUICK.evolve(seeds=(1, 5)),
            executor=CampaignExecutor(jobs=1, backend="auto"),
            separations=(20.0,),
            loads=(None,),
            schemes={"IdleSense": SchemeSpec.make("idlesense")},
        )
        [row] = result.rows
        assert row.values["classification"] != "livelock"
        assert row.values["Mbps"] > 1.0
        assert result.metadata["livelock"] == {}

    def test_config_seeds_are_extended_with_livelock_seeds(self):
        result = run_fig_stability_atlas(
            QUICK.evolve(seeds=(2,)),
            executor=CampaignExecutor(jobs=1, backend="auto"),
            separations=(28.0,),
            loads=(None,),
            schemes={"IdleSense": SchemeSpec.make("idlesense")},
        )
        assert result.metadata["seeds"] == (1, 2, 5)
