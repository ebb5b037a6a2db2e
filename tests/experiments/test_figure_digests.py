"""Pin what every registered experiment submits and prints.

Each ``EXPERIMENT_REGISTRY`` entry runs at the ``QUICK`` preset through a
stub executor that simulates nothing: its ``run(tasks)`` records every
task's ``(label, task_key)`` and returns one synthetic
:class:`~repro.sim.metrics.SimulationResult` per task, seeded from the task
key.  One SHA-256 per experiment covers the submitted task lists, the
``repr`` of the result's columns, rows and metadata (which keeps exact
floats and dict order) and the ``format_result`` text.  A change to the
figure layer that moves any submitted cell, any number or any printed
character fails here; the table below was recorded before the figure
runners were folded onto shared shapes and must not be edited to make a
refactor pass.
"""

import hashlib
import random

import pytest

from repro.experiments import EXPERIMENT_REGISTRY, QUICK, format_result
from repro.experiments.__main__ import _ANALYTICAL
from repro.sim.metrics import SimulationResult, StationStats

EXPECTED = {
    "fig1": "0685154566650853a12344cc81f4e27eadf6fd708ae882da4fc56e81adf1ed4f",
    "fig10_11": "684e2d7b40148e016ceaab8ece1854284c78934a4028dc31a54020b47c9a46ba",
    "fig12": "a1937e932c23d2f61f89e4d5f2db42f7bd5793ceb52b5984f2b218ff11b778ae",
    "fig13": "0a766f6f9041e94e5ff596e4fe8852d59ebf46bd3adbc3bd40d77e3ad125b0aa",
    "fig2": "887cfd63f04216b6bb608b4a757c9c47549788b0a0fbcdeb25176637576a5981",
    "fig3": "a4c4d3f61ac2831967fe02e298a07200649affa518b2f5bea3a0f59286ca503e",
    "fig4": "869fc0d5032afa729f6a697d4bc9ce0ca11b7dde84d5ed48ee09fdec2d81f826",
    "fig5": "a8f28499da3403994544388ccd4522151788f3439f4a5403ff4e5c7d7d9a1056",
    "fig6": "9576ea276d346a24d5c462b4249ab601e2239e56b215b540d2cfa41a3b59566e",
    "fig7": "adbf66b7b0e4935c765739895beec06df0abf7c82bb0e734c8533e4114879d97",
    "fig8_9": "4b9b83c5ed9662eb6b28e77ec935b0a884f3739f11cee5dbb7201a5a2e563d54",
    "fig_fct_sweep": "99f37f98a7975c58388fdcc428dbc1fd056457f341ca742bdd00eccee137ec67",
    "fig_load_sweep": "ae4a12c3df2828ec6785eaf5938fc87bbbb6af4de2ef96ae71002742f4108c60",
    "fig_stability_atlas": "2087f38bcc5afcecf76232b009fd592f87aafec6b123c81b8dc00a2f383e51ab",
    "table1": "f956810c75655aead45b6058c8eed9bf2833c0e24766516f4656ab5c61754550",
    "table2": "e17c33553fb2e7bfa2a8ef8ae6e923366c7f19157e8ef04603cfabb0c675a88a",
    "table3": "7c856fb3b72fd491d0563394edef08af7007747a1a8b556b54778b78f7271480",
}


def _timeline(rng, task, level):
    """A noisy series on the task's report grid (empty without one)."""
    if task.report_interval is None:
        return ()
    steps = int(round(task.duration / task.report_interval))
    wobble = rng.choice((0.05, 0.6))
    return tuple(
        (k * task.report_interval, level * (1.0 + rng.uniform(-wobble, wobble)))
        for k in range(1, steps + 1)
    )


def synthetic_result(task) -> SimulationResult:
    """A deterministic stand-in for simulating ``task``."""
    rng = random.Random(task.task_key())
    # Some cells starve, as a livelocked cell does.
    scale = rng.choice((0.02, 1.0))
    stats = []
    for station in range(task.topology.num_stations):
        successes = rng.randrange(1, 400)
        stats.append(StationStats(
            station=station,
            successes=successes,
            failures=rng.randrange(0, 200),
            payload_bits=successes * 8000,
            throughput_bps=scale * rng.uniform(0.0, 2e6),
        ))
    total = sum(s.throughput_bps for s in stats)
    offered = rng.randrange(0, 5000)
    extra = {}
    if task.scheme.kind == "idlesense":
        extra["station_observed_idle"] = rng.uniform(2.0, 12.0)
    return SimulationResult(
        duration=task.duration,
        station_stats=tuple(stats),
        total_throughput_bps=total,
        idle_slots=rng.randrange(0, 10000),
        busy_periods=rng.randrange(1, 2000),
        throughput_timeline=_timeline(rng, task, total),
        control_timeline=_timeline(rng, task, rng.uniform(1e-3, 0.1)),
        offered_frames=offered,
        dropped_frames=rng.randrange(0, offered + 1),
        queue_delay_sum_s=rng.uniform(0.0, 50.0),
        retry_discards=rng.randrange(0, 50),
        queue_delay_p50_s=rng.uniform(0.0, 0.01),
        queue_delay_p99_s=rng.uniform(0.01, 0.2),
        flow_completions=tuple(
            (station, rng.uniform(0.0, task.duration))
            for station in range(rng.randrange(0, task.topology.num_stations + 1))
        ),
        extra=extra,
    )


class StubExecutor:
    """Records each ``run`` call's tasks and answers with synthetic results."""

    def __init__(self):
        self.submitted = []

    def run(self, tasks):
        tasks = list(tasks)
        self.submitted.append([(task.label, task.task_key()) for task in tasks])
        return [synthetic_result(task) for task in tasks]


def experiment_digest(name: str) -> str:
    executor = StubExecutor()
    runner = EXPERIMENT_REGISTRY[name]
    result = runner() if name in _ANALYTICAL else runner(QUICK, executor=executor)
    text = "\n".join([
        repr(executor.submitted),
        repr(result.columns),
        repr(result.rows),
        repr(result.metadata),
        format_result(result),
    ])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_table_covers_the_registry():
    assert sorted(EXPECTED) == sorted(EXPERIMENT_REGISTRY)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_experiment_output_is_pinned(name):
    assert experiment_digest(name) == EXPECTED[name]
