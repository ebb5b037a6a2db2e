"""Ablation: slotted vs event-driven simulator (a design choice of the reproduction).

The reproduction keeps two simulators: the event-driven one (required for
hidden nodes) and the renewal-slot one (fast, fully connected only).  This
ablation verifies that on fully connected topologies they agree on throughput
— i.e. that using the fast simulator for the connected experiments does not
change any conclusion — and records their relative speed.
"""

import time

import pytest

from repro.mac.schemes import fixed_p_persistent_scheme, standard_80211_scheme
from repro.phy.constants import PhyParameters
from repro.sim.simulation import run_event_driven
from repro.sim.slotted import run_slotted
from repro.topology.scenarios import fully_connected_scenario


@pytest.mark.benchmark(group="ablation")
def test_ablation_simulator_agreement_and_speed(benchmark, record_result):
    phy = PhyParameters()
    num_stations = 20
    duration, warmup = 1.0, 0.2
    graph = fully_connected_scenario(num_stations)
    schemes = {
        "802.11": standard_80211_scheme(phy),
        "p-persistent(0.02)": fixed_p_persistent_scheme(0.02),
    }

    def run_both():
        rows = {}
        for name, scheme in schemes.items():
            t0 = time.perf_counter()
            slotted = run_slotted(scheme, num_stations, duration=duration,
                                  warmup=warmup, phy=phy, seed=3)
            t_slotted = time.perf_counter() - t0
            t0 = time.perf_counter()
            event = run_event_driven(scheme, graph, duration=duration,
                                     warmup=warmup, phy=phy, seed=3)
            t_event = time.perf_counter() - t0
            rows[name] = (slotted.total_throughput_mbps,
                          event.total_throughput_mbps,
                          t_event / max(t_slotted, 1e-9))
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)

    from repro.experiments.runner import ExperimentResult, ExperimentRow
    result = ExperimentResult(
        name="Ablation: simulators",
        description="Slotted vs event-driven simulator on a fully connected network",
        columns=("slotted (Mbps)", "event-driven (Mbps)", "event/slotted runtime"),
        rows=tuple(
            ExperimentRow(label=name, values={
                "slotted (Mbps)": slotted,
                "event-driven (Mbps)": event,
                "event/slotted runtime": ratio,
            })
            for name, (slotted, event, ratio) in rows.items()
        ),
        metadata={"num_stations": num_stations, "duration_s": duration},
    )
    record_result(result, "ablation_simulators.txt")

    for name, (slotted, event, ratio) in rows.items():
        assert event == pytest.approx(slotted, rel=0.12), name
        # The slotted simulator must actually be the faster substrate.
        assert ratio > 2.0, name
