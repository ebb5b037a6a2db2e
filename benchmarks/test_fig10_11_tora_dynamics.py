"""Benchmark: Figures 10-11 — TORA-CSMA under a changing number of stations.

Shape to reproduce: throughput recovers after every population step (the
reset probability / stage re-converge), staying near the fully connected
optimum throughout.
"""

import numpy as np
import pytest

from repro.experiments import run_fig10_11


@pytest.mark.benchmark(group="fig10_11")
def test_fig10_11_tora_dynamics(benchmark, bench_config_connected, record_result):
    result = benchmark.pedantic(
        run_fig10_11,
        kwargs={"config": bench_config_connected, "include_hidden": False},
        rounds=1, iterations=1,
    )
    record_result(result, "fig10_11.txt")

    throughput = np.array(result.column("throughput (no hidden)"))
    p0 = np.array(result.column("p0 (no hidden)"))

    assert len(throughput) >= 10
    settled = throughput[len(throughput) // 5:]
    assert settled.min() > 15.0
    assert settled.mean() > 20.0
    # The reset probability stays inside (0, 1): the stage-shift logic keeps
    # the operating point interior rather than pinned at a boundary.
    assert np.all(p0 >= 0.0) and np.all(p0 <= 1.0)
    assert 0.05 < p0[len(p0) // 2:].mean() < 0.95
