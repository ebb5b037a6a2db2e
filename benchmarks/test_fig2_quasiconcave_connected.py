"""Benchmark: Figure 2 — p-persistent throughput vs attempt probability
(fully connected, 20 and 40 stations).

Shape to reproduce: a bell-shaped (quasi-concave) curve peaking at an
interior attempt probability, with the simulated curve tracking Eq. (3).
"""

import numpy as np
import pytest

from repro.experiments import run_fig2


@pytest.mark.benchmark(group="fig2")
def test_fig2_quasiconcave_connected(benchmark, bench_config_connected, record_result):
    config = bench_config_connected.evolve(measure_duration=0.6, warmup=0.2)
    result = benchmark.pedantic(
        run_fig2,
        kwargs={"config": config, "node_counts": (20, 40), "simulate": True},
        rounds=1, iterations=1,
    )
    record_result(result, "fig2.txt")

    for n in (20, 40):
        assert result.metadata["quasi_concave"][f"analytic N={n}"] is True
        assert result.metadata["quasi_concave"][f"simulated N={n}"] is True
        analytic = np.array(result.column(f"analytic N={n}"))
        simulated = np.array(result.column(f"simulated N={n}"))
        # The peak is interior (bell shape), and simulation tracks the model
        # to within 15% at the peak.
        peak = int(np.argmax(analytic))
        assert 0 < peak < len(analytic) - 1
        assert simulated[peak] == pytest.approx(analytic[peak], rel=0.15)
