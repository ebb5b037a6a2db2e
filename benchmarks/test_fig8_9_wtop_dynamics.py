"""Benchmark: Figures 8-9 — wTOP-CSMA under a changing number of stations.

Shape to reproduce:

* throughput stays near the optimum across the population steps (no lasting
  collapse after a step);
* the advertised attempt probability re-converges after each step and is
  (on average) lower when more stations are active — the ``p* ~ 1/N``
  behaviour of Eq. (8).
"""

import numpy as np
import pytest

from repro.experiments import run_fig8_9


@pytest.mark.benchmark(group="fig8_9")
def test_fig8_9_wtop_dynamics(benchmark, bench_config_connected, record_result):
    result = benchmark.pedantic(
        run_fig8_9,
        kwargs={"config": bench_config_connected, "include_hidden": False},
        rounds=1, iterations=1,
    )
    record_result(result, "fig8_9.txt")

    times = [float(label[2:-1]) for label in result.row_labels()]
    throughput = np.array(result.column("throughput (no hidden)"))
    control = np.array(result.column("p (no hidden)"))
    active = np.array(result.column("active stations"))

    assert len(times) >= 10
    # After an initial convergence window, throughput never collapses.
    settled = throughput[len(throughput) // 5:]
    assert settled.min() > 15.0
    assert settled.mean() > 20.0
    # The advertised probability is lower in the N=60 segment than in the
    # N=10 segment (tail halves of each segment, after re-convergence).
    p_small_n = control[(active == 10)][-2:].mean()
    p_large_n = control[(active == 60)][-2:].mean()
    assert p_large_n < p_small_n
