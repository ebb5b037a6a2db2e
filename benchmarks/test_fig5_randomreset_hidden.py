"""Benchmark: Figure 5 — RandomReset throughput vs reset probability with
hidden nodes.

Shape to reproduce: unimodal (quasi-concave) dependence on p0 for j = 0, the
second empirical quasi-concavity result the paper relies on.
"""

import numpy as np
import pytest

from repro.experiments import run_fig5


@pytest.mark.benchmark(group="fig5")
def test_fig5_randomreset_hidden(benchmark, bench_config_hidden, record_result):
    result = benchmark.pedantic(
        run_fig5,
        kwargs={
            "config": bench_config_hidden,
            "node_counts": (10, 20),
            "reset_probabilities": (0.0, 0.25, 0.5, 0.75, 1.0),
            "topology_seeds": (11,),
        },
        rounds=1, iterations=1,
    )
    record_result(result, "fig5.txt")

    quasi = result.metadata["quasi_concave"]
    assert all(quasi.values()), f"non-unimodal curves: {quasi}"
    for column in result.columns:
        curve = np.array(result.column(column))
        assert np.all(curve > 0)
