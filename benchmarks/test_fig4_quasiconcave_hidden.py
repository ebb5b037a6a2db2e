"""Benchmark: Figure 4 — p-persistent throughput vs attempt probability with
hidden nodes.

Shape to reproduce: the throughput remains a (noise-tolerant) unimodal
function of the attempt probability even on random hidden-node topologies —
the empirical justification for running Kiefer-Wolfowitz there.
"""

import numpy as np
import pytest

from repro.experiments import run_fig4


@pytest.mark.benchmark(group="fig4")
def test_fig4_quasiconcave_hidden(benchmark, bench_config_hidden, record_result):
    probabilities = tuple(np.exp(np.linspace(-9.0, -2.0, 6)))
    result = benchmark.pedantic(
        run_fig4,
        kwargs={
            "config": bench_config_hidden,
            "node_counts": (10, 20),
            "probabilities": probabilities,
            "topology_seeds": (11,),
        },
        rounds=1, iterations=1,
    )
    record_result(result, "fig4.txt")

    quasi = result.metadata["quasi_concave"]
    assert all(quasi.values()), f"non-unimodal curves: {quasi}"
    # The curve is informative: its dynamic range is large (low p starves the
    # channel, high p drowns it in collisions).
    for column in result.columns:
        curve = np.array(result.column(column))
        assert curve.max() > 2.0 * max(curve.min(), 0.1)
