"""Benchmark: Figure 7 — scheme comparison with hidden nodes (disc radius 20).

Same protocol as Figure 6 with a wider disc (more hidden pairs); the ordering
TORA-CSMA >= wTOP-CSMA >> IdleSense must persist.
"""

import numpy as np
import pytest

from repro.experiments import run_fig7


@pytest.mark.benchmark(group="fig7")
def test_fig7_hidden_r20(benchmark, bench_config_hidden, record_result):
    result = benchmark.pedantic(
        run_fig7, kwargs={"config": bench_config_hidden}, rounds=1, iterations=1
    )
    record_result(result, "fig7.txt")

    wtop = np.array(result.column("wTOP-CSMA"))
    tora = np.array(result.column("TORA-CSMA"))
    idlesense = np.array(result.column("IdleSense"))

    assert tora.mean() >= wtop.mean()
    assert idlesense.mean() < 0.5 * tora.mean()
    assert np.all(tora > 5.0)
