"""Benchmark: Figure 3 — scheme comparison in a fully connected network.

Shape to reproduce:

* wTOP-CSMA, TORA-CSMA and IdleSense stay near the analytic optimum (roughly
  flat in N);
* standard 802.11 is below them and degrades as N grows.
"""

import numpy as np
import pytest

from repro.experiments import run_fig3


@pytest.mark.benchmark(group="fig3")
def test_fig3_connected_comparison(benchmark, bench_config_connected, record_result):
    result = benchmark.pedantic(
        run_fig3, kwargs={"config": bench_config_connected}, rounds=1, iterations=1
    )
    record_result(result, "fig3.txt")

    dcf = np.array(result.column("Standard 802.11"))
    wtop = np.array(result.column("wTOP-CSMA"))
    tora = np.array(result.column("TORA-CSMA"))
    idlesense = np.array(result.column("IdleSense"))
    optimum = np.array(result.column("Analytic optimum"))

    # Standard 802.11 degrades with N (first vs last node count).
    assert dcf[-1] < dcf[0]
    # The adaptive schemes are within 12% of the analytic optimum everywhere.
    for curve in (wtop, tora, idlesense):
        assert np.all(curve >= 0.88 * optimum)
    # And they beat standard 802.11 at the largest N.
    assert wtop[-1] > dcf[-1]
    assert tora[-1] > dcf[-1]
    assert idlesense[-1] > dcf[-1]
