"""Benchmark: Figure 6 — scheme comparison with hidden nodes (disc radius 16).

Shape to reproduce (the paper's headline hidden-node result):

* TORA-CSMA is the best of the four schemes (exponential backoff beats the
  optimal p-persistent scheme when hidden nodes exist);
* IdleSense collapses far below every other scheme;
* the adaptive stochastic-approximation schemes do not fall apart the way the
  model-based IdleSense does.
"""

import numpy as np
import pytest

from repro.experiments import run_fig6


@pytest.mark.benchmark(group="fig6")
def test_fig6_hidden_r16(benchmark, bench_config_hidden, record_result):
    result = benchmark.pedantic(
        run_fig6, kwargs={"config": bench_config_hidden}, rounds=1, iterations=1
    )
    record_result(result, "fig6.txt")

    dcf = np.array(result.column("Standard 802.11"))
    wtop = np.array(result.column("wTOP-CSMA"))
    tora = np.array(result.column("TORA-CSMA"))
    idlesense = np.array(result.column("IdleSense"))

    # TORA-CSMA beats the p-persistent scheme and standard 802.11 on average.
    assert tora.mean() >= wtop.mean()
    assert tora.mean() >= 0.95 * dcf.mean()
    # IdleSense collapses with hidden nodes.
    assert idlesense.mean() < 0.5 * tora.mean()
    # Every adaptive-stochastic-approximation scheme retains usable throughput.
    assert np.all(tora > 5.0)
    assert np.all(wtop > 5.0)
