"""Benchmark: Figure 1 — IdleSense vs standard 802.11, with/without hidden nodes.

Shape to reproduce (paper's motivation):

* without hidden nodes IdleSense >= standard 802.11 for every N;
* with hidden nodes IdleSense falls below standard 802.11.
"""

import numpy as np
import pytest

from repro.experiments import run_fig1


@pytest.mark.benchmark(group="fig1")
def test_fig1_motivation(benchmark, bench_config_hidden, record_result):
    result = benchmark.pedantic(
        run_fig1, kwargs={"config": bench_config_hidden}, rounds=1, iterations=1
    )
    record_result(result, "fig1.txt")

    idlesense_connected = np.array(result.column("IdleSense (no hidden)"))
    dcf_connected = np.array(result.column("802.11 (no hidden)"))
    idlesense_hidden = np.array(result.column("IdleSense (hidden)"))
    dcf_hidden = np.array(result.column("802.11 (hidden)"))

    # Without hidden nodes, IdleSense beats (or matches) standard 802.11.
    assert np.all(idlesense_connected >= dcf_connected * 0.98)
    # With hidden nodes, IdleSense collapses below standard 802.11 on average.
    assert idlesense_hidden.mean() < dcf_hidden.mean()
    # And far below its own no-hidden performance.
    assert idlesense_hidden.mean() < 0.7 * idlesense_connected.mean()
