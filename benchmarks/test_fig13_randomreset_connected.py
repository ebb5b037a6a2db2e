"""Benchmark: Figure 13 — RandomReset(0; p0) throughput vs p0, fully connected.

Shape to reproduce:

* the curve is quasi-concave in p0 with a broad, flat top (the paper's
  argument for TORA-CSMA's robustness to control-variable oscillation);
* it is much flatter around its maximum than the p-persistent curve of
  Figure 2 (relative drop over a comparable neighbourhood of the optimum).
"""

import numpy as np
import pytest

from repro.analysis.persistent import optimal_attempt_probability, throughput_curve
from repro.experiments import run_fig13
from repro.phy.constants import PhyParameters


@pytest.mark.benchmark(group="fig13")
def test_fig13_randomreset_connected(benchmark, bench_config_connected, record_result):
    config = bench_config_connected.evolve(measure_duration=0.6, warmup=0.2)
    result = benchmark.pedantic(
        run_fig13,
        kwargs={"config": config, "node_counts": (20, 40), "simulate": True},
        rounds=1, iterations=1,
    )
    record_result(result, "fig13.txt")

    phy = PhyParameters()
    for n in (20, 40):
        assert result.metadata["quasi_concave"][f"analytic N={n}"] is True
        analytic = np.array(result.column(f"analytic N={n}"))
        simulated = np.array(result.column(f"simulated N={n}"))
        peak = int(np.argmax(analytic))
        assert simulated[peak] == pytest.approx(analytic[peak], rel=0.15)

        # Flatness: across the inner half of the p0 range the RandomReset
        # curve loses at most ~35% of its peak, while the p-persistent curve
        # over a comparable (x4 around p*) range loses much more.
        inner = analytic[2:-2]
        rr_drop = 1.0 - inner.min() / analytic.max()
        p_star = optimal_attempt_probability(n, phy)
        pp_curve = throughput_curve([p_star / 4, p_star, p_star * 4], n, phy) / 1e6
        pp_drop = 1.0 - min(pp_curve[0], pp_curve[-1]) / pp_curve[1]
        assert rr_drop < pp_drop
