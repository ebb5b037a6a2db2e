"""Benchmark: telemetry cost on the Figure 3 batched grid.

The telemetry subsystem promises two things about performance:

* **Disabled** (the default — no ``--trace``): instrumented hot loops hoist a
  single ``tel.enabled`` check per run, so the cost versus the pre-telemetry
  code is one branch per loop iteration.  That claim is enforced by the
  regression gate: this benchmark records the disabled-telemetry ``cells_per_s``
  into its ``BENCH_*.json``, and ``check_benchmark_regression.py`` compares it
  (like every batched-backend record) against the committed baseline.
* **Enabled** (``--trace FILE.jsonl``): counters are plain integer adds inside
  the loop plus one ``counters`` record per simulator call, so tracing a
  campaign stays cheap enough to leave on for real runs.  A representative
  measurement puts the enabled/disabled ratio below 1.05; the in-test
  assertion uses a conservative ceiling so CI machine noise cannot flake it.

Both runs must also be bit-identical — the correctness half of that claim
lives in ``tests/sim/test_telemetry_differential.py``; here we only re-check
the summary statistics as a cheap tripwire.
"""

import time

import pytest

from repro.experiments.campaign import CampaignExecutor
from repro.experiments.fig3 import run_fig3
from repro.telemetry import Telemetry

#: Conservative CI ceiling for enabled/disabled wall clock; the measured
#: ratio on an idle machine is ~1.04.
MAX_ENABLED_RATIO = 1.25


@pytest.mark.benchmark(group="telemetry-overhead")
def test_telemetry_overhead_on_fig3_batched_grid(benchmark,
                                                 bench_config_connected,
                                                 bench_json):
    # Four seeds give the batched kernels real columns to sweep while keeping
    # three repetitions of both variants affordable in CI.
    config = bench_config_connected.evolve(
        seeds=(1, 2, 3, 4), measure_duration=1.0, adaptive_warmup=5.0,
    )

    def run(telemetry):
        executor = CampaignExecutor(jobs=1, backend="auto",
                                    telemetry=telemetry)
        started = time.perf_counter()
        result = run_fig3(config, executor=executor, include_optimum=False)
        return result, time.perf_counter() - started

    def sink(record):  # a real (non-trivial) sink, like JsonlTraceWriter
        sunk.append(record["type"])

    run(None)  # warm-up: imports, allocator, CPU governor
    disabled_s = enabled_s = float("inf")
    reference = None
    for _ in range(3):
        result, elapsed = run(None)
        disabled_s = min(disabled_s, elapsed)
        reference = result
        sunk = []
        traced, elapsed = run(Telemetry(sink=sink, keep_records=False))
        enabled_s = min(enabled_s, elapsed)

    # Tripwire for the bit-identity contract (full check lives in tests/).
    assert [row.values for row in traced.rows] == \
        [row.values for row in reference.rows]
    assert "counters" in sunk and "task" in sunk

    _, timed_s = benchmark.pedantic(run, args=(None,), rounds=1, iterations=1)
    disabled_s = min(disabled_s, timed_s)
    ratio = enabled_s / disabled_s
    assert ratio < MAX_ENABLED_RATIO, (
        f"enabled telemetry took {ratio:.2f}x the disabled wall clock "
        f"(ceiling {MAX_ENABLED_RATIO}x): {enabled_s:.2f}s vs {disabled_s:.2f}s"
    )

    cells = 4 * len(config.node_counts) * len(config.seeds)
    bench_json["backend"] = "batched"
    bench_json["grid_shape"] = [len(config.node_counts), len(config.seeds), 4]
    bench_json["cells"] = cells
    bench_json["cells_per_s"] = round(cells / disabled_s, 3)
    bench_json["extra"].update(
        disabled_s=round(disabled_s, 2),
        enabled_s=round(enabled_s, 2),
        enabled_ratio=round(ratio, 3),
    )
    print(f"\ntelemetry overhead on the Figure 3 batched grid ({cells} cells): "
          f"disabled {disabled_s:.2f}s, enabled {enabled_s:.2f}s "
          f"({ratio:.2f}x)\n")
