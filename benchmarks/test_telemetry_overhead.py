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
  Both sides are timed in CPU time, as :func:`conftest.measure_overhead`
  says.

Both runs must also be bit-identical — the correctness half of that claim
lives in ``tests/sim/test_telemetry_differential.py``; here we only re-check
the summary statistics as a cheap tripwire.
"""

import pytest

from repro.experiments.campaign import CampaignExecutor
from repro.experiments import run_fig3
from repro.telemetry import Telemetry

#: Conservative CI ceiling for enabled/disabled CPU time; the measured
#: ratio on an idle machine is ~1.04.
MAX_ENABLED_RATIO = 1.25


@pytest.mark.benchmark(group="telemetry-overhead")
def test_telemetry_overhead_on_fig3_batched_grid(overhead,
                                                 bench_config_connected,
                                                 bench_json):
    # Four seeds give the batched kernels real columns to sweep while keeping
    # three repetitions of both variants affordable in CI.
    config = bench_config_connected.evolve(
        seeds=(1, 2, 3, 4), measure_duration=1.0, adaptive_warmup=5.0,
    )
    sunk = []

    def sink(record):  # a real (non-trivial) sink, like JsonlTraceWriter
        sunk.append(record["type"])

    def run(enabled):
        # ``sunk`` keeps the records of the last enabled run.
        telemetry = None
        if enabled:
            sunk.clear()
            telemetry = Telemetry(sink=sink, keep_records=False)
        executor = CampaignExecutor(jobs=1, backend="auto",
                                    telemetry=telemetry)
        return run_fig3(config, executor=executor, include_optimum=False)

    reference, traced, timing = overhead(run, False, True)

    # Tripwire for the bit-identity contract (full check lives in tests/).
    assert [row.values for row in traced.rows] == \
        [row.values for row in reference.rows]
    assert "counters" in sunk and "task" in sunk

    assert timing.ratio < MAX_ENABLED_RATIO, (
        f"enabled telemetry took {timing.ratio:.2f}x the disabled CPU time "
        f"(ceiling {MAX_ENABLED_RATIO}x): {timing}"
    )

    cells = 4 * len(config.node_counts) * len(config.seeds)
    bench_json["backend"] = "batched"
    bench_json["grid_shape"] = [len(config.node_counts), len(config.seeds), 4]
    bench_json["cells"] = cells
    bench_json["cells_per_s"] = round(cells / timing.disabled_s, 3)
    bench_json["extra"].update(timing.record())
    print(f"\ntelemetry overhead on the Figure 3 batched grid ({cells} cells): "
          f"{timing}\n")
