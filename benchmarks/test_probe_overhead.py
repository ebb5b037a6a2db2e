"""Benchmark: probe cost on the Figure 3 batched grid.

The probe layer (PR 9) extends the telemetry performance contract:

* **Disabled** (no ambient :class:`~repro.telemetry.probes.ProbeConfig`
  session): every instrumented hot loop hoists a single ``probe is None``
  check per run, so the cost versus probe-less code is one branch.  The
  disabled ``cells_per_s`` recorded here feeds the committed-baseline
  regression gate like every batched-backend benchmark.
* **Enabled** (``--probe-interval`` on the CLI): sampling happens once per
  elapsed probe window — a handful of float reads into a bounded ring
  buffer — plus one ``probe`` record per simulated cell.  The in-test
  ceiling is shared with the telemetry benchmark: conservative enough that
  CI machine noise cannot flake it.

Both runs must be bit-identical; the full differential check lives in
``tests/sim/test_probe_differential.py`` and the summary statistics are
re-checked here as a cheap tripwire.
"""

import time

import pytest

from repro.experiments.campaign import CampaignExecutor
from repro.experiments.fig3 import run_fig3
from repro.telemetry import ProbeConfig, Telemetry

#: Conservative CI ceiling for enabled/disabled wall clock (the same bar as
#: the telemetry benchmark); the measured ratio on an idle machine is ~1.05.
MAX_ENABLED_RATIO = 1.25


@pytest.mark.benchmark(group="probe-overhead")
def test_probe_overhead_on_fig3_batched_grid(benchmark,
                                             bench_config_connected,
                                             bench_json):
    # Same grid as the telemetry benchmark so the two overhead numbers are
    # directly comparable: four seeds give the batched kernels real columns.
    config = bench_config_connected.evolve(
        seeds=(1, 2, 3, 4), measure_duration=1.0, adaptive_warmup=5.0,
    )
    probe = ProbeConfig(interval=0.5)

    def run(enabled):
        # Probes stream through telemetry, so the enabled variant carries a
        # full tracing session: the ratio measures the real --probe-interval
        # cost on top of a plain run, not probes in isolation.
        executor = CampaignExecutor(
            jobs=1, backend="auto",
            telemetry=Telemetry(sink=sunk.append, keep_records=False)
            if enabled else None,
            probe=probe if enabled else None,
        )
        started = time.perf_counter()
        result = run_fig3(config, executor=executor, include_optimum=False)
        return result, time.perf_counter() - started

    sunk = []
    run(False)  # warm-up: imports, allocator, CPU governor
    disabled_s = enabled_s = float("inf")
    reference = None
    for _ in range(3):
        result, elapsed = run(False)
        disabled_s = min(disabled_s, elapsed)
        reference = result
        sunk = []
        probed, elapsed = run(True)
        enabled_s = min(enabled_s, elapsed)

    # Tripwire for the bit-identity contract (full check lives in tests/).
    assert [row.values for row in probed.rows] == \
        [row.values for row in reference.rows]
    assert any(record["type"] == "probe" for record in sunk)

    _, timed_s = benchmark.pedantic(run, args=(False,), rounds=1, iterations=1)
    disabled_s = min(disabled_s, timed_s)
    ratio = enabled_s / disabled_s
    assert ratio < MAX_ENABLED_RATIO, (
        f"enabled probes took {ratio:.2f}x the disabled wall clock "
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
        probe_interval_s=probe.interval,
    )
    print(f"\nprobe overhead on the Figure 3 batched grid ({cells} cells): "
          f"disabled {disabled_s:.2f}s, enabled {enabled_s:.2f}s "
          f"({ratio:.2f}x)\n")
