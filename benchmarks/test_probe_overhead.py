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
  CI machine noise cannot flake it.  Both sides are timed in CPU time, as
  :func:`conftest.measure_overhead` says.

Both runs must be bit-identical; the full differential check lives in
``tests/sim/test_probe_differential.py`` and the summary statistics are
re-checked here as a cheap tripwire.
"""

import pytest

from repro.experiments.campaign import CampaignExecutor
from repro.experiments import run_fig3
from repro.telemetry import ProbeConfig, Telemetry

#: Conservative CI ceiling for enabled/disabled CPU time (the same bar as
#: the telemetry benchmark); the measured ratio on an idle machine is ~1.05.
MAX_ENABLED_RATIO = 1.25


@pytest.mark.benchmark(group="probe-overhead")
def test_probe_overhead_on_fig3_batched_grid(overhead,
                                             bench_config_connected,
                                             bench_json):
    # Same grid as the telemetry benchmark so the two overhead numbers are
    # directly comparable: four seeds give the batched kernels real columns.
    config = bench_config_connected.evolve(
        seeds=(1, 2, 3, 4), measure_duration=1.0, adaptive_warmup=5.0,
    )
    probe = ProbeConfig(interval=0.5)
    sunk = []

    def run(enabled):
        # Probes stream through telemetry, so the enabled variant carries a
        # full tracing session: the ratio measures the real --probe-interval
        # cost on top of a plain run, not probes in isolation.  ``sunk``
        # keeps the records of the last enabled run.
        if enabled:
            sunk.clear()
        executor = CampaignExecutor(
            jobs=1, backend="auto",
            telemetry=Telemetry(sink=sunk.append, keep_records=False)
            if enabled else None,
            probe=probe if enabled else None,
        )
        return run_fig3(config, executor=executor, include_optimum=False)

    reference, probed, timing = overhead(run, False, True)

    # Tripwire for the bit-identity contract (full check lives in tests/).
    assert [row.values for row in probed.rows] == \
        [row.values for row in reference.rows]
    assert any(record["type"] == "probe" for record in sunk)

    assert timing.ratio < MAX_ENABLED_RATIO, (
        f"enabled probes took {timing.ratio:.2f}x the disabled CPU time "
        f"(ceiling {MAX_ENABLED_RATIO}x): {timing}"
    )

    cells = 4 * len(config.node_counts) * len(config.seeds)
    bench_json["backend"] = "batched"
    bench_json["grid_shape"] = [len(config.node_counts), len(config.seeds), 4]
    bench_json["cells"] = cells
    bench_json["cells_per_s"] = round(cells / timing.disabled_s, 3)
    bench_json["extra"].update(timing.record(),
                               probe_interval_s=probe.interval)
    print(f"\nprobe overhead on the Figure 3 batched grid ({cells} cells): "
          f"{timing}\n")
