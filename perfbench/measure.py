"""One measured repeat of a benchmark workload, in a fresh interpreter.

Usage (``run.py`` drives this; it is not meant to be called by hand)::

    python3 perfbench/measure.py --workload NAME --seed N --out-dir DIR [--trace]

The process times its own set-up (importing :mod:`repro.experiments` and
building the workload's task list), runs the campaign once through
``CampaignExecutor.run``, checks the outputs and prints one JSON object as
the last line of its standard output.  Its peak resident memory includes
any pool workers, which have been reaped by then.

With ``--trace`` the campaign runs with telemetry and cProfile on; the
records are written to ``DIR/<workload>-seed<N>.trace.jsonl`` when the run
ends, validated, rendered with ``trace-report``, and reduced to the
per-layer metrics of :mod:`perfbench.layers`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any reaped child, in MiB (Linux KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    from perfbench import checks, layers  # stdlib only: no repro import

    # Set-up is measured from a cold interpreter: nothing from repro is
    # imported before this point.
    wall_t0 = time.time()
    t0 = time.perf_counter()
    from perfbench import workloads
    tasks = workloads.WORKLOADS[args.workload].build(args.seed)
    setup_s = time.perf_counter() - t0

    import numpy
    from repro.analysis.bianchi import dcf_saturation_throughput
    from repro.experiments.campaign.cache import result_to_dict
    from repro.telemetry import NULL, Telemetry
    from repro.telemetry.report import trace_report_main
    from repro.telemetry.trace import (
        TRACE_SCHEMA_VERSION,
        JsonlTraceWriter,
        validate_trace_file,
    )

    args.out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = args.out_dir / f"cache-{args.workload}-{args.seed}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    telemetry = Telemetry(keep_records=True) if args.trace else NULL
    executor = workloads.make_executor(args.workload, cache_dir,
                                       telemetry=telemetry,
                                       profile=args.trace)
    telemetry.emit({
        "type": "meta", "t0": wall_t0, "schema": TRACE_SCHEMA_VERSION,
        "info": {"benchmark": "perfbench", "workload": args.workload,
                 "seed": args.seed, "jobs": executor.jobs,
                 "backend": executor.backend, "profile": args.trace},
    })
    telemetry.emit({"type": "span", "name": "bench.setup", "t0": wall_t0,
                    "dur": setup_s, "args": {"cells": len(tasks)}})
    try:
        with telemetry.span("bench.run", cells=len(tasks)):
            started = time.perf_counter()
            results = executor.run(tasks)
            run_s = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    stats = executor.last_run_stats
    peak_rss_mb = _peak_rss_mb()

    digests = checks.cell_digests(
        [result_to_dict(r) if r is not None else None for r in results])
    fallback_cells = stats.executed - stats.batched_cells
    failures = (checks.check_finite(results)
                + checks.check_frame_accounting(tasks, results)
                + checks.check_no_fallback(fallback_cells))
    model_errors = checks.dcf_model_errors(tasks, results,
                                           dcf_saturation_throughput)
    failures += checks.check_bianchi(model_errors)

    sample = {
        "workload": args.workload,
        "seed": args.seed,
        "cells": len(tasks),
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "quarantined": len(stats.failures),
        "fallback_cells": fallback_cells,
        "digest": checks.results_digest(digests),
        "cell_digests": digests,
        "failures": [dataclasses.asdict(f) for f in failures],
        "model_errors": {str(n): err for n, (err, _) in model_errors.items()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }

    if args.trace:
        metrics = layers.layer_metrics(telemetry.records,
                                       executor.profile_stats, run_s)
        telemetry.counters("perfbench.layers", metrics)
        trace_path = args.out_dir / f"{args.workload}-seed{args.seed}.trace.jsonl"
        with JsonlTraceWriter(trace_path) as writer:
            for record in telemetry.records:
                writer.write(record)
        sample["trace_counts"] = validate_trace_file(trace_path)
        report_path = trace_path.with_suffix(".report.txt")
        with report_path.open("w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            status = trace_report_main([str(trace_path), "--out", "-"])
        if status != 0:
            raise RuntimeError(f"trace-report failed on {trace_path}")
        sample.update(layers=metrics, trace=str(trace_path.relative_to(ROOT)),
                      trace_report=str(report_path.relative_to(ROOT)))

    print(json.dumps(sample, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
