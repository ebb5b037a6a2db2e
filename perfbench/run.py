"""The repository benchmark: one workload, repeated, with output checks.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig3-connected --seed 1 --seconds 30 --trace 0

Each repeat is a fresh interpreter (``measure.py``) that imports the
package, builds the workload's cells from ``--seed``, runs them once
through ``CampaignExecutor.run`` with tracing off and checks the outputs.
Repeats continue while the next one is expected to finish within
``--seconds``, and there are always at least three.  ``--trace 1`` then
adds one traced repeat (telemetry and cProfile on) that yields the
per-layer metrics.

Standard output carries a readable table of every metric, with its unit,
median, quartiles and repeat count, and ends with one JSON line::

    {"correct": true, "attempted": 896, "failed": 0, "metrics": {...}}

``metrics`` holds the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  A record with provenance and every
sample goes to ``perfbench/out/``.  The exit code is nonzero when any
output check fails.  See ``perfbench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_REPEATS = 3
#: Wall-clock budget for a whole invocation, below the 180 s a run may take.
BUDGET_S = 170.0

WORKLOADS = ("fig3-connected", "fig6-7-hidden", "load-sweep-pool")

#: End-to-end metrics (name -> unit), each the median over the repeats of
#: the same-named field of a ``measure.py`` sample.
END_TO_END = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Units of the per-layer metrics (every one is printed with --trace 1).
LAYER_UNITS = {
    "campaign.units": "count",
    "campaign.cells_per_unit": "cells",
    "campaign.worker_util": "ratio",
    "campaign.queue_wait_s": "s",
    "campaign.overhead_s": "s",
    "campaign.fallback_cells": "count",
    "sim.batched.loop_iterations": "count",
    "sim.batched.idle_fast_forwards": "count",
    "sim.batched.busy_slots": "count",
    "sim.batched.idle_slots_advanced": "count",
    "sim.batched.us_per_iteration": "us",
    "sim.batched.numpy_calls_per_iteration": "calls",
    "sim.batched.self_s": "s",
    "sim.conflict.loop_iterations": "count",
    "sim.conflict.frame_starts": "count",
    "sim.conflict.sense_recomputes": "count",
    "sim.conflict.sense_product_ops": "count",
    "sim.conflict.us_per_iteration": "us",
    "sim.conflict.numpy_calls_per_iteration": "calls",
    "sim.conflict.self_s": "s",
    "mac.batched.self_s": "s",
    "core.batched.self_s": "s",
    "traffic.self_s": "s",
    "topology.self_s": "s",
    "numpy.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """A repeat could not be measured (crash or time budget exceeded)."""


def _run_repeat(workload: str, seed: int, trace: bool,
                deadline: float) -> dict:
    """One ``measure.py`` process; its process group dies with it.

    Returns its sample, plus the repeat's wall time and the 1-minute load
    average before and after it.
    """
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--seed", str(seed),
               "--out-dir", str(OUT_DIR)] + (["--trace"] if trace else [])
    load_before = os.getloadavg()[0]
    begin = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repeat exceeded the {BUDGET_S:g} s "
                         f"budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"measure.py exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("measure.py printed no result")
    sample = json.loads(lines[-1])
    sample.update(wall_s=time.monotonic() - begin, load1_before=load_before,
                  load1_after=os.getloadavg()[0])
    return sample


def _summary(values):
    """(median, first quartile, third quartile) of the repeats."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _provenance(seed: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + BUDGET_S
    provenance = _provenance(args.seed)
    samples = []
    while len(samples) < MIN_REPEATS or (
            time.monotonic() - started
            + statistics.median(s["wall_s"] for s in samples)
            <= args.seconds):
        samples.append(_run_repeat(args.workload, args.seed, False, deadline))
    traced = (_run_repeat(args.workload, args.seed, True, deadline)
              if args.trace else None)

    # Output checks: each repeat's own checks, plus every repeat (traced
    # too: telemetry must not change results) reproducing the first digest.
    from perfbench import checks

    reference = samples[0]["cell_digests"]
    attempted = failed = 0
    problems = []
    for sample in samples + ([traced] if traced else []):
        found = ([checks.CheckFailure(**f) for f in sample["failures"]]
                 + checks.check_digests(reference, sample["cell_digests"]))
        attempted += sample["cells"]
        failed += min(sample["cells"], sum(f.cells for f in found))
        problems += found
    correct = not problems

    table = {}
    for sample in samples:
        sample["cells_per_s"] = sample["cells"] / sample["run_s"]
    for name, unit in END_TO_END.items():
        median, q1, q3 = _summary([s[name] for s in samples])
        table[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                       "n": len(samples)}
    model_errors = samples[0]["model_errors"]
    model_err_pct = (100 * statistics.fmean(model_errors.values())
                     if model_errors else None)

    print(f"perfbench {args.workload} seed={args.seed}: {len(samples)} "
          f"untraced repeat(s), each a fresh process, in "
          f"{time.monotonic() - started:.1f} s; "
          f"python {provenance['python']}, numpy {samples[0]['numpy']}, "
          f"nproc {provenance['nproc']}, git {provenance['git_sha']}"
          f"{' (dirty)' if provenance['git_dirty'] else ''}")
    for name, row in table.items():
        print(f"  {name:<14} {row['value']:>10.4g} {row['unit']:<8} "
              f"median; IQR {row['q1']:.4g}..{row['q3']:.4g}; "
              f"n={row['n']}")
    print(f"  {'fail_ratio':<14} {failed / attempted:>10.4g} {'ratio':<8} "
          f"{failed} of {attempted} cell(s) failed a check or were "
          f"quarantined")
    if model_err_pct is None:
        print(f"  {'model_err_pct':<14} {'n/a':>10} {'%':<8} "
              f"no closed form for this workload")
    else:
        per_count = ", ".join(f"N={n}: {100 * e:.2f}%"
                              for n, e in model_errors.items())
        print(f"  {'model_err_pct':<14} {model_err_pct:>10.4g} {'%':<8} "
              f"DCF vs Bianchi, deterministic for the seed ({per_count})")
    print(f"  digest sha256:{samples[0]['digest']} "
          f"({'identical in every repeat' if correct else 'see failures'})")
    for problem in problems:
        print(f"  CHECK FAILED [{problem.check}] {problem.detail}")

    if traced is not None:
        layer_metrics = dict(traced["layers"])
        layer_metrics["trace.overhead_ratio"] = (
            traced["run_s"] / statistics.median(s["run_s"] for s in samples))
        print(f"per-layer metrics (one traced repeat with cProfile; "
              f"trace {traced['trace']}, report {traced['trace_report']}):")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<40} {layer_metrics[name]:>12.6g} {unit}")
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in table.items()}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": provenance,
        "workload": args.workload,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "model_err_pct": model_err_pct,
        "end_to_end": table,
        "problems": [dataclasses.asdict(p) for p in problems],
        "samples": [{k: v for k, v in s.items() if k != "cell_digests"}
                    for s in samples],
        "traced": ({k: v for k, v in traced.items() if k != "cell_digests"}
                   if traced else None),
        "metrics": metrics,
    }
    record_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    # SIGTERM exits through the clean-up that kills a running repeat's
    # process group, pool workers included.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
