"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig3
    python -m repro.experiments table2 fig12 --preset quick
    python -m repro.experiments fig6 --preset paper --output results/
    python -m repro.experiments all --jobs 8 --cache-dir .repro-cache

Each experiment id corresponds to one table or figure of the paper (see
DESIGN.md section 4); the pseudo-id ``all`` expands to every experiment so
the entire evaluation runs as one campaign.  Results are printed as text
tables and optionally written to ``<output>/<experiment>.txt``.

Simulation cells are executed through a shared
:class:`~repro.experiments.campaign.CampaignExecutor`: ``--jobs`` fans them
out over worker processes (bit-identical to serial execution), and
``--cache-dir`` persists every completed cell so interrupted or repeated
invocations only simulate what is missing.  ``--progress`` streams one line
per completed cell to stderr (with a rolling cells/s rate and ETA).

Observability: ``--trace FILE.jsonl`` streams telemetry records (phase
spans, per-cell task records, simulator loop counters) to a JSONL file;
``--probe-interval SECONDS`` additionally samples per-station controller
state inside every simulator backend and streams the time series as
``probe`` records into the same file;
``python -m repro.experiments trace-report FILE.jsonl`` summarises one and
exports a Perfetto-loadable Chrome trace (probe series become counter
tracks); ``--profile`` runs cProfile in every worker and prints an
aggregated hotspot table.  None of these flags changes results: runs with
and without them are bit-identical.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
import time
from typing import List, Optional

from ..telemetry import ProbeConfig
from . import EXPERIMENT_REGISTRY, PAPER, QUICK
from .campaign import BACKENDS, CampaignExecutor, stderr_progress
from .config import ExperimentConfig
from .reporting import format_result

__all__ = ["main", "build_parser"]

_PRESETS = {"quick": QUICK, "paper": PAPER}

#: Experiments whose runners take no ExperimentConfig (purely analytical).
_ANALYTICAL = {"table1", "fig12"}

#: Pseudo experiment id expanding to the whole evaluation.
_ALL = "all"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables and figures from the paper.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=(
            "experiment ids (e.g. fig3 table2), or 'all' for the entire "
            "evaluation; omit with --list to enumerate"
        ),
    )
    parser.add_argument("--list", action="store_true", dest="list_experiments",
                        help="list available experiment ids and exit")
    parser.add_argument("--preset", choices=sorted(_PRESETS), default="quick",
                        help="simulation budget preset (default: quick)")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="directory to write <experiment>.txt files into")
    parser.add_argument("--precision", type=int, default=3,
                        help="decimal places in printed tables (default: 3)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "worker processes for simulation cells (default: 1 = serial; "
            "0 = one per CPU); results are identical for every value"
        ),
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help=(
            "simulator backend policy: 'auto' (default) runs eligible cells "
            "on the vectorized batched simulators (renewal-slot kernel for "
            "fully connected cells, conflict-matrix kernel for hidden-node "
            "cells) and everything else on the scalar slotted/event "
            "simulators, 'slotted' is the scalar-only policy, 'event' "
            "forces event-driven simulation; cells with no batched kernel "
            "(dynamic-activity hidden-node scenarios, n-estimating schemes) "
            "always fall back to the scalar simulators"
        ),
    )
    parser.add_argument(
        "--traffic", choices=("poisson", "cbr", "on-off"), default=None,
        help=(
            "arrival-process family for the unsaturated-workload experiments "
            "(fig_load_sweep); overrides the preset's traffic_kind "
            "(default: poisson)"
        ),
    )
    parser.add_argument(
        "--load", type=float, action="append", default=None, metavar="X",
        help=(
            "offered-load multiplier (fraction of the channel's saturation "
            "frame rate) for fig_load_sweep; repeat for several points; "
            "overrides the preset's load grid"
        ),
    )
    parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="FRAMES",
        help=(
            "per-station FIFO capacity for the unsaturated-workload "
            "experiments; must be at least 1 (default: the preset's "
            "traffic_queue_limit)"
        ),
    )
    parser.add_argument(
        "--retry-limit", type=int, default=None, metavar="N",
        help=(
            "MAC retry limit for fig_fct_sweep: frames are discarded after "
            "N transmission attempts; must be at least 1 (default: the "
            "preset's retry_limit, 7)"
        ),
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="cache completed simulation cells as JSON under DIR and reuse "
             "them on later runs",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the result cache even if --cache-dir is set",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed simulation cell to stderr "
             "(includes a rolling cells/s rate and ETA)",
    )
    parser.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="FILE.jsonl",
        help="stream campaign telemetry (phase spans, per-cell task records, "
             "simulator loop counters) to FILE as JSONL; summarise it later "
             "with 'python -m repro.experiments trace-report FILE'",
    )
    parser.add_argument(
        "--probe-interval", type=float, default=None, metavar="SECONDS",
        help="sample per-station controller state (contention window / "
             "attempt probability, IdleSense idle estimate, queue depth, "
             "windowed throughput, channel busy fraction) every SECONDS of "
             "virtual time in every simulator backend and stream the series "
             "as 'probe' records into the --trace file (requires --trace; "
             "probes never change simulation results)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run cProfile around every unit of simulation work (inside the "
             "worker processes under --jobs) and print an aggregated top-20 "
             "hotspot table at the end",
    )
    parser.add_argument(
        "--journal", type=pathlib.Path, default=None, metavar="FILE.jsonl",
        help="durably append every completed simulation cell to FILE "
             "(fsync'd JSONL); combine with --resume to skip the recorded "
             "cells after a crash or Ctrl-C, with bit-identical results",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed cells from the --journal file instead of "
             "overwriting it (requires --journal)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock budget: a hung unit's worker pool is "
             "torn down and the unit retried; with a timeout every unit runs "
             "in a worker process, --jobs 1 included (default: no timeout)",
    )
    parser.add_argument(
        "--task-retries", type=int, default=2, metavar="N",
        help="re-dispatch a failed simulation unit up to N times before "
             "quarantining it as a named failure (default: 2; 0 disables "
             "retries)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.1, metavar="SECONDS",
        help="base of the exponential retry backoff (attempt n waits "
             "about SECONDS * 2^(n-1), with deterministic per-task jitter; "
             "default: 0.1)",
    )
    return parser


def _resolve_experiments(requested: List[str],
                         parser: argparse.ArgumentParser) -> List[str]:
    unknown = [
        name for name in requested
        if name not in EXPERIMENT_REGISTRY and name != _ALL
    ]
    if unknown:
        parser.error(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(EXPERIMENT_REGISTRY))} (or 'all')"
        )
    if _ALL in requested:
        # 'all' expands in registry order (table1 first, then the figures as
        # the paper presents them); explicit extra ids are redundant.
        return list(EXPERIMENT_REGISTRY)
    return requested


def _run_one(name: str, config: ExperimentConfig,
             executor: CampaignExecutor) -> str:
    runner = EXPERIMENT_REGISTRY[name]
    if name in _ANALYTICAL:
        result = runner()
    else:
        result = runner(config, executor=executor)
    return format_result(result)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``trace-report`` is a subcommand with its own argument set; dispatch
    # before the main parser sees (and rejects) its options.
    if argv and argv[0] == "trace-report":
        from ..telemetry.report import trace_report_main

        return trace_report_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_experiments:
        for name in sorted(EXPERIMENT_REGISTRY):
            print(name)
        return 0

    if not args.experiments:
        parser.error("no experiments given (use --list to see the available ids)")

    names = _resolve_experiments(args.experiments, parser)
    config = _PRESETS[args.preset]
    if args.traffic is not None:
        config = config.evolve(traffic_kind=args.traffic)
    if args.load:
        for load in args.load:
            if not math.isfinite(load) or load <= 0:
                parser.error(
                    f"--load must be a positive finite multiplier, got {load!r}"
                )
        config = config.evolve(load_points=tuple(args.load))
    if args.queue_limit is not None:
        if args.queue_limit < 1:
            parser.error(
                f"--queue-limit must be at least 1 frame, got {args.queue_limit}"
            )
        config = config.evolve(traffic_queue_limit=args.queue_limit)
    if args.retry_limit is not None:
        if args.retry_limit < 1:
            parser.error(
                "--retry-limit must allow at least one transmission attempt, "
                f"got {args.retry_limit}"
            )
        config = config.evolve(retry_limit=args.retry_limit)
    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
    if (args.cache_dir is not None and args.cache_dir.exists()
            and not args.cache_dir.is_dir()):
        parser.error(f"--cache-dir: '{args.cache_dir}' exists and is not a directory")
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal FILE.jsonl")
    if args.task_timeout is not None and (
            not math.isfinite(args.task_timeout) or args.task_timeout <= 0):
        parser.error(
            f"--task-timeout must be a positive finite number of seconds, "
            f"got {args.task_timeout!r}"
        )
    if args.task_retries < 0:
        parser.error(f"--task-retries must be non-negative, got {args.task_retries}")
    if not math.isfinite(args.retry_backoff) or args.retry_backoff < 0:
        parser.error(
            f"--retry-backoff must be a non-negative finite number of "
            f"seconds, got {args.retry_backoff!r}"
        )
    if args.probe_interval is not None:
        if not math.isfinite(args.probe_interval) or args.probe_interval <= 0:
            parser.error(
                f"--probe-interval must be a positive finite number of "
                f"seconds, got {args.probe_interval!r}"
            )
        if args.trace is None:
            parser.error("--probe-interval requires --trace FILE.jsonl "
                         "(probe records stream into the trace)")

    writer = None
    telemetry = None
    if args.trace is not None:
        from ..telemetry import Telemetry
        from ..telemetry.trace import TRACE_SCHEMA_VERSION, JsonlTraceWriter

        writer = JsonlTraceWriter(args.trace)
        # Records stream straight to disk; keeping them in memory too would
        # double the footprint of long campaigns for no benefit.
        telemetry = Telemetry(sink=writer.write, keep_records=False)
        telemetry.emit({
            "type": "meta",
            "t0": time.time(),
            "schema": TRACE_SCHEMA_VERSION,
            "info": {
                "experiments": " ".join(names),
                "preset": args.preset,
                "backend": args.backend,
                "jobs": args.jobs,
                "profile": args.profile,
                "probe_interval": args.probe_interval,
            },
        })

    executor = CampaignExecutor(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=stderr_progress if args.progress else None,
        backend=args.backend,
        telemetry=telemetry,
        profile=args.profile,
        task_timeout_s=args.task_timeout,
        task_retries=args.task_retries,
        retry_backoff_s=args.retry_backoff,
        journal=args.journal,
        resume=args.resume,
        probe=(ProbeConfig(args.probe_interval)
               if args.probe_interval is not None else None),
    )

    interrupted = False
    try:
        for name in names:
            started = time.perf_counter()
            text = _run_one(name, config, executor)
            elapsed = time.perf_counter() - started
            print(text)
            print(f"[{name} regenerated in {elapsed:.1f} s]\n")
            if args.output is not None:
                (args.output / f"{name}.txt").write_text(text + "\n",
                                                         encoding="utf-8")
    except KeyboardInterrupt:
        # The executor has already drained in-flight work and flushed the
        # journal; report the partial state and exit nonzero (130 = SIGINT)
        # instead of dumping a pool traceback.
        interrupted = True
        print("\n[campaign] interrupted by user (Ctrl-C); partial results "
              "reported above", file=sys.stderr, flush=True)
    finally:
        executor.close()
        if writer is not None:
            writer.close()
            print(f"[trace: {writer.count} record(s) written to {args.trace}; "
                  f"summarise with 'python -m repro.experiments trace-report "
                  f"{args.trace}']")

    if args.profile:
        report = executor.profile_report()
        if report is not None:
            print(report)

    if executor.stats.total:
        print(f"[campaign: {executor.stats.summary()}, jobs={executor.jobs}, "
              f"backend={executor.backend}]")
    if args.journal is not None and executor.journal is not None:
        print(f"[journal: {len(executor.journal)} completed cell(s) recorded "
              f"in {args.journal}; resume with --journal {args.journal} "
              f"--resume]")
    if interrupted:
        return 130
    if executor.stats.failures:
        print(f"[campaign] {len(executor.stats.failures)} task(s) were "
              f"quarantined — see the failure report above", file=sys.stderr,
              flush=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
