"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures with a
reduced-but-representative budget (single-digit minutes for the whole suite on
a laptop), prints the reproduced numbers and, on a record run, writes them to
``benchmarks/results/<experiment>.txt``, so that directory documents the
reproduction.

Alongside each ``.txt``, every benchmark produces a machine-readable
``benchmarks/results/BENCH_<name>.json`` (wall clock, backend, grid shape,
cells and cells/sec where the test provides them) via the autouse
:func:`bench_json` fixture, so the performance trajectory is tracked between
PRs; ``benchmarks/check_benchmark_regression.py`` compares these against the
committed baselines in ``benchmarks/baselines/``; CI runs it at a tolerance
of 60 % (``BENCH_REGRESSION_TOLERANCE=0.6``), so it fails on a >60 %
cells/sec regression of the batched backends (the script's own default is
25 %).

Every write under ``benchmarks/results/`` goes through :func:`write_result`,
which writes only when ``BENCH_RECORD=1`` is exported.  A plain test run
therefore leaves the tracked records as committed; a record run (CI's
benchmark step, or a deliberate local refresh) rewrites them.

The budgets live here so they can be tightened or relaxed in one place:

* ``bench_config_connected`` — fully connected sweeps (fast slotted simulator,
  so more node counts are affordable);
* ``bench_config_hidden`` — hidden-node sweeps (event-driven simulator, so
  fewer node counts and shorter runs).

For paper-scale budgets use :data:`repro.experiments.PAPER` instead (hours).
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
import tracemalloc
from dataclasses import dataclass

import pytest

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_result
from repro.experiments.runner import ExperimentResult

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(filename: str, text: str) -> None:
    """Write ``results/<filename>``, but only on a ``BENCH_RECORD=1`` run."""
    if os.environ.get("BENCH_RECORD", "") != "1":
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / filename).write_text(text, encoding="utf-8")


#: Budget for fully connected experiments (slotted simulator).
BENCH_CONNECTED = ExperimentConfig(
    node_counts=(10, 20, 40, 60),
    seeds=(1,),
    measure_duration=1.5,
    warmup=0.3,
    adaptive_warmup=8.0,
    update_period=0.05,
    report_interval=0.5,
    dynamic_segment_duration=6.0,
)

#: Budget for hidden-node experiments (event-driven simulator).
BENCH_HIDDEN = ExperimentConfig(
    node_counts=(10, 20),
    seeds=(1,),
    measure_duration=1.0,
    warmup=0.3,
    adaptive_warmup=4.0,
    update_period=0.05,
    report_interval=0.5,
    dynamic_segment_duration=6.0,
)


@dataclass
class Overhead:
    """What :func:`measure_overhead` measured, in seconds."""

    disabled_s: float      # best wall clock of the disabled runs
    disabled_cpu_s: float  # best CPU time of the disabled runs
    enabled_cpu_s: float   # best CPU time of the enabled runs

    @property
    def ratio(self) -> float:
        return self.enabled_cpu_s / self.disabled_cpu_s

    def record(self) -> dict:
        """The fields a BENCH record's ``extra`` keeps."""
        return {"disabled_s": round(self.disabled_s, 2),
                "disabled_cpu_s": round(self.disabled_cpu_s, 2),
                "enabled_cpu_s": round(self.enabled_cpu_s, 2),
                "enabled_ratio": round(self.ratio, 3)}

    def __str__(self) -> str:
        return (f"best CPU time disabled {self.disabled_cpu_s:.2f}s, enabled "
                f"{self.enabled_cpu_s:.2f}s ({self.ratio:.2f}x)")


def measure_overhead(benchmark, run, disabled, enabled, rounds=3):
    """Time ``run(enabled)`` against ``run(disabled)``.

    After a warm-up run (imports, allocator, CPU governor), ``rounds``
    disabled runs alternate with ``rounds`` enabled runs, and the timed
    ``benchmark.pedantic`` run is one more disabled run.  Each side's time
    is its best CPU time (``time.process_time``): campaigns at ``jobs=1``
    run every cell in this process, so that counts all of the work.  The
    best wall clock of the disabled runs is kept for ``cells_per_s``.

    Returns the result of the last untimed disabled run, that of the last
    enabled run, and the :class:`Overhead`.
    """

    def timed(arg):
        started, cpu_started = time.perf_counter(), time.process_time()
        result = run(arg)
        return (result, time.perf_counter() - started,
                time.process_time() - cpu_started)

    timed(disabled)
    wall = disabled_cpu = enabled_cpu = float("inf")
    for _ in range(rounds):
        reference, elapsed, cpu = timed(disabled)
        wall, disabled_cpu = min(wall, elapsed), min(disabled_cpu, cpu)
        result, _, cpu = timed(enabled)
        enabled_cpu = min(enabled_cpu, cpu)
    _, elapsed, cpu = benchmark.pedantic(timed, args=(disabled,), rounds=1,
                                         iterations=1)
    wall, disabled_cpu = min(wall, elapsed), min(disabled_cpu, cpu)
    return reference, result, Overhead(wall, disabled_cpu, enabled_cpu)


@pytest.fixture(scope="session")
def bench_config_connected() -> ExperimentConfig:
    return BENCH_CONNECTED


@pytest.fixture(scope="session")
def bench_config_hidden() -> ExperimentConfig:
    return BENCH_HIDDEN


@pytest.fixture
def overhead(benchmark):
    """:func:`measure_overhead` with this test's ``benchmark`` fixture."""
    return functools.partial(measure_overhead, benchmark)


@pytest.fixture(scope="session")
def result_writer():
    """:func:`write_result`, for benchmarks that write their own files."""
    return write_result


def _bench_name(request) -> str:
    """``benchmarks/test_fig6_hidden_r16.py`` -> ``fig6_hidden_r16``.

    Modules with a single collected test (all current benchmarks) keep the
    short module-derived name, which is what the committed regression-gate
    baselines key on.  If a module ever grows a second test (or a
    parametrization), each test gets a suffixed file instead of the last
    writer silently overwriting the shared record.
    """
    stem = request.node.module.__name__.rsplit(".", 1)[-1]
    if stem.startswith("test_"):
        stem = stem[len("test_"):]
    module_id = request.node.nodeid.split("::")[0]
    siblings = [
        item for item in request.session.items
        if item.nodeid.split("::")[0] == module_id
    ]
    if len(siblings) > 1:
        test_id = "".join(
            ch if ch.isalnum() else "_" for ch in request.node.name
        )
        stem = f"{stem}__{test_id}"
    return stem


@pytest.fixture(autouse=True)
def bench_json(request):
    """Record ``results/BENCH_<name>.json`` for every benchmark test.

    The fixture yields a mutable mapping; tests may fill ``backend``,
    ``grid_shape``, ``cells`` and free-form ``extra`` fields (the speedup
    benchmarks record their measured ratios here).  ``cells_per_s`` is
    derived from ``cells`` and the measured wall clock when the test does
    not set it explicitly.  The wall clock always covers the whole test
    body, so even benchmarks that record nothing still contribute a timing
    trajectory between PRs.

    Peak memory is recorded additively (old baselines parse unchanged):

    * ``peak_rss_kb`` — the process high-water mark around the test
      (``getrusage``; essentially free, so it is always on).  The RSS
      counter is process-monotonic, so a test re-walking memory another
      test already claimed records ``0`` growth.
    * ``peak_traced_kb`` — exact Python allocation peak via
      :mod:`tracemalloc`, only when ``BENCH_TRACEMALLOC=1`` is exported:
      tracing every allocation slows the numpy-heavy batched kernels by
      more than an order of magnitude, so timing-derived metrics from such
      runs must not be compared against committed baselines.
    """
    meta = {"backend": None, "grid_shape": None, "cells": None,
            "cells_per_s": None, "extra": {}}
    trace_memory = os.environ.get("BENCH_TRACEMALLOC", "") == "1"
    rss_before = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  if resource is not None else None)
    if trace_memory and not tracemalloc.is_tracing():
        tracemalloc.start()
    else:
        trace_memory = False
    started = time.perf_counter()
    yield meta
    wall = time.perf_counter() - started
    peak_traced = None
    if trace_memory:
        peak_traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    payload = {
        "name": request.node.name,
        "wall_clock_s": round(wall, 3),
        "backend": meta["backend"],
        "grid_shape": meta["grid_shape"],
        "cells": meta["cells"],
        "cells_per_s": meta["cells_per_s"],
    }
    if rss_before is not None:
        rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux (bytes on macOS, where a 1024x error is
        # obvious enough not to gate anything on).
        payload["peak_rss_kb"] = max(0, rss_after - rss_before)
    if peak_traced is not None:
        payload["peak_traced_kb"] = round(peak_traced / 1024, 1)
    if meta["cells_per_s"] is None and meta["cells"] and wall > 0:
        payload["cells_per_s"] = round(meta["cells"] / wall, 3)
    if meta["extra"]:
        payload.update(meta["extra"])
    write_result(f"BENCH_{_bench_name(request)}.json",
                 json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def record_result(bench_json):
    """Print an experiment result and record it under benchmarks/results/.

    Also annotates the test's ``BENCH_<name>.json`` with the result's grid
    shape so the machine-readable record identifies what was measured.
    """

    def _record(result: ExperimentResult, filename: str) -> ExperimentResult:
        text = format_result(result)
        print("\n" + text + "\n")
        write_result(filename, text + "\n")
        bench_json["grid_shape"] = [len(result.rows), len(result.columns)]
        bench_json["extra"].setdefault("experiment", filename.rsplit(".", 1)[0])
        return result

    return _record
