"""Campaign execution: fan tasks out over processes, with caching.

:func:`execute_task` turns one :class:`RunTask` descriptor into a
:class:`~repro.sim.metrics.SimulationResult`; it is a pure function of the
descriptor, which is what makes everything else here trivial to reason
about: running tasks serially, in a process pool, or loading them from the
on-disk cache all produce bit-identical results.

:class:`CampaignExecutor` is the engine the per-figure runners hand their
task lists to.  It resolves each ``auto`` task to a concrete backend
(``batched`` for eligible tasks under the default ``backend="auto"`` policy
— connected *and* hidden-node topologies both have vectorized kernels —
scalar ``slotted``/``event`` otherwise),
deduplicates identical tasks, satisfies what it can from a
:class:`~repro.experiments.campaign.journal.CampaignJournal` checkpoint and
the :class:`~repro.experiments.campaign.cache.ResultCache`, groups batched
misses into vectorized calls (:mod:`~repro.experiments.campaign.batching`),
fans the remaining work out over a ``ProcessPoolExecutor`` (``jobs > 1``)
or an in-process loop (``jobs == 1``), stores fresh results back into the
cache, and reports progress through a callback.

Fault tolerance
---------------
Campaign-scale runs must survive their own size, so dispatch is built
around small recoverable *work units* (:class:`_WorkUnit`) and one shared
failure policy (:class:`_UnitScheduler`):

* a dead worker (``BrokenProcessPool``) rebuilds the pool and re-dispatches
  only the lost units — completed results are never recomputed;
* a hung unit is reclaimed by the per-unit ``task_timeout_s`` (the pool is
  torn down and rebuilt; innocent in-flight units are re-dispatched
  uncharged);
* failing units are retried ``task_retries`` times with exponential
  backoff and deterministic per-task jitter, then quarantined as a named
  :class:`FailedTask` in ``CampaignStats.failures`` instead of aborting
  the campaign (their result positions come back as ``None``);
* a failed batched *group* is split into single-cell batched units first
  (composition independence keeps per-cell results bit-identical), so one
  poisoned cell cannot take down its batch-mates; a batched singleton that
  still exhausts its retries gets one last attempt on the scalar backend
  (:meth:`RunTask.scalar_equivalent`), surfaced through the same
  fallback-reason machinery as planner fallbacks;
* with a journal configured, every completed cell is durably checkpointed
  the moment it finishes, so a killed campaign resumes where it stopped.
"""

from __future__ import annotations

import cProfile
import dataclasses
import math
import os
import signal
import sys
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...mac.idlesense import IdleSenseBackoff
from ...sim.dynamics import step_activity
from ...sim.metrics import SimulationResult
from ...sim.simulation import WlanSimulation
from ...sim.slotted import SlottedSimulator
from ...telemetry import NULL, NullTelemetry, Telemetry
from ...telemetry import session as telemetry_session
from ...telemetry.probes import ProbeConfig
from ...telemetry.probes import session as probe_session
from ...telemetry.profiling import hotspot_report, stats_dict, top_hotspots
from ...testing.faults import FaultPlan, InjectedCrash
from .batching import (
    batch_eligible,
    degraded_reason,
    execute_batch,
    fallback_reason,
    plan_batches,
)
from .cache import ResultCache
from .journal import CampaignJournal
from .specs import RunTask

__all__ = [
    "execute_task",
    "CampaignExecutor",
    "CampaignStats",
    "CampaignEvent",
    "FailedTask",
    "stderr_progress",
    "BACKENDS",
]

#: Backend policies accepted by :class:`CampaignExecutor` and the CLI.
#: ``auto`` prefers the vectorized batched simulators for eligible tasks —
#: the renewal-slot backend for connected topologies, the conflict-matrix
#: backend for hidden-node topologies — and falls back to the scalar
#: simulators; ``slotted`` is the scalar-only policy (the pre-batching
#: behaviour); ``event`` forces event-driven simulation everywhere;
#: ``batched`` is an alias of ``auto``'s preference that makes the intent
#: explicit.  Tasks whose ``simulator`` field is not ``auto`` are never
#: rewritten; ineligible hidden-node tasks (unbatchable scheme, activity
#: schedule) use the event simulator.
BACKENDS = ("auto", "slotted", "event", "batched")

#: Upper bound on one retry-backoff sleep, whatever the attempt count.
_MAX_BACKOFF_S = 30.0


def _station_observed_idle(policies) -> Optional[float]:
    """Mean station-observed idle average (IdleSense stations), if any."""
    observed = [
        policy.observed_average_idle_slots()
        for policy in policies
        if isinstance(policy, IdleSenseBackoff)
        and policy.observed_average_idle_slots() is not None
    ]
    if not observed:
        return None
    return float(np.mean(observed))


def execute_task(task: RunTask) -> SimulationResult:
    """Run one task descriptor to completion (pure, process-safe).

    The returned result's ``extra`` mapping is annotated with the task key,
    seed and label, plus ``station_observed_idle`` when the scheme's stations
    track their own idle average (Table III needs it).  Tasks resolved to the
    batched backend run as a batch of one (the executor groups them into
    larger batches instead of coming through here).
    """
    if task.resolved_simulator() == "batched":
        [result] = execute_batch([task])
        return result

    scheme = task.scheme.build(task.phy)
    activity = step_activity(task.activity) if task.activity else None

    if task.resolved_simulator() == "slotted":
        simulator = SlottedSimulator(
            scheme,
            num_stations=task.topology.num_stations,
            phy=task.phy,
            seed=task.seed,
            activity=activity,
            report_interval=task.report_interval,
            frame_error_rate=task.frame_error_rate,
            traffic=task.traffic,
        )
        result = simulator.run(duration=task.duration, warmup=task.warmup)
        policies = simulator.policies
    else:
        simulation = WlanSimulation(
            scheme=scheme,
            connectivity=task.topology.build(),
            phy=task.phy,
            seed=task.seed,
            activity=activity,
            report_interval=task.report_interval,
            frame_error_rate=task.frame_error_rate,
            traffic=task.traffic,
        )
        result = simulation.run(duration=task.duration, warmup=task.warmup)
        policies = simulation.policies

    extra = dict(result.extra)
    extra["task_key"] = task.task_key()
    extra["seed"] = task.seed
    if task.label:
        extra["label"] = task.label
    station_idle = _station_observed_idle(policies)
    if station_idle is not None:
        extra["station_observed_idle"] = station_idle
    return dataclasses.replace(result, extra=extra)


@dataclass(frozen=True)
class _UnitReport:
    """Worker-side measurements for one executed unit of work.

    Shipped back across the process pool next to the unit's results when
    telemetry or profiling is active: ``records`` are the telemetry records
    the unit emitted in the worker (simulator counters, nested spans),
    ``profile`` is the picklable cProfile stats mapping.
    """

    pid: int
    queue_wait_s: float
    execute_s: float
    records: Tuple[Dict[str, Any], ...] = ()
    profile: Optional[Dict[Any, Any]] = None


@dataclass
class _WorkUnit:
    """One recoverable dispatch unit: a batch group or a single scalar cell.

    Mutable on purpose — the scheduler tracks retry ``attempts``, the
    earliest re-dispatch time (``not_before``, a ``perf_counter`` value for
    backoff), and whether the unit is a crash/hang *suspect* (at most one
    suspect runs at a time so a repeat failure is attributable to it).
    """

    tasks: List[RunTask]
    keys: List[str]
    batched: bool
    group_id: Optional[int] = None
    attempts: int = 0
    suspect: bool = False
    not_before: float = 0.0
    #: Original task key when this unit is the scalar-degraded last attempt
    #: of a batched cell (results are recorded under that key).
    degraded_from: Optional[str] = None


def _execute_unit(tasks: Tuple[RunTask, ...], batched: bool, submitted: float,
                  collect: bool, profile: bool,
                  faults: Optional[FaultPlan] = None,
                  allow_exit: bool = True,
                  probe: Optional[ProbeConfig] = None,
                  ) -> Tuple[List[SimulationResult], _UnitReport]:
    """Run one unit of work (pool-side wrapper).

    ``submitted`` is the parent's wall-clock epoch at submission time, so
    queue wait (time spent waiting for a worker) is measured across the
    process boundary.  ``faults`` is the test-only injection plan; it fires
    before simulation starts so an injected crash/hang/error models a
    failure of the unit as a whole (``allow_exit=False`` keeps in-process
    crashes survivable).  ``probe`` installs a simulator probe session for
    the unit; the probe records land in ``records`` next to the simulator
    counters (probes never influence results — see
    :mod:`repro.telemetry.probes`).
    """
    started = time.time()
    if faults is not None:
        for task in tasks:
            faults.inject(task.task_key(), task.label, allow_exit=allow_exit)
    tel = Telemetry(keep_records=True) if collect else None
    profiler = cProfile.Profile() if profile else None
    begin = time.perf_counter()
    with telemetry_session(tel) if tel is not None else nullcontext(), \
            probe_session(probe) if probe is not None else nullcontext():
        if profiler is not None:
            profiler.enable()
        try:
            if batched:
                results = execute_batch(list(tasks))
            else:
                results = [execute_task(task) for task in tasks]
        finally:
            if profiler is not None:
                profiler.disable()
    report = _UnitReport(
        pid=os.getpid(),
        queue_wait_s=max(0.0, started - submitted),
        execute_s=time.perf_counter() - begin,
        records=tuple(tel.records) if tel is not None else (),
        profile=stats_dict(profiler) if profiler is not None else None,
    )
    return results, report


def _ignore_sigint() -> None:
    """Pool-worker initializer: Ctrl-C is the parent's to handle.

    A terminal sends SIGINT to the whole process group.  The parent drains
    the in-flight units and then tears the pool down, so a worker keeps
    working instead of dying with a ``KeyboardInterrupt`` traceback.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly hung or broken) process pool down immediately.

    ``shutdown()`` alone would block forever behind a hung worker, so the
    workers are terminated first, then killed if they ignore SIGTERM.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:
            pass
    for process in processes:
        if process.is_alive():
            try:
                process.kill()
                process.join(timeout=5.0)
            except Exception:
                pass


@dataclass(frozen=True)
class FailedTask:
    """One campaign cell quarantined after exhausting its retry budget."""

    key: str
    label: str
    backend: str
    seed: int
    #: Failure class of the final attempt: ``error``, ``crash``, ``timeout``.
    reason: str
    attempts: int
    #: ``TypeName: message`` of the final exception.
    error: str
    #: Formatted traceback of the final exception (when one was available).
    traceback: str = ""

    def describe(self) -> str:
        name = self.label or self.key[:12]
        return (f"{name} (key={self.key[:12]}, backend={self.backend}, "
                f"seed={self.seed}, reason={self.reason}, "
                f"attempts={self.attempts}): {self.error}")


@dataclass
class CampaignStats:
    """Counters describing how a campaign's cells were satisfied."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    deduplicated: int = 0
    #: Cells served from the resume journal without re-execution.
    journaled: int = 0
    #: Cells (not groups) that executed on the batched backend.
    batched_cells: int = 0
    #: Unique ``auto`` hidden-node cells that fell back from the
    #: conflict-matrix backend to the event-driven simulator.
    fallbacks: int = 0
    #: Unit re-dispatches after a retryable failure.
    retries: int = 0
    #: Units that exceeded ``task_timeout_s`` (each also counts a retry or
    #: a quarantine).
    timeouts: int = 0
    #: Worker-pool rebuilds (crash or timeout recovery).
    recoveries: int = 0
    #: Batched groups split into single-cell units after a failure.
    degraded_groups: int = 0
    #: Batched singletons given a final attempt on the scalar backend.
    scalar_retries: int = 0
    #: Corrupt result-cache entries quarantined during lookup.
    cache_corrupt: int = 0
    #: Tasks quarantined after exhausting every retry.
    failures: List[FailedTask] = field(default_factory=list)

    def merge(self, other: "CampaignStats") -> None:
        self.total += other.total
        self.executed += other.executed
        self.cached += other.cached
        self.deduplicated += other.deduplicated
        self.journaled += other.journaled
        self.batched_cells += other.batched_cells
        self.fallbacks += other.fallbacks
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.recoveries += other.recoveries
        self.degraded_groups += other.degraded_groups
        self.scalar_retries += other.scalar_retries
        self.cache_corrupt += other.cache_corrupt
        self.failures.extend(other.failures)

    def summary(self) -> str:
        text = (
            f"{self.total} task(s): {self.executed} simulated "
            f"({self.batched_cells} batched), {self.cached} from cache, "
            f"{self.deduplicated} deduplicated"
        )
        if self.journaled:
            text += f", {self.journaled} from journal"
        if self.fallbacks:
            text += f", {self.fallbacks} scalar fallback(s)"
        if self.retries:
            text += f", {self.retries} retried"
        if self.timeouts:
            text += f", {self.timeouts} timed out"
        if self.recoveries:
            text += f", {self.recoveries} pool rebuild(s)"
        if self.degraded_groups:
            text += f", {self.degraded_groups} batch group(s) split"
        if self.scalar_retries:
            text += f", {self.scalar_retries} degraded to scalar"
        if self.cache_corrupt:
            text += f", {self.cache_corrupt} corrupt cache entr(ies) quarantined"
        if self.failures:
            text += f", {len(self.failures)} task(s) quarantined"
        return text


@dataclass(frozen=True)
class CampaignEvent:
    """One progress notification (a cell finished or was served from cache)."""

    completed: int
    total: int
    label: str
    key: str
    source: str  # "run", "cache", "journal" or "failed"
    elapsed_s: float
    #: Simulator backend that produced (or would produce) the cell.
    backend: str = "?"
    #: Completion rate over the recent window (cells/s); falls back to the
    #: whole-campaign average until enough events accumulate.
    rolling_cells_per_s: float = 0.0
    #: Estimated seconds until the campaign completes, from the rolling rate
    #: and the remaining cell count (``None`` when the rate is still zero).
    eta_s: Optional[float] = None

    @property
    def cells_per_s(self) -> float:
        """Completed-cell throughput of the campaign so far."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def stderr_progress(event: CampaignEvent) -> None:
    """Stock progress reporter: one line per completed cell on stderr."""
    tail = ""
    if event.eta_s is not None and event.completed < event.total:
        tail = (f", {event.rolling_cells_per_s:.1f} cells/s rolling, "
                f"ETA {_format_eta(event.eta_s)}")
    print(
        f"[campaign {event.completed}/{event.total}] "
        f"{event.label or event.key[:12]} ({event.source}:{event.backend}, "
        f"{event.elapsed_s:.1f}s, {event.cells_per_s:.1f} cells/s{tail})",
        file=sys.stderr,
        flush=True,
    )


class _UnitScheduler:
    """Fault-tolerant dispatch loop shared by serial and parallel modes.

    Owns the work-unit queue and the failure policy; the executor supplies
    callbacks for delivering results (``deliver``), quarantining exhausted
    tasks (``quarantine``) and naming degradations (``note_fallback``).
    """

    def __init__(
        self,
        executor: "CampaignExecutor",
        units: Sequence[_WorkUnit],
        stats: CampaignStats,
        deliver: Callable[[_WorkUnit, List[SimulationResult],
                           Optional[_UnitReport]], None],
        quarantine: Callable[[_WorkUnit, str, BaseException], None],
        note_fallback: Callable[[str, str], None],
    ) -> None:
        self._ex = executor
        self._stats = stats
        self._deliver = deliver
        self._quarantine = quarantine
        self._note_fallback = note_fallback
        self._queue: deque = deque(units)

    # -- shared failure policy -----------------------------------------
    def _handle_failure(self, unit: _WorkUnit, kind: str,
                        exc: BaseException) -> None:
        """Decide a failed unit's fate: split, retry, degrade or quarantine."""
        ex = self._ex
        if unit.batched and len(unit.tasks) > 1:
            # Graceful degradation, step 1: don't let one poisoned cell take
            # down its batch-mates.  Single-cell *batched* units keep every
            # innocent cell bit-identical (composition independence); the
            # group failure is not charged to any cell's retry budget.
            self._stats.degraded_groups += 1
            print(
                f"[campaign] batched group of {len(unit.tasks)} cell(s) "
                f"failed ({kind}: {exc}); re-dispatching its cells "
                f"individually", file=sys.stderr, flush=True,
            )
            suspect = kind != "error"
            for task, key in zip(unit.tasks, unit.keys):
                self._queue.append(_WorkUnit(
                    tasks=[task], keys=[key], batched=True, suspect=suspect,
                ))
            return
        unit.attempts += 1
        if unit.attempts <= ex._task_retries:
            self._stats.retries += 1
            delay = ex._backoff_s(unit.attempts, unit.keys[0])
            unit.not_before = time.perf_counter() + delay
            self._queue.append(unit)
            return
        task = unit.tasks[0]
        if (unit.degraded_from is None
                and task.resolved_simulator() == "batched"):
            # Graceful degradation, step 2: one final attempt on the scalar
            # oracle backend before giving the cell up.  Reuses the
            # fallback-reason machinery so the degradation is named in the
            # trace and counted next to planner fallbacks.
            scalar = task.scalar_equivalent()
            reason = degraded_reason(kind, scalar.resolved_simulator())
            self._stats.scalar_retries += 1
            self._note_fallback(unit.keys[0], reason)
            print(
                f"[campaign] cell {task.label or unit.keys[0][:12]} failed "
                f"{unit.attempts} attempt(s) on the batched backend; "
                f"{reason}", file=sys.stderr, flush=True,
            )
            self._queue.append(_WorkUnit(
                tasks=[scalar], keys=[unit.keys[0]], batched=False,
                attempts=ex._task_retries, suspect=unit.suspect,
                degraded_from=unit.keys[0],
            ))
            return
        self._quarantine(unit, kind, exc)

    # -- serial execution ----------------------------------------------
    def run_serial(self) -> None:
        """In-process execution (timeouts cannot preempt; crash/error
        injection still exercises the retry/quarantine policy)."""
        ex = self._ex
        while self._queue:
            unit = self._queue.popleft()
            delay = unit.not_before - time.perf_counter()
            if delay > 0:
                time.sleep(min(delay, _MAX_BACKOFF_S))
            try:
                results, report = ex._execute_inline(unit)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                kind = "crash" if isinstance(exc, InjectedCrash) else "error"
                self._handle_failure(unit, kind, exc)
                continue
            self._deliver(unit, results, report)

    # -- parallel execution --------------------------------------------
    def _pop_dispatchable(self, now: float,
                          suspects_in_flight: int) -> Optional[_WorkUnit]:
        for index, unit in enumerate(self._queue):
            if unit.not_before > now:
                continue
            if unit.suspect and suspects_in_flight > 0:
                # One suspect at a time: if the pool dies again, the lone
                # suspect in flight is unambiguously the culprit.
                continue
            del self._queue[index]
            return unit
        return None

    def _wait_budget(self, in_flight: Dict[Any, Tuple[_WorkUnit, float]],
                     workers: int) -> Optional[float]:
        now = time.perf_counter()
        budget: Optional[float] = None
        deadlines = [dl for _, dl in in_flight.values() if dl != math.inf]
        if deadlines:
            budget = max(0.0, min(deadlines) - now) + 0.01
        if self._queue and len(in_flight) < workers:
            # A queued unit is waiting on backoff (or on the suspect slot):
            # wake up when the earliest becomes dispatchable.
            release = max(0.05, min(u.not_before for u in self._queue) - now)
            budget = release if budget is None else min(budget, release)
        return budget

    def run_parallel(self, workers: int) -> None:
        ex = self._ex
        timeout = ex._task_timeout_s
        pool = ex._new_pool(workers)
        in_flight: Dict[Any, Tuple[_WorkUnit, float]] = {}
        suspects = 0
        try:
            while self._queue or in_flight:
                now = time.perf_counter()
                while self._queue and len(in_flight) < workers:
                    unit = self._pop_dispatchable(now, suspects)
                    if unit is None:
                        break
                    try:
                        future = pool.submit(
                            _execute_unit, tuple(unit.tasks), unit.batched,
                            time.time(), ex._telemetry.enabled, ex._profile,
                            ex._faults, True, ex._probe,
                        )
                    except BrokenExecutor as exc:
                        self._queue.appendleft(unit)
                        pool = self._recover(pool, workers, in_flight,
                                             [], exc)
                        suspects = 0
                        now = time.perf_counter()
                        continue
                    if unit.suspect:
                        suspects += 1
                    deadline = now + timeout if timeout is not None else math.inf
                    in_flight[future] = (unit, deadline)
                if not in_flight:
                    if not self._queue:
                        break
                    pause = (min(u.not_before for u in self._queue)
                             - time.perf_counter())
                    if pause > 0:
                        time.sleep(min(pause, 1.0))
                    continue
                done, _ = wait(set(in_flight),
                               timeout=self._wait_budget(in_flight, workers),
                               return_when=FIRST_COMPLETED)
                lost: List[_WorkUnit] = []
                broken: Optional[BaseException] = None
                for future in done:
                    unit, _ = in_flight.pop(future)
                    if unit.suspect:
                        suspects -= 1
                    try:
                        results, report = future.result()
                    except BrokenExecutor as exc:
                        broken = exc
                        lost.append(unit)
                    except Exception as exc:
                        self._handle_failure(unit, "error", exc)
                    else:
                        self._deliver(unit, results, report)
                if broken is not None:
                    pool = self._recover(pool, workers, in_flight, lost,
                                         broken)
                    suspects = 0
                    continue
                if timeout is not None:
                    now = time.perf_counter()
                    expired = {f for f, (u, dl) in in_flight.items()
                               if dl <= now}
                    if expired:
                        pool = self._expire(pool, workers, in_flight,
                                            expired, timeout)
                        suspects = 0
            pool.shutdown(wait=True)
        except KeyboardInterrupt:
            self._drain_on_interrupt(pool, in_flight)
            raise
        except BaseException:
            _kill_pool(pool)
            raise

    # -- crash recovery ------------------------------------------------
    def _recover(self, pool: ProcessPoolExecutor, workers: int,
                 in_flight: Dict[Any, Tuple[_WorkUnit, float]],
                 lost: List[_WorkUnit],
                 cause: BaseException) -> ProcessPoolExecutor:
        """A worker died: rebuild the pool, re-dispatch only lost units.

        Attribution is inherently ambiguous — every in-flight future fails
        with ``BrokenProcessPool`` when any worker dies — so only a *lone*
        lost unit, or a unit already marked suspect, is charged an attempt.
        The rest are marked suspect and re-dispatched uncharged (suspects
        then run one at a time, making the next crash attributable).
        """
        ex = self._ex
        for future, (unit, _) in list(in_flight.items()):
            del in_flight[future]
            got = None
            if future.done() and not future.cancelled():
                try:
                    got = future.result()
                except BaseException:
                    got = None
            if got is not None:
                self._deliver(unit, got[0], got[1])
            else:
                lost.append(unit)
        self._stats.recoveries += 1
        with ex._telemetry.span("recover", cause=type(cause).__name__,
                                lost_units=len(lost)):
            _kill_pool(pool)
            pool = ex._new_pool(workers)
        print(
            f"[campaign] worker process died ({type(cause).__name__}); "
            f"rebuilt the pool and re-dispatched {len(lost)} lost unit(s)",
            file=sys.stderr, flush=True,
        )
        for unit in lost:
            if unit.suspect or len(lost) == 1:
                self._handle_failure(unit, "crash", cause)
            else:
                unit.suspect = True
                unit.not_before = 0.0
                self._queue.appendleft(unit)
        return pool

    def _expire(self, pool: ProcessPoolExecutor, workers: int,
                in_flight: Dict[Any, Tuple[_WorkUnit, float]],
                expired: set, timeout: float) -> ProcessPoolExecutor:
        """Some units exceeded the task timeout: kill the pool, charge them.

        A hung worker cannot be reclaimed any other way — the pool has no
        per-task cancellation — so the whole pool is torn down.  Expired
        units are charged a timeout; innocent in-flight units re-dispatch
        uncharged.
        """
        ex = self._ex
        timed_out: List[_WorkUnit] = []
        survivors: List[_WorkUnit] = []
        for future, (unit, _) in list(in_flight.items()):
            del in_flight[future]
            if future.done() and not future.cancelled():
                try:
                    results, report = future.result()
                except BaseException as exc:
                    self._handle_failure(unit, "error", exc)
                else:
                    self._deliver(unit, results, report)
                continue
            if future in expired:
                timed_out.append(unit)
            else:
                survivors.append(unit)
        self._stats.recoveries += 1
        with ex._telemetry.span("recover", cause="timeout",
                                lost_units=len(timed_out)):
            _kill_pool(pool)
            pool = ex._new_pool(workers)
        print(
            f"[campaign] {len(timed_out)} unit(s) exceeded the "
            f"{timeout:g}s task timeout; killed the worker pool and "
            f"re-dispatched {len(survivors)} innocent unit(s)",
            file=sys.stderr, flush=True,
        )
        for unit in timed_out:
            self._stats.timeouts += 1
            self._handle_failure(
                unit, "timeout",
                TimeoutError(f"unit exceeded the task timeout of "
                             f"{timeout:g}s"),
            )
        for unit in survivors:
            unit.not_before = 0.0
            self._queue.appendleft(unit)
        return pool

    def _drain_on_interrupt(
        self, pool: ProcessPoolExecutor,
        in_flight: Dict[Any, Tuple[_WorkUnit, float]],
    ) -> None:
        """Ctrl-C: cancel queued work, give in-flight units a short grace
        period to finish (their results are delivered and journaled), then
        tear the pool down."""
        dropped = len(self._queue)
        self._queue.clear()
        grace = min(self._ex._task_timeout_s or 5.0, 5.0)
        print(
            f"[campaign] interrupt: cancelled {dropped} queued unit(s), "
            f"draining {len(in_flight)} in-flight unit(s) "
            f"(up to {grace:.0f}s)", file=sys.stderr, flush=True,
        )
        try:
            done, _ = wait(set(in_flight), timeout=grace)
            for future in done:
                unit, _ = in_flight.pop(future)
                try:
                    results, report = future.result()
                except BaseException:
                    continue
                self._deliver(unit, results, report)
        finally:
            _kill_pool(pool)


class CampaignExecutor:
    """Runs lists of :class:`RunTask` cells, in parallel and/or from cache.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (default) runs tasks in-process;
        ``0``/negative means "one per CPU".  Because each task derives all of
        its randomness from its own descriptor, results are bit-identical for
        every value of ``jobs``.
    cache_dir:
        When given, completed cells are stored as JSON under this directory
        and later campaigns skip any cell whose task hash is already present.
    use_cache:
        Set False to ignore ``cache_dir`` entirely (force re-simulation).
    progress:
        Optional callback receiving a :class:`CampaignEvent` per completed
        cell (see :func:`stderr_progress`).
    backend:
        Backend policy for tasks whose ``simulator`` is ``auto`` (see
        :data:`BACKENDS`).  Backend resolution is per-task and deterministic,
        so results (and cache keys) depend only on the policy, never on
        which other tasks happen to share the campaign.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` collector.  When given,
        the executor emits spans for its plan / cache-lookup / group /
        dispatch / execute phases, one ``task`` record per completed cell,
        and relays the simulator counters workers collect.  Telemetry never
        influences results: runs with and without it are bit-identical.
    profile:
        When True, every unit of work runs under :mod:`cProfile` (in the
        worker processes when ``jobs > 1``); :meth:`profile_report` renders
        the aggregated top-N hotspots afterwards.
    task_timeout_s:
        Per-unit wall-clock budget (``jobs > 1`` only — an in-process hang
        cannot be preempted).  An expired unit's worker pool is torn down
        and rebuilt; the unit is charged one attempt.
    task_retries:
        How many times a failed unit is re-dispatched before quarantine
        (default 2; 0 disables retries).
    retry_backoff_s:
        Base of the exponential retry backoff: attempt *n* waits
        ``retry_backoff_s * 2**(n-1)`` scaled by a deterministic per-task
        jitter in ``[0.5, 1.5)``.
    journal:
        Path of a :class:`CampaignJournal` checkpoint file.  Every
        completed cell is durably appended; cells already present are
        served without re-execution (see ``resume``), making a killed
        campaign resumable with bit-identical results.
    resume:
        When False, an existing journal at ``journal`` is overwritten
        instead of replayed (default True: resume).
    faults:
        Test-only :class:`~repro.testing.faults.FaultPlan` injected into
        every unit execution and after journal/cache writes.
    probe:
        Optional :class:`~repro.telemetry.probes.ProbeConfig` installed
        around every executed unit (including in worker processes), making
        the simulators sample per-station controller state and emit
        ``probe`` records through ``telemetry``.  Like telemetry, probes
        never influence results and never enter task hashes or cache keys
        — but note that cache/journal hits skip execution entirely, so
        previously cached cells produce no probe records.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        progress: Optional[Callable[[CampaignEvent], None]] = None,
        backend: str = "auto",
        telemetry: Optional[Union[Telemetry, NullTelemetry]] = None,
        profile: bool = False,
        task_timeout_s: Optional[float] = None,
        task_retries: int = 2,
        retry_backoff_s: float = 0.1,
        journal: Optional[os.PathLike] = None,
        resume: bool = True,
        faults: Optional[FaultPlan] = None,
        probe: Optional[ProbeConfig] = None,
    ) -> None:
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend '{backend}'; expected one of {BACKENDS}"
            )
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive (or None)")
        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        self._jobs = int(jobs)
        self._backend = backend
        self._cache = (
            ResultCache(cache_dir) if (cache_dir is not None and use_cache) else None
        )
        self._progress = progress
        self._telemetry = telemetry if telemetry is not None else NULL
        self._profile = bool(profile)
        self._task_timeout_s = task_timeout_s
        self._task_retries = int(task_retries)
        self._retry_backoff_s = float(retry_backoff_s)
        if journal is None or isinstance(journal, CampaignJournal):
            self._journal = journal
        else:
            self._journal = CampaignJournal(journal, resume=resume)
        self._faults = faults
        self._probe = probe
        #: Picklable cProfile stats mappings, one per profiled unit of work,
        #: accumulated across :meth:`run` calls (see :meth:`profile_report`).
        self.profile_stats: List[Dict[Any, Any]] = []
        #: Cumulative counters across every :meth:`run` call.
        self.stats = CampaignStats()
        #: Counters of the most recent :meth:`run` call only.
        self.last_run_stats = CampaignStats()

    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def telemetry(self) -> Union[Telemetry, NullTelemetry]:
        return self._telemetry

    @property
    def journal(self) -> Optional[CampaignJournal]:
        return self._journal

    @property
    def probe(self) -> Optional[ProbeConfig]:
        return self._probe

    def close(self) -> None:
        """Flush and close the journal (results remain resumable)."""
        if self._journal is not None:
            self._journal.close()

    def profile_report(self, limit: int = 20) -> Optional[str]:
        """Aggregated top-``limit`` hotspot table (``None`` without data)."""
        if not self.profile_stats:
            return None
        return hotspot_report(self.profile_stats, limit)

    # ------------------------------------------------------------------
    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=_ignore_sigint)

    def _backoff_s(self, attempts: int, key: str) -> float:
        """Exponential backoff with deterministic per-task jitter.

        The jitter derives from the task key (not a RNG) so retry schedules
        are reproducible — the same property every other piece of campaign
        randomness has.
        """
        if self._retry_backoff_s <= 0:
            return 0.0
        jitter = 0.5 + int(key[:8], 16) / 0xFFFFFFFF  # [0.5, 1.5)
        delay = self._retry_backoff_s * (2 ** (attempts - 1)) * jitter
        return min(delay, _MAX_BACKOFF_S)

    def _execute_inline(
        self, unit: _WorkUnit,
    ) -> Tuple[List[SimulationResult], Optional[_UnitReport]]:
        """Run one unit in-process (serial mode)."""
        tel = self._telemetry
        if not (tel.enabled or self._profile or self._faults is not None
                or self._probe is not None):
            if unit.batched:
                return execute_batch(unit.tasks), None
            return [execute_task(task) for task in unit.tasks], None
        results, report = _execute_unit(
            tuple(unit.tasks), unit.batched, time.time(), tel.enabled,
            self._profile, self._faults, allow_exit=False,
            probe=self._probe,
        )
        return results, report

    def _absorb_report(self, report: _UnitReport) -> None:
        if report.profile is not None:
            self.profile_stats.append(report.profile)
        for rec in report.records:
            self._telemetry.emit(rec)

    # ------------------------------------------------------------------
    def _resolve_backend(self, task: RunTask) -> Tuple[RunTask, Optional[str]]:
        """Rewrite an ``auto`` task to the backend this policy selects.

        Explicit simulator choices are always respected.  Under ``auto`` and
        ``batched``, eligible tasks run vectorized (connected topologies on
        the renewal-slot backend, hidden-node topologies on the
        conflict-matrix backend); everything else falls back to the scalar
        simulators (slotted for connected, event-driven otherwise).

        The second element names *why* an ``auto`` hidden-node task degraded
        from the conflict-matrix backend to the much slower event-driven
        simulator (``None`` for every other outcome); the executor surfaces
        it as a one-line warning and in the cell's telemetry record.
        """
        if task.simulator != "auto":
            return task, None
        if self._backend == "event":
            return dataclasses.replace(task, simulator="event"), None
        if self._backend in ("auto", "batched"):
            reason = fallback_reason(task)
            if reason is None:
                return dataclasses.replace(task, simulator="batched"), None
            if task.topology.kind != "connected":
                # Hidden-node fallback: the slotted simulator cannot model
                # it, so the cell lands on the event-driven one.  Worth
                # naming — this is a ~3x slowdown per cell.
                return task, reason
        return task, None  # auto: slotted for connected cells, event otherwise

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[RunTask]) -> List[Optional[SimulationResult]]:
        """Execute all tasks; results come back in input order.

        Identical tasks (same :meth:`RunTask.task_key`) are simulated once
        and fanned back out to every position that requested them.  Pending
        batched tasks are grouped into vectorized calls; per-cell results do
        not depend on the grouping.

        Tasks that exhaust their retry budget are quarantined (named in
        ``last_run_stats.failures`` and reported on stderr) and their
        result positions are ``None`` — a partial campaign returns instead
        of aborting.  A :class:`KeyboardInterrupt` drains in-flight work,
        flushes the journal, prints the partial summary, then re-raises.
        """
        tel = self._telemetry
        stats = CampaignStats(total=len(tasks))
        started = time.perf_counter()

        with tel.span("plan", tasks=len(tasks)) as plan_args:
            resolutions = [self._resolve_backend(task) for task in tasks]
            tasks = [task for task, _ in resolutions]

            # Deduplicate by content hash, preserving first-seen order; the
            # fallback diagnosis travels with the unique cell.
            first_task: Dict[str, RunTask] = {}
            positions: Dict[str, List[int]] = {}
            fallbacks: Dict[str, str] = {}
            fallback_counts: Dict[str, int] = {}
            for index, (task, reason) in enumerate(resolutions):
                key = task.task_key()
                if key in positions:
                    stats.deduplicated += 1
                else:
                    first_task[key] = task
                    if reason is not None:
                        stats.fallbacks += 1
                        fallbacks[key] = reason
                        fallback_counts[reason] = fallback_counts.get(reason, 0) + 1
                positions.setdefault(key, []).append(index)
            plan_args["unique"] = len(first_task)
            plan_args["fallbacks"] = stats.fallbacks

        for reason, count in sorted(fallback_counts.items()):
            print(
                f"[campaign] {count} hidden-node cell(s) fell back from the "
                f"conflict-matrix backend to the event-driven simulator: "
                f"{reason}",
                file=sys.stderr, flush=True,
            )

        resolved: Dict[str, SimulationResult] = {}
        completed = 0
        # Rolling completion window for the progress line's rate and ETA.
        window: deque = deque(maxlen=32)

        def report(key: str, source: str) -> None:
            nonlocal completed
            completed += 1
            elapsed = time.perf_counter() - started
            window.append((elapsed, completed))
            if self._progress is not None:
                span = elapsed - window[0][0]
                gain = completed - window[0][1]
                if span > 0 and gain > 0:
                    rolling = gain / span
                elif elapsed > 0:
                    rolling = completed / elapsed
                else:
                    rolling = 0.0
                remaining = len(first_task) - completed
                eta = remaining / rolling if rolling > 0 else None
                self._progress(CampaignEvent(
                    completed=completed,
                    total=len(first_task),
                    label=first_task[key].label,
                    key=key,
                    source=source,
                    elapsed_s=elapsed,
                    backend=first_task[key].resolved_simulator(),
                    rolling_cells_per_s=rolling,
                    eta_s=eta,
                ))

        def trace_task(key: str, source: str, task: RunTask,
                       group: Optional[int] = None,
                       unit: Optional[_UnitReport] = None,
                       unit_cells: int = 1,
                       extra: Optional[Dict[str, Any]] = None) -> None:
            if not tel.enabled:
                return
            execute_s = unit.execute_s if unit is not None else None
            record = {
                "type": "task",
                "key": key,
                "label": task.label,
                "backend": task.resolved_simulator(),
                "source": source,
                "cache_hit": source == "cache",
                "t0": time.time(),
                "group": group,
                "worker_pid": unit.pid if unit is not None else None,
                "queue_wait_s": unit.queue_wait_s if unit is not None else None,
                "execute_s": execute_s,
                "cells_per_s": (unit_cells / execute_s
                                if execute_s else None),
                "fallback_reason": fallbacks.get(key),
            }
            if extra:
                record.update(extra)
            tel.emit(record)

        def record(key: str, task: RunTask, result: SimulationResult,
                   group: Optional[int] = None,
                   unit: Optional[_UnitReport] = None,
                   unit_cells: int = 1) -> None:
            # ``key`` is the campaign's key for the cell; ``task`` is the
            # descriptor that actually executed (they differ only for a
            # scalar-degraded cell, whose result is cached under its own
            # scalar key but resolved/journaled under the campaign key).
            resolved[key] = result
            stats.executed += 1
            if task.resolved_simulator() == "batched":
                stats.batched_cells += 1
            self._store(task, result)
            if self._journal is not None:
                self._journal.record(key, result, label=task.label)
                if self._faults is not None:
                    self._faults.tear_after_write(
                        "torn-journal", key, task.label, self._journal.path)
            trace_task(key, "run", task, group=group, unit=unit,
                       unit_cells=unit_cells)
            report(key, "run")

        def note_fallback(key: str, reason: str) -> None:
            fallbacks[key] = reason

        def deliver(unit: _WorkUnit, results: List[SimulationResult],
                    unit_report: Optional[_UnitReport]) -> None:
            if unit_report is not None:
                # Relay the worker's simulator counters / profile exactly
                # once per delivered unit (serial and parallel both land
                # here, including recovery-harvested futures).
                self._absorb_report(unit_report)
            for task, key, result in zip(unit.tasks, unit.keys, results):
                record(key, task, result, group=unit.group_id,
                       unit=unit_report, unit_cells=len(unit.tasks))

        def quarantine(unit: _WorkUnit, kind: str, exc: BaseException) -> None:
            error_text = f"{type(exc).__name__}: {exc}"
            tb = "".join(traceback_module.format_exception(
                type(exc), exc, exc.__traceback__))
            for task, key in zip(unit.tasks, unit.keys):
                stats.failures.append(FailedTask(
                    key=key,
                    label=task.label,
                    backend=task.resolved_simulator(),
                    seed=task.seed,
                    reason=kind,
                    attempts=unit.attempts,
                    error=error_text,
                    traceback=tb,
                ))
                trace_task(key, "failed", task, group=unit.group_id,
                           extra={"failure_reason": kind,
                                  "error": error_text,
                                  "attempts": unit.attempts})
                report(key, "failed")

        # Serve journaled cells first (a resumed campaign skips them), then
        # cache hits, so only true misses reach the pool.
        if self._journal is not None:
            with tel.span("journal-lookup",
                          candidates=len(first_task)) as journal_args:
                for key, task in first_task.items():
                    hit = self._journal.lookup(key)
                    if hit is not None:
                        resolved[key] = hit
                        stats.journaled += 1
                        trace_task(key, "journal", task)
                        report(key, "journal")
                journal_args["hits"] = stats.journaled

        pending: List[str] = []
        corrupt_before = (self._cache.corrupt_entries
                          if self._cache is not None else 0)
        candidates = [key for key in first_task if key not in resolved]
        with tel.span("cache-lookup", candidates=len(candidates)) as cache_args:
            # The cache reports corrupt-entry counters through the ambient
            # telemetry session; install ours so they land in this trace.
            with telemetry_session(tel if tel.enabled else None):
                for key in candidates:
                    cached = (self._cache.load(key)
                              if self._cache is not None else None)
                    if cached is not None:
                        resolved[key] = cached
                        stats.cached += 1
                        trace_task(key, "cache", first_task[key])
                        report(key, "cache")
                    else:
                        pending.append(key)
            cache_args["hits"] = stats.cached
            cache_args["misses"] = len(pending)
            if self._cache is not None:
                stats.cache_corrupt = (self._cache.corrupt_entries
                                       - corrupt_before)
                if stats.cache_corrupt:
                    cache_args["corrupt"] = stats.cache_corrupt

        # Group pending batched tasks into vectorized units of work (split to
        # keep every worker busy when running in a pool); every other pending
        # task is a scalar unit of its own.
        with tel.span("group") as group_args:
            batch_groups = plan_batches(
                [
                    first_task[key] for key in pending
                    if first_task[key].resolved_simulator() == "batched"
                ],
                target_units=self._jobs if self._jobs > 1 else None,
            )
            scalar_keys = [
                key for key in pending
                if first_task[key].resolved_simulator() != "batched"
            ]
            group_args["batch_groups"] = len(batch_groups)
            group_args["scalar_units"] = len(scalar_keys)

        try:
            if pending:
                units = [
                    _WorkUnit(
                        tasks=list(group),
                        keys=[task.task_key() for task in group],
                        batched=True,
                        group_id=index,
                    )
                    for index, group in enumerate(batch_groups)
                ] + [
                    _WorkUnit(tasks=[first_task[key]], keys=[key],
                              batched=False)
                    for key in scalar_keys
                ]
                # A single unit still goes through the pool when a timeout
                # or fault plan needs a killable worker process.
                serial = self._jobs == 1 or (
                    len(units) == 1 and self._task_timeout_s is None
                )
                workers = min(self._jobs, len(units))
                mode = "serial" if serial else "parallel"
                with tel.span("dispatch", mode=mode, units=len(units),
                              workers=workers):
                    scheduler = _UnitScheduler(
                        self, units, stats, deliver, quarantine, note_fallback,
                    )
                if serial:
                    with tel.span("execute", mode="serial"):
                        scheduler.run_serial()
                else:
                    with tel.span("execute", mode="parallel",
                                  workers=workers):
                        scheduler.run_parallel(workers)
        except KeyboardInterrupt:
            self._finish_run(stats, tel, interrupted=True)
            print(
                f"[campaign] interrupted: {completed}/{len(first_task)} "
                f"task(s) complete"
                + (f"; progress journaled in {self._journal.path} "
                   f"(re-run with the same journal to resume)"
                   if self._journal is not None else ""),
                file=sys.stderr, flush=True,
            )
            raise

        if self._profile and tel.enabled and self.profile_stats:
            tel.emit({
                "type": "profile",
                "t0": time.time(),
                "units": len(self.profile_stats),
                "top": top_hotspots(self.profile_stats),
            })

        self._finish_run(stats, tel)
        return [resolved.get(task.task_key()) for task in tasks]

    def _finish_run(self, stats: CampaignStats,
                    tel: Union[Telemetry, NullTelemetry],
                    interrupted: bool = False) -> None:
        """Book stats, emit campaign counters, print the failure report."""
        if stats.failures:
            print(
                f"[campaign] {len(stats.failures)} task(s) quarantined "
                f"after repeated failures:", file=sys.stderr, flush=True,
            )
            for failed in stats.failures:
                print(f"  - {failed.describe()}", file=sys.stderr, flush=True)
        if tel.enabled:
            fault_counters = {
                name: value
                for name, value in (
                    ("retries", stats.retries),
                    ("timeouts", stats.timeouts),
                    ("recoveries", stats.recoveries),
                    ("quarantined", len(stats.failures)),
                    ("degraded_groups", stats.degraded_groups),
                    ("scalar_retries", stats.scalar_retries),
                    ("journal_hits", stats.journaled),
                    ("cache_corrupt", stats.cache_corrupt),
                    ("interrupted", int(interrupted)),
                )
                if value
            }
            if fault_counters:
                tel.counters("campaign", fault_counters)
        self.last_run_stats = stats
        self.stats.merge(stats)

    # ------------------------------------------------------------------
    def _store(self, task: RunTask, result: SimulationResult) -> None:
        if self._cache is not None:
            path = self._cache.store(task, result)
            if self._faults is not None:
                self._faults.tear_after_write(
                    "torn-cache", task.task_key(), task.label, path)
