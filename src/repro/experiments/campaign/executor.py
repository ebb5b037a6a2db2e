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
deduplicates identical tasks, satisfies what it can from the
:class:`~repro.experiments.campaign.cache.ResultCache`, groups batched
misses into vectorized calls (:mod:`~repro.experiments.campaign.batching`),
fans the remaining work out over a ``ProcessPoolExecutor`` (``jobs > 1``,
or any ``jobs`` with a task timeout) or an in-process pool (``jobs == 1``),
stores fresh results back into the cache, and reports progress through a
callback.

Fault tolerance
---------------
Campaign-scale runs must survive their own size, so dispatch is built
around small recoverable *work units* (:class:`_WorkUnit`) and one dispatch
loop with one failure policy (:class:`_CampaignRun`).  ``jobs=1`` runs
through the same loop on an in-process pool (:class:`_InlinePool`), unless a
task timeout is set: nothing can preempt a call in the campaign's own
process, so a timed campaign always runs on a process pool, one worker for
``jobs=1``.  Pool workers exit on their own when the campaign process dies
(:func:`_init_worker`).  The policy:

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
* with a cache configured, every completed cell is stored the moment it
  finishes, so a killed campaign re-run with the same cache resumes where
  it stopped.
"""

from __future__ import annotations

import cProfile
import dataclasses
import math
import os
import signal
import sys
import threading
import time
import traceback as traceback_module
from collections import Counter, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    AbstractSet, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

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
    annotate,
    degraded_reason,
    execute_batch,
    fallback_reason,
    plan_batches,
)
from .cache import ResultCache
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
#: behaviour); ``event`` forces event-driven simulation everywhere.  Tasks
#: whose ``simulator`` field is not ``auto`` are never rewritten;
#: ineligible hidden-node tasks (unbatchable scheme, activity schedule) use
#: the event simulator.
BACKENDS = ("auto", "slotted", "event")

#: Upper bound on one retry-backoff sleep, whatever the attempt count.
_MAX_BACKOFF_S = 30.0

#: How often a pool worker checks that the campaign process is alive.
_PARENT_POLL_S = 1.0


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

    result = annotate(task, result)
    station_idle = _station_observed_idle(policies)
    if station_idle is not None:
        result.extra["station_observed_idle"] = station_idle
    return result


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

    Mutable on purpose — the dispatch loop tracks retry ``attempts``, the
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


def _init_worker() -> None:
    """Pool-worker initializer: Ctrl-C is the parent's to handle, and the
    worker ends with the campaign process.

    A terminal sends SIGINT to the whole process group.  The parent drains
    the in-flight units and then tears the pool down, so a worker keeps
    working instead of dying with a ``KeyboardInterrupt`` traceback.

    A parent killed outright tears nothing down, and its workers would wait
    on the call queue forever.  A daemon thread watches the parent pid (a
    dead parent's children are re-parented) and ends the worker within
    :data:`_PARENT_POLL_S` of the parent's death.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()

    def watch_parent() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch_parent, name="watch-parent",
                     daemon=True).start()


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
    source: str  # "run", "cache" or "failed"
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


class _InlinePool(Executor):
    """An executor that runs each call at once, in the calling process.

    ``jobs=1`` campaigns dispatch through it, so they share the process
    pool's loop and failure policy; ``submit`` returns a finished future.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class _CampaignRun:
    """The books and steps of one :meth:`CampaignExecutor.run` call.

    It owns the unique cells, the resolved results, the run's
    :class:`CampaignStats`, the progress window, the fallback reasons and
    the work-unit queue, and runs the steps plan → serve → execute →
    finish.  Every unit goes through one dispatch loop with one failure
    policy, whatever ``jobs`` is.
    """

    def __init__(self, executor: "CampaignExecutor", total: int) -> None:
        self.ex = executor
        self.tel = executor._telemetry
        self.stats = CampaignStats(total=total)
        self.started = time.perf_counter()
        #: The unique cells, by task key, in first-seen order.
        self.cells: Dict[str, RunTask] = {}
        self.resolved: Dict[str, SimulationResult] = {}
        #: Why a cell left its preferred backend (planner or runtime).
        self.fallbacks: Dict[str, str] = {}
        self.completed = 0
        #: Rolling completion window for the progress line's rate and ETA.
        self.window: deque = deque(maxlen=32)
        self.queue: deque = deque()
        self.in_flight: Dict[Future, Tuple[_WorkUnit, float]] = {}
        self.serial = True
        self.workers = 1
        self.pool: Optional[Executor] = None

    # -- plan -----------------------------------------------------------
    def plan(self, tasks: Sequence[RunTask]) -> List[str]:
        """Resolve backends and deduplicate; return every task's key, in
        input order.  The fallback diagnosis travels with the unique cell."""
        keys = []
        with self.tel.span("plan", tasks=len(tasks)) as plan_args:
            for task in tasks:
                task, reason = self.ex._resolve_backend(task)
                key = task.task_key()
                keys.append(key)
                if key in self.cells:
                    self.stats.deduplicated += 1
                    continue
                self.cells[key] = task
                if reason is not None:
                    self.fallbacks[key] = reason
            self.stats.fallbacks = len(self.fallbacks)
            plan_args["unique"] = len(self.cells)
            plan_args["fallbacks"] = self.stats.fallbacks
        for reason, count in sorted(Counter(self.fallbacks.values()).items()):
            print(
                f"[campaign] {count} hidden-node cell(s) fell back from the "
                f"conflict-matrix backend to the event-driven simulator: "
                f"{reason}",
                file=sys.stderr, flush=True,
            )
        return keys

    # -- serve ----------------------------------------------------------
    def serve(self) -> List[str]:
        """Serve cache hits (a re-run campaign skips the cells it stored
        before); return the misses, which alone need executing."""
        cache = self.ex._cache
        pending = list(self.cells)
        corrupt_before = cache.corrupt_entries if cache is not None else 0
        # The cache reports corrupt-entry counters through the ambient
        # telemetry session; install ours so they land in this trace.
        with self.tel.span("cache-lookup", candidates=len(pending)) as args, \
                telemetry_session(self.tel if self.tel.enabled else None):
            if cache is not None:
                misses = []
                for key in pending:
                    hit = cache.load(key)
                    if hit is None:
                        misses.append(key)
                        continue
                    self.resolved[key] = hit
                    self._trace(key, "cache", self.cells[key])
                    self._report(key, "cache")
                pending = misses
            # ``completed`` counts the cells served so far.
            self.stats.cached = args["hits"] = self.completed
            args["misses"] = len(pending)
            if cache is not None:
                self.stats.cache_corrupt = (cache.corrupt_entries
                                            - corrupt_before)
                if self.stats.cache_corrupt:
                    args["corrupt"] = self.stats.cache_corrupt
        return pending

    # -- execute --------------------------------------------------------
    def execute(self, pending: List[str]) -> None:
        """Group the misses into work units and run them to completion.

        Pending batched tasks are grouped into vectorized units of work
        (split to keep every worker busy when running in a pool); every
        other pending task is a scalar unit of its own.
        """
        ex, tel = self.ex, self.tel
        with tel.span("group") as group_args:
            groups = plan_batches(
                [self.cells[key] for key in pending
                 if self.cells[key].resolved_simulator() == "batched"],
                target_units=ex._jobs if ex._jobs > 1 else None,
            )
            scalar = [key for key in pending
                      if self.cells[key].resolved_simulator() != "batched"]
            group_args["batch_groups"] = len(groups)
            group_args["scalar_units"] = len(scalar)
        if not pending:
            return
        units = [
            _WorkUnit(tasks=list(group),
                      keys=[task.task_key() for task in group],
                      batched=True, group_id=index)
            for index, group in enumerate(groups)
        ] + [
            _WorkUnit(tasks=[self.cells[key]], keys=[key], batched=False)
            for key in scalar
        ]
        # A timeout needs a killable worker, so a timed campaign runs on a
        # process pool whatever its job or unit count.
        self.serial = ex._task_timeout_s is None and (
            ex._jobs == 1 or len(units) == 1)
        self.workers = min(ex._jobs, len(units))
        mode = "serial" if self.serial else "parallel"
        with tel.span("dispatch", mode=mode, units=len(units),
                      workers=self.workers):
            self.queue.extend(units)
        with tel.span("execute", mode=mode,
                      **({} if self.serial else {"workers": self.workers})):
            self._dispatch()

    def _new_pool(self) -> Executor:
        if self.serial:
            return _InlinePool()
        return ProcessPoolExecutor(max_workers=self.workers,
                                   initializer=_init_worker)

    def _dispatch(self) -> None:
        """The dispatch loop: submit, wait, settle, recover, until done."""
        self.pool = self._new_pool()
        try:
            while self.queue or self.in_flight:
                while len(self.in_flight) < self.workers:
                    unit = self._pop_dispatchable()
                    if unit is None:
                        break
                    self._submit(unit)
                if not self.in_flight:
                    # Every queued unit is waiting on its retry backoff.
                    pause = (min(u.not_before for u in self.queue)
                             - time.perf_counter())
                    if pause > 0:
                        time.sleep(min(pause, 1.0))
                    continue
                done, _ = wait(set(self.in_flight),
                               timeout=self._wait_budget(),
                               return_when=FIRST_COMPLETED)
                broken = [exc for exc in map(self._settle, done)
                          if exc is not None]
                if broken:
                    self._rebuild(broken[0])
                    continue
                now = time.perf_counter()
                expired = {future for future, (_, deadline)
                           in self.in_flight.items() if deadline <= now}
                if expired:
                    self._rebuild(None, expired)
            self.pool.shutdown(wait=True)
        except KeyboardInterrupt:
            self._drain()
            raise
        except BaseException:
            _kill_pool(self.pool)
            raise

    def _pop_dispatchable(self) -> Optional[_WorkUnit]:
        """The first queued unit past its backoff, if any.

        Suspects run one at a time: if the pool dies again, the lone
        suspect in flight is unambiguously the culprit.
        """
        now = time.perf_counter()
        suspect_busy = any(unit.suspect for unit, _ in self.in_flight.values())
        for index, unit in enumerate(self.queue):
            if unit.not_before <= now and not (unit.suspect and suspect_busy):
                del self.queue[index]
                return unit
        return None

    def _submit(self, unit: _WorkUnit) -> None:
        ex = self.ex
        try:
            future = self.pool.submit(
                _execute_unit, tuple(unit.tasks), unit.batched, time.time(),
                self.tel.enabled, ex._profile, ex._faults, not self.serial,
                ex._probe,
            )
        except BrokenExecutor as exc:
            self.queue.appendleft(unit)
            self._rebuild(exc)
            return
        timeout = ex._task_timeout_s
        deadline = (time.perf_counter() + timeout if timeout is not None
                    else math.inf)
        self.in_flight[future] = (unit, deadline)

    def _wait_budget(self) -> Optional[float]:
        """How long to wait for a future: until the nearest deadline, or
        until a queued unit waiting on backoff becomes dispatchable."""
        now = time.perf_counter()
        budget = min((deadline for _, deadline in self.in_flight.values()),
                     default=math.inf)
        budget = max(0.0, budget - now) + 0.01
        if self.queue and len(self.in_flight) < self.workers:
            release = max(0.05, min(u.not_before for u in self.queue) - now)
            budget = min(budget, release)
        return None if budget == math.inf else budget

    def _settle(self, future: Future) -> Optional[BaseException]:
        """Turn a finished future into a delivery or a failure.

        When the future's worker was lost (``BrokenExecutor``), the unit
        stays in flight for :meth:`_rebuild` and the error is returned.
        """
        try:
            results, report = future.result()
        except BrokenExecutor as exc:
            return exc
        except Exception as exc:
            # In process, an injected crash raises instead of exiting.
            kind = "crash" if isinstance(exc, InjectedCrash) else "error"
            self._fail(self.in_flight.pop(future)[0], kind, exc)
            return None
        self._deliver(self.in_flight.pop(future)[0], results, report)
        return None

    def _rebuild(self, cause: Optional[BaseException],
                 expired: AbstractSet[Future] = frozenset()) -> None:
        """Replace a pool that lost a worker (``cause``) or holds units
        past the task timeout (``expired``; a hung worker cannot be
        reclaimed any other way, the pool has no per-task cancellation).

        Finished units settle as usual; the rest are lost with the pool.
        After a timeout the expired units are charged and the innocent
        ones re-dispatch uncharged.  After a worker death attribution is
        ambiguous — every in-flight future fails with ``BrokenProcessPool``
        when any worker dies — so only a *lone* lost unit, or one already
        suspect, is charged a crash.  The rest re-dispatch uncharged as
        suspects, which then run one at a time, making the next crash
        attributable.
        """
        lost: List[_WorkUnit] = []
        innocent: List[_WorkUnit] = []
        for future in list(self.in_flight):
            if future.done() and self._settle(future) is None:
                continue
            unit = self.in_flight.pop(future)[0]
            if cause is None and future not in expired:
                innocent.append(unit)
            else:
                lost.append(unit)
        self.stats.recoveries += 1
        name = "timeout" if cause is None else type(cause).__name__
        with self.tel.span("recover", cause=name, lost_units=len(lost)):
            _kill_pool(self.pool)
            self.pool = self._new_pool()
        if cause is None:
            timeout = self.ex._task_timeout_s
            print(
                f"[campaign] {len(lost)} unit(s) exceeded the "
                f"{timeout:g}s task timeout; killed the worker pool and "
                f"re-dispatched {len(innocent)} innocent unit(s)",
                file=sys.stderr, flush=True,
            )
            for unit in lost:
                self.stats.timeouts += 1
                self._fail(unit, "timeout", TimeoutError(
                    f"unit exceeded the task timeout of {timeout:g}s"))
        else:
            print(
                f"[campaign] worker process died ({name}); rebuilt the pool "
                f"and re-dispatched {len(lost)} lost unit(s)",
                file=sys.stderr, flush=True,
            )
            for unit in lost:
                if unit.suspect or len(lost) == 1:
                    self._fail(unit, "crash", cause)
                else:
                    unit.suspect = True
                    innocent.append(unit)
        for unit in innocent:
            unit.not_before = 0.0
            self.queue.appendleft(unit)

    def _drain(self) -> None:
        """Ctrl-C: cancel queued work, give in-flight units a short grace
        period to finish (their results are delivered and cached), then
        tear the pool down."""
        dropped = len(self.queue)
        self.queue.clear()
        grace = min(self.ex._task_timeout_s or 5.0, 5.0)
        print(
            f"[campaign] interrupt: cancelled {dropped} queued unit(s), "
            f"draining {len(self.in_flight)} in-flight unit(s) "
            f"(up to {grace:.0f}s)", file=sys.stderr, flush=True,
        )
        try:
            done, _ = wait(set(self.in_flight), timeout=grace)
            for future in done:
                self._settle(future)
        finally:
            _kill_pool(self.pool)

    # -- failure policy -------------------------------------------------
    def _fail(self, unit: _WorkUnit, kind: str, exc: BaseException) -> None:
        """Decide a failed unit's fate: split, retry, degrade or quarantine."""
        stats, retries = self.stats, self.ex._task_retries
        if unit.batched and len(unit.tasks) > 1:
            # Graceful degradation, step 1: don't let one poisoned cell take
            # down its batch-mates.  Single-cell *batched* units keep every
            # innocent cell bit-identical (composition independence); the
            # group failure is not charged to any cell's retry budget.
            stats.degraded_groups += 1
            print(
                f"[campaign] batched group of {len(unit.tasks)} cell(s) "
                f"failed ({kind}: {exc}); re-dispatching its cells "
                f"individually", file=sys.stderr, flush=True,
            )
            for task, key in zip(unit.tasks, unit.keys):
                self.queue.append(_WorkUnit(
                    tasks=[task], keys=[key], batched=True,
                    suspect=kind != "error",
                ))
            return
        unit.attempts += 1
        if unit.attempts <= retries:
            stats.retries += 1
            delay = self.ex._backoff_s(unit.attempts, unit.keys[0])
            unit.not_before = time.perf_counter() + delay
            self.queue.append(unit)
            return
        task, key = unit.tasks[0], unit.keys[0]
        if unit.degraded_from is None and task.resolved_simulator() == "batched":
            # Graceful degradation, step 2: one final attempt on the scalar
            # oracle backend before giving the cell up.  Reuses the
            # fallback-reason machinery so the degradation is named in the
            # trace and counted next to planner fallbacks.
            scalar = task.scalar_equivalent()
            reason = degraded_reason(kind, scalar.resolved_simulator())
            stats.scalar_retries += 1
            self.fallbacks[key] = reason
            print(
                f"[campaign] cell {task.label or key[:12]} failed "
                f"{unit.attempts} attempt(s) on the batched backend; "
                f"{reason}", file=sys.stderr, flush=True,
            )
            self.queue.append(_WorkUnit(
                tasks=[scalar], keys=[key], batched=False, attempts=retries,
                suspect=unit.suspect, degraded_from=key,
            ))
            return
        # Quarantine: name the cell, keep the campaign going.
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
            self._trace(key, "failed", task, unit,
                        extra={"failure_reason": kind, "error": error_text,
                               "attempts": unit.attempts})
            self._report(key, "failed")

    # -- books ----------------------------------------------------------
    def _deliver(self, unit: _WorkUnit, results: List[SimulationResult],
                 report: _UnitReport) -> None:
        """Book a finished unit: relay its worker records once, then store,
        trace and report each of its cells."""
        ex = self.ex
        if report.profile is not None:
            ex.profile_stats.append(report.profile)
        for record in report.records:
            self.tel.emit(record)
        for task, key, result in zip(unit.tasks, unit.keys, results):
            # ``key`` is the campaign's key for the cell; ``task`` is the
            # descriptor that actually executed (they differ only for a
            # scalar-degraded cell, whose result is cached under its own
            # scalar key but resolved under the campaign key).
            self.resolved[key] = result
            self.stats.executed += 1
            if task.resolved_simulator() == "batched":
                self.stats.batched_cells += 1
            if ex._cache is not None:
                path = ex._cache.store(task, result)
                if ex._faults is not None:
                    ex._faults.tear_after_write(task.task_key(), task.label,
                                                path)
            self._trace(key, "run", task, unit, report)
            self._report(key, "run")

    def _trace(self, key: str, source: str, task: RunTask,
               unit: Optional[_WorkUnit] = None,
               report: Optional[_UnitReport] = None,
               extra: Optional[Dict[str, Any]] = None) -> None:
        """Emit the cell's ``task`` record (no-op without telemetry)."""
        if not self.tel.enabled:
            return
        execute_s = report.execute_s if report is not None else None
        record = {
            "type": "task",
            "key": key,
            "label": task.label,
            "backend": task.resolved_simulator(),
            "source": source,
            "cache_hit": source == "cache",
            "t0": time.time(),
            "group": unit.group_id if unit is not None else None,
            "worker_pid": report.pid if report is not None else None,
            "queue_wait_s": (report.queue_wait_s if report is not None
                             else None),
            "execute_s": execute_s,
            "cells_per_s": (len(unit.tasks) / execute_s
                            if execute_s else None),
            "fallback_reason": self.fallbacks.get(key),
        }
        if extra:
            record.update(extra)
        self.tel.emit(record)

    def _report(self, key: str, source: str) -> None:
        """Count one finished cell and send the progress event."""
        self.completed += 1
        elapsed = time.perf_counter() - self.started
        self.window.append((elapsed, self.completed))
        if self.ex._progress is None:
            return
        span = elapsed - self.window[0][0]
        gain = self.completed - self.window[0][1]
        if span > 0 and gain > 0:
            rolling = gain / span
        elif elapsed > 0:
            rolling = self.completed / elapsed
        else:
            rolling = 0.0
        remaining = len(self.cells) - self.completed
        task = self.cells[key]
        self.ex._progress(CampaignEvent(
            completed=self.completed,
            total=len(self.cells),
            label=task.label,
            key=key,
            source=source,
            elapsed_s=elapsed,
            backend=task.resolved_simulator(),
            rolling_cells_per_s=rolling,
            eta_s=remaining / rolling if rolling > 0 else None,
        ))

    # -- finish ---------------------------------------------------------
    def finish(self, interrupted: bool = False) -> None:
        """Emit the profile and campaign counters, print the failure
        report, and book the stats on the executor."""
        ex, tel, stats = self.ex, self.tel, self.stats
        if ex._profile and tel.enabled and ex.profile_stats and not interrupted:
            tel.emit({
                "type": "profile",
                "t0": time.time(),
                "units": len(ex.profile_stats),
                "top": top_hotspots(ex.profile_stats),
            })
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
                    ("cache_corrupt", stats.cache_corrupt),
                    ("interrupted", int(interrupted)),
                )
                if value
            }
            if fault_counters:
                tel.counters("campaign", fault_counters)
        ex.last_run_stats = stats
        ex.stats.merge(stats)
        if interrupted:
            print(
                f"[campaign] interrupted: {self.completed}/{len(self.cells)} "
                f"task(s) complete"
                + ("; finished cells are in the result cache (re-run with "
                   "the same --cache-dir to resume)"
                   if ex._cache is not None else ""),
                file=sys.stderr, flush=True,
            )


class CampaignExecutor:
    """Runs lists of :class:`RunTask` cells, in parallel and/or from cache.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (default) runs tasks in-process
        (in one worker process when ``task_timeout_s`` is set);
        ``0``/negative means "one per CPU".  Because each task derives all of
        its randomness from its own descriptor, results are bit-identical for
        every value of ``jobs``.
    cache_dir:
        When given, each completed cell is stored as JSON under this
        directory the moment it finishes (written atomically and fsync'd),
        and later campaigns skip any cell whose task hash is already
        present, so a killed or interrupted campaign re-run with the same
        directory resumes with bit-identical results.
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
        When True, every unit of work runs under :mod:`cProfile` (in a
        worker process when a process pool runs it); :meth:`profile_report`
        renders the aggregated top-N hotspots afterwards.
    task_timeout_s:
        Per-unit wall-clock budget.  An in-process call cannot be
        preempted, so with a timeout every unit runs in a worker process
        (one worker at ``jobs=1``).  An expired unit's worker pool is torn
        down and rebuilt; the unit is charged one attempt.
    task_retries:
        How many times a failed unit is re-dispatched before quarantine
        (default 2; 0 disables retries).
    retry_backoff_s:
        Base of the exponential retry backoff: attempt *n* waits
        ``retry_backoff_s * 2**(n-1)`` scaled by a deterministic per-task
        jitter in ``[0.5, 1.5)``.
    faults:
        Test-only :class:`~repro.testing.faults.FaultPlan` injected into
        every unit execution and after cache writes.
    probe:
        Optional :class:`~repro.telemetry.probes.ProbeConfig` installed
        around every executed unit (including in worker processes), making
        the simulators sample per-station controller state and emit
        ``probe`` records through ``telemetry``.  Like telemetry, probes
        never influence results and never enter task hashes or cache keys
        — but note that cache hits skip execution entirely, so
        previously cached cells produce no probe records.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        progress: Optional[Callable[[CampaignEvent], None]] = None,
        backend: str = "auto",
        telemetry: Optional[Union[Telemetry, NullTelemetry]] = None,
        profile: bool = False,
        task_timeout_s: Optional[float] = None,
        task_retries: int = 2,
        retry_backoff_s: float = 0.1,
        faults: Optional[FaultPlan] = None,
        probe: Optional[ProbeConfig] = None,
    ) -> None:
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend '{backend}'; expected one of {BACKENDS}"
            )
        # NaN fails every comparison, so it is refused with ``inf``: a NaN
        # timeout never expires and a NaN backoff never releases its unit.
        if task_timeout_s is not None and not 0 < task_timeout_s < math.inf:
            raise ValueError(
                "task_timeout_s must be a positive finite number of seconds "
                f"(or None), got {task_timeout_s!r}"
            )
        if task_retries < 0:
            raise ValueError(
                f"task_retries must be non-negative, got {task_retries!r}"
            )
        if not 0 <= retry_backoff_s < math.inf:
            raise ValueError(
                "retry_backoff_s must be a non-negative finite number of "
                f"seconds, got {retry_backoff_s!r}"
            )
        self._jobs = int(jobs)
        self._backend = backend
        self._cache = ResultCache(cache_dir) if cache_dir is not None else None
        self._progress = progress
        self._telemetry = telemetry if telemetry is not None else NULL
        self._profile = bool(profile)
        self._task_timeout_s = task_timeout_s
        self._task_retries = int(task_retries)
        self._retry_backoff_s = float(retry_backoff_s)
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

    def profile_report(self, limit: int = 20) -> Optional[str]:
        """Aggregated top-``limit`` hotspot table (``None`` without data)."""
        if not self.profile_stats:
            return None
        return hotspot_report(self.profile_stats, limit)

    # ------------------------------------------------------------------
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

    def _resolve_backend(self, task: RunTask) -> Tuple[RunTask, Optional[str]]:
        """Rewrite an ``auto`` task to the backend this policy selects.

        Explicit simulator choices are always respected.  Under ``auto``,
        eligible tasks run vectorized (connected topologies on the
        renewal-slot backend, hidden-node topologies on the conflict-matrix
        backend); everything else falls back to the scalar simulators
        (slotted for connected, event-driven otherwise).

        The second element names *why* an ``auto`` hidden-node task degraded
        from the conflict-matrix backend to the much slower event-driven
        simulator (``None`` for every other outcome); the executor surfaces
        it as a one-line warning and in the cell's telemetry record.
        """
        if task.simulator != "auto":
            return task, None
        if self._backend == "event":
            return dataclasses.replace(task, simulator="event"), None
        if self._backend == "auto":
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
        of aborting.  A :class:`KeyboardInterrupt` drains in-flight work
        (its finished cells are cached), prints the partial summary, then
        re-raises.
        """
        campaign = _CampaignRun(self, len(tasks))
        keys = campaign.plan(tasks)
        pending = campaign.serve()
        try:
            campaign.execute(pending)
        except KeyboardInterrupt:
            campaign.finish(interrupted=True)
            raise
        campaign.finish()
        return [campaign.resolved.get(key) for key in keys]
