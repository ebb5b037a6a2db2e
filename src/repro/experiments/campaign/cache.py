"""On-disk JSON result cache for campaign tasks.

Each completed :class:`~repro.experiments.campaign.specs.RunTask` is stored
as one JSON file named after its :meth:`task_key`, containing the task
descriptor (for debuggability) and the full serialised
:class:`~repro.sim.metrics.SimulationResult`.  Because Python's JSON encoder
emits shortest round-trip float representations, a result loaded from the
cache is bit-identical to the freshly computed one, so cached and simulated
cells can be mixed freely inside one campaign.

Each entry is written to a temporary file, flushed and ``fsync``'d, then
renamed into place, so an entry that exists is complete.  The directory is
not fsync'd, so after a machine crash a recent entry may be missing; its
cell is then simulated again.  The cache is the campaign's checkpoint: a
killed campaign re-run with the same directory simulates only the cells
that have no entry yet.  A kill between writing a temporary file and
renaming it leaves the file behind; its name carries the writer's host and
pid, and the next cache opened on that host deletes it once that pid is
gone.  Temporaries of live writers and of other hosts stay.

Corrupt or version-mismatched entries are treated as misses (and re-run),
never as errors: a cache must not be able to break a campaign.  Corrupt
files (unparseable JSON, malformed result payloads) are additionally
*quarantined* — renamed to ``<entry>.corrupt`` so they stop shadowing the
key, counted on :attr:`ResultCache.corrupt_entries`, surfaced through a
telemetry counter and one stderr warning, and reported in the campaign
summary.  Version-mismatched entries are merely stale, not corrupt: they
stay in place (an older build may still want them).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import socket
import sys
import tempfile
from typing import Dict, Optional

from ...sim.metrics import SimulationResult, StationStats
from ...telemetry import current as telemetry_current
from .specs import CACHE_VERSION, RunTask

__all__ = [
    "ResultCache",
    "result_to_dict",
    "result_from_dict",
    "RESULT_SCHEMA_VERSION",
]

#: Version of the *result payload* layout produced by :func:`result_to_dict`.
#: Distinct from :data:`~repro.experiments.campaign.specs.CACHE_VERSION`
#: (which covers the task descriptor and simulator semantics): bump this when
#: the serialised result shape changes so that entries written by older code
#: are invalidated on load instead of being deserialised into garbage.
RESULT_SCHEMA_VERSION = 2

#: This host's tag in the names of temporary entry files (a hash, so the
#: name splits on ``-`` whatever the host name holds).
_HOST_TAG = hashlib.sha256(socket.gethostname().encode("utf-8")).hexdigest()[:8]


def _process_is_gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # it runs under another user
        return False
    return False


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """Serialise a :class:`SimulationResult` to plain JSON-able types.

    The traffic-workload counters are emitted only when set: saturated
    results serialise exactly as they did before the counters existed, so
    entries written by pre-traffic code still round-trip bit-identically
    (and vice versa) without a schema-version bump.
    """
    payload: Dict[str, object] = {
        "duration": result.duration,
        "total_throughput_bps": result.total_throughput_bps,
        "idle_slots": result.idle_slots,
        "busy_periods": result.busy_periods,
        "station_stats": [
            {
                "station": s.station,
                "successes": s.successes,
                "failures": s.failures,
                "payload_bits": s.payload_bits,
                "throughput_bps": s.throughput_bps,
            }
            for s in result.station_stats
        ],
        "throughput_timeline": [[t, v] for t, v in result.throughput_timeline],
        "control_timeline": [[t, v] for t, v in result.control_timeline],
        "extra": dict(result.extra),
    }
    if result.offered_frames or result.dropped_frames or result.queue_delay_sum_s:
        payload["offered_frames"] = result.offered_frames
        payload["dropped_frames"] = result.dropped_frames
        payload["queue_delay_sum_s"] = result.queue_delay_sum_s
    if result.retry_discards:
        payload["retry_discards"] = result.retry_discards
    if result.queue_delay_p50_s or result.queue_delay_p99_s:
        payload["queue_delay_p50_s"] = result.queue_delay_p50_s
        payload["queue_delay_p99_s"] = result.queue_delay_p99_s
    if result.flow_completions:
        payload["flow_completions"] = [
            [station, t] for station, t in result.flow_completions
        ]
    return payload


def result_from_dict(payload: Dict[str, object]) -> SimulationResult:
    """Inverse of :func:`result_to_dict` (exact float round-trip)."""
    return SimulationResult(
        duration=payload["duration"],
        station_stats=tuple(
            StationStats(
                station=s["station"],
                successes=s["successes"],
                failures=s["failures"],
                payload_bits=s["payload_bits"],
                throughput_bps=s["throughput_bps"],
            )
            for s in payload["station_stats"]
        ),
        total_throughput_bps=payload["total_throughput_bps"],
        idle_slots=payload["idle_slots"],
        busy_periods=payload["busy_periods"],
        throughput_timeline=tuple(
            (t, v) for t, v in payload["throughput_timeline"]
        ),
        control_timeline=tuple((t, v) for t, v in payload["control_timeline"]),
        offered_frames=payload.get("offered_frames", 0),
        dropped_frames=payload.get("dropped_frames", 0),
        queue_delay_sum_s=payload.get("queue_delay_sum_s", 0.0),
        retry_discards=payload.get("retry_discards", 0),
        queue_delay_p50_s=payload.get("queue_delay_p50_s", 0.0),
        queue_delay_p99_s=payload.get("queue_delay_p99_s", 0.0),
        flow_completions=tuple(
            (station, t) for station, t in payload.get("flow_completions", [])
        ),
        extra=dict(payload["extra"]),
    )


class ResultCache:
    """Directory of ``<task_key>.json`` files, one per completed task."""

    def __init__(self, root: os.PathLike) -> None:
        self._root = pathlib.Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries quarantined (renamed to ``*.corrupt``) by
        #: :meth:`load` over this instance's lifetime.
        self.corrupt_entries = 0
        self._warned_corrupt = False
        # Temporaries are named ``.<key>-<host>-<pid>-<random>.tmp``.
        for path in self._root.glob(f".*-{_HOST_TAG}-*.tmp"):
            pid = path.name.split("-")[2]
            if pid.isdigit() and _process_is_gone(int(pid)):
                path.unlink(missing_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        return self._root / f"{key}.json"

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[SimulationResult]:
        """Return the cached result for ``key``, or None on miss/corruption.

        Corrupt entries are quarantined (renamed to ``*.corrupt``), counted
        and warned about once per cache instance; the campaign re-simulates
        the cell.  Version mismatches are silent misses, not corruption.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError as error:
            self._quarantine(path, f"invalid JSON ({error})")
            return None
        if payload.get("version") != CACHE_VERSION:
            return None
        if payload.get("schema_version") != RESULT_SCHEMA_VERSION:
            return None
        try:
            return result_from_dict(payload["result"])
        except (KeyError, TypeError, ValueError) as error:
            self._quarantine(path, f"malformed result payload ({error!r})")
            return None

    def _quarantine(self, path: pathlib.Path, why: str) -> None:
        """Move a corrupt entry aside so it stops shadowing its key."""
        corrupt_path = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, corrupt_path)
            where = f"; quarantined as {corrupt_path.name}"
        except OSError:
            where = "; could not be renamed aside"
        self.corrupt_entries += 1
        if not self._warned_corrupt:
            self._warned_corrupt = True
            print(
                f"[cache] corrupt entry {path.name}: {why}{where}. The cell "
                f"will be re-simulated (further corrupt entries are counted "
                f"silently).", file=sys.stderr, flush=True,
            )
        telemetry_current().counter("cache", "corrupt_entries", 1)

    def store(self, task: RunTask, result: SimulationResult) -> pathlib.Path:
        """Persist one completed task atomically; returns the entry path."""
        key = task.task_key()
        payload = {
            "version": CACHE_VERSION,
            "schema_version": RESULT_SCHEMA_VERSION,
            "task_key": key,
            "label": task.label,
            "task": task.to_json(),
            "result": result_to_dict(result),
        }
        path = self.path_for(key)
        # Atomic replace so a crashed/parallel writer never leaves a torn
        # file behind (concurrent writers of the same key write identical
        # content, so last-write-wins is safe).  The fsync before the rename
        # means a machine-level crash cannot leave a renamed but empty
        # entry; it can lose a recent rename, which costs a re-simulation.
        fd, tmp_name = tempfile.mkstemp(
            dir=self._root, prefix=f".{key[:12]}-{_HOST_TAG}-{os.getpid()}-",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self._root.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()
