"""Trace persistence: JSONL record streams, validation, Chrome export.

A trace file is one JSON object per line (JSONL), each a record emitted by a
:class:`~repro.telemetry.Telemetry` collector.  Six record types exist:

``meta``
    One per campaign invocation: CLI arguments, backend policy, job count.
``span``
    A timed phase (``name``, wall-clock ``t0`` epoch, ``dur`` seconds).
``task``
    One completed campaign cell: backend, cache hit/miss, batch-group id,
    worker pid, queue-wait vs execute split, cells/sec, fallback reason.
``counters``
    One simulator run's loop-level counters under a backend ``scope``
    (``slotted`` / ``event`` / ``batched`` / ``conflict`` / ``campaign``).
``probe``
    One simulated cell's windowed controller time series (schema v2,
    additive): virtual-time sample grid ``t``, decimation ``stride`` and a
    ``series`` mapping of per-station/per-cell value columns — see
    :mod:`repro.telemetry.probes`.
``profile``
    Aggregated cProfile hotspots when ``--profile`` is active.

:func:`validate_record` is the schema both the tests and CI enforce —
dependency-free on purpose (no jsonschema in the container).
:func:`chrome_trace` converts a record list into the Chrome trace-event JSON
that Perfetto / ``chrome://tracing`` load directly: spans and executed tasks
become complete (``ph="X"``) events on their producing process's timeline,
probe series become counter tracks (``ph="C"``), everything else becomes
instant events.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, IO, Iterable, List, Mapping, Optional, Union

__all__ = [
    "JsonlTraceWriter",
    "read_trace",
    "validate_record",
    "validate_trace_file",
    "chrome_trace",
    "write_chrome_trace",
    "RECORD_TYPES",
    "TRACE_SCHEMA_VERSION",
]

#: Bumped when the record shapes below change.  v2 added the ``probe``
#: record type (additive — every v1 trace is a valid v2 trace, and the
#: validator still accepts v1 ``meta`` records).
TRACE_SCHEMA_VERSION = 2

#: Schema versions :func:`validate_record` accepts in a ``meta`` record.
_COMPATIBLE_SCHEMAS = (1, TRACE_SCHEMA_VERSION)

RECORD_TYPES = ("meta", "span", "task", "counters", "probe", "profile")

#: How a campaign cell was satisfied: executed, served from the result
#: cache, or quarantined after exhausting its retry budget (a ``failed``
#: record carries ``failure_reason``).  ``journal`` marks a cell replayed
#: from the campaign journal of older builds; nothing emits it any more,
#: and it stays valid so that their traces still validate and render.
_TASK_SOURCES = ("run", "cache", "journal", "failed")


class JsonlTraceWriter:
    """Streams records to a JSONL file as they are emitted.

    Use as the ``sink`` of a :class:`~repro.telemetry.Telemetry` collector;
    also usable as a context manager.  Records are written with sorted keys
    and flushed per line so a crashed campaign still leaves a readable
    prefix.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = self.path.open("w", encoding="utf-8")
        self.count = 0

    def write(self, record: Mapping[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        json.dump(record, self._fh, sort_keys=True, default=_jsonable)
        self._fh.write("\n")
        self._fh.flush()
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _jsonable(value: Any) -> Any:
    """Fallback encoder: numpy scalars (and friends) to plain python."""
    for attr in ("item",):  # numpy scalar protocol without importing numpy
        if hasattr(value, attr):
            return value.item()
    raise TypeError(f"record field of type {type(value).__name__} "
                    f"is not JSON-serialisable: {value!r}")


def read_trace(path: Union[str, Path],
               skip_torn_tail: bool = False) -> List[Dict[str, Any]]:
    """Load every record of a JSONL trace file (no validation).

    With ``skip_torn_tail=True`` an unparseable *final* line — the writer
    was killed mid-write — is dropped instead of raising, so the valid
    prefix of a crashed campaign's trace remains loadable.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    stripped = [line.strip() for line in lines]
    nonempty = [(i, line) for i, line in enumerate(stripped) if line]
    records = []
    for position, (_, line) in enumerate(nonempty):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if skip_torn_tail and position == len(nonempty) - 1:
                break
            raise
    return records


# ----------------------------------------------------------------------
# Schema validation (dependency-free).

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_optional_num(record: Mapping[str, Any], field: str,
                        minimum: Optional[float] = None) -> None:
    value = record.get(field)
    if value is None:
        return
    _require(_is_num(value), f"'{field}' must be a number or null")
    if minimum is not None:
        _require(value >= minimum, f"'{field}' must be >= {minimum}")


def validate_record(record: Any) -> str:
    """Validate one trace record; returns its type or raises ValueError."""
    _require(isinstance(record, dict), "record must be a JSON object")
    rtype = record.get("type")
    _require(rtype in RECORD_TYPES,
             f"unknown record type {rtype!r}; expected one of {RECORD_TYPES}")
    _require(isinstance(record.get("pid"), int), "'pid' must be an integer")

    if rtype == "meta":
        _require(_is_num(record.get("t0")), "'t0' must be a number")
        _require(isinstance(record.get("info"), dict),
                 "'info' must be an object")
        _require(record.get("schema") in _COMPATIBLE_SCHEMAS,
                 f"'schema' must be one of {_COMPATIBLE_SCHEMAS}")
    elif rtype == "span":
        name = record.get("name")
        _require(isinstance(name, str) and bool(name),
                 "'name' must be a non-empty string")
        _require(_is_num(record.get("t0")), "'t0' must be a number")
        _require(_is_num(record.get("dur")) and record["dur"] >= 0,
                 "'dur' must be a non-negative number")
        _require(isinstance(record.get("args"), dict),
                 "'args' must be an object")
    elif rtype == "task":
        _require(isinstance(record.get("key"), str) and record["key"],
                 "'key' must be a non-empty string")
        _require(isinstance(record.get("label"), str),
                 "'label' must be a string")
        _require(isinstance(record.get("backend"), str) and record["backend"],
                 "'backend' must be a non-empty string")
        _require(record.get("source") in _TASK_SOURCES,
                 f"'source' must be one of {_TASK_SOURCES}")
        _require(isinstance(record.get("cache_hit"), bool),
                 "'cache_hit' must be a boolean")
        _require(_is_num(record.get("t0")), "'t0' must be a number")
        group = record.get("group")
        _require(group is None or isinstance(group, int),
                 "'group' must be an integer or null")
        worker = record.get("worker_pid")
        _require(worker is None or isinstance(worker, int),
                 "'worker_pid' must be an integer or null")
        _check_optional_num(record, "cells_per_s", minimum=0.0)
        _check_optional_num(record, "queue_wait_s", minimum=0.0)
        _check_optional_num(record, "execute_s", minimum=0.0)
        reason = record.get("fallback_reason")
        _require(reason is None or (isinstance(reason, str) and reason),
                 "'fallback_reason' must be a non-empty string or null")
    elif rtype == "counters":
        scope = record.get("scope")
        _require(isinstance(scope, str) and bool(scope),
                 "'scope' must be a non-empty string")
        _require(_is_num(record.get("t0")), "'t0' must be a number")
        counters = record.get("counters")
        _require(isinstance(counters, dict) and counters,
                 "'counters' must be a non-empty object")
        for name, value in counters.items():
            _require(isinstance(name, str) and bool(name),
                     "counter names must be non-empty strings")
            _require(_is_num(value), f"counter '{name}' must be a number")
    elif rtype == "probe":
        scope = record.get("scope")
        _require(isinstance(scope, str) and bool(scope),
                 "'scope' must be a non-empty string")
        _require(_is_num(record.get("t0")), "'t0' must be a number")
        _require(_is_num(record.get("interval")) and record["interval"] > 0,
                 "'interval' must be a positive number")
        stride = record.get("stride")
        _require(isinstance(stride, int) and stride >= 1,
                 "'stride' must be an integer >= 1")
        for field in ("cell", "seed"):
            value = record.get(field)
            _require(value is None or isinstance(value, int),
                     f"'{field}' must be an integer or null")
        times = record.get("t")
        _require(isinstance(times, list) and times,
                 "'t' must be a non-empty list")
        for t in times:
            _require(_is_num(t), "'t' entries must be numbers")
        series = record.get("series")
        _require(isinstance(series, dict), "'series' must be an object")
        for name, column in series.items():
            _require(isinstance(name, str) and bool(name),
                     "series names must be non-empty strings")
            _require(isinstance(column, list) and len(column) == len(times),
                     f"series '{name}' must be a list of len(t) values")
            for value in column:
                _require(value is None or _is_num(value),
                         f"series '{name}' values must be numbers or null")
    elif rtype == "profile":
        _require(_is_num(record.get("t0")), "'t0' must be a number")
        top = record.get("top")
        _require(isinstance(top, list), "'top' must be a list")
        for row in top:
            _require(isinstance(row, dict), "'top' rows must be objects")
            _require(isinstance(row.get("func"), str) and row["func"],
                     "'func' must be a non-empty string")
            _require(isinstance(row.get("ncalls"), int),
                     "'ncalls' must be an integer")
            _require(_is_num(row.get("tottime")), "'tottime' must be a number")
            _require(_is_num(row.get("cumtime")), "'cumtime' must be a number")
    return rtype


def validate_trace_file(path: Union[str, Path],
                        allow_torn_tail: bool = False) -> Dict[str, int]:
    """Validate every line of a JSONL trace; returns per-type counts.

    Raises :class:`ValueError` naming the 1-based line number of the first
    invalid record.  An empty file (or one with no ``meta`` record) is
    considered invalid — every trace begins with campaign metadata.

    With ``allow_torn_tail=True`` an invalid *final* record — the writer
    was killed mid-write — does not fail validation; it is reported as
    ``counts["torn_tail"] == 1`` so callers can summarise the valid prefix
    while still surfacing the tear.  The ``torn_tail`` key is present only
    under that flag, so default-mode callers see pure per-type counts.
    """
    counts: Dict[str, int] = {rtype: 0 for rtype in RECORD_TYPES}
    if allow_torn_tail:
        counts["torn_tail"] = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        numbered = [(lineno, line.strip())
                    for lineno, line in enumerate(fh, start=1)]
    nonempty = [(lineno, line) for lineno, line in numbered if line]
    for position, (lineno, line) in enumerate(nonempty):
        is_final = position == len(nonempty) - 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if allow_torn_tail and is_final:
                counts["torn_tail"] = 1
                break
            raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}")
        try:
            counts[validate_record(record)] += 1
        except ValueError as exc:
            if allow_torn_tail and is_final:
                counts["torn_tail"] = 1
                break
            raise ValueError(f"{path}:{lineno}: {exc}")
    _require(sum(counts[rtype] for rtype in RECORD_TYPES) > 0,
             f"{path}: trace contains no records")
    _require(counts["meta"] > 0, f"{path}: trace has no 'meta' record")
    return counts


# ----------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing loadable).

def chrome_trace(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Convert trace records to the Chrome trace-event JSON format.

    Timestamps are microseconds relative to the earliest record so the
    viewer's timeline starts at zero.  Spans and executed tasks become
    complete events (``ph="X"``); cache hits, counters and profiles become
    instant events (``ph="i"``); probe series become counter tracks
    (``ph="C"``) with the virtual sample grid mapped onto the record's
    wall-clock anchor.  Record types this exporter does not understand are
    counted and reported under a top-level ``skippedRecordTypes`` key
    instead of being dropped silently.
    """
    records = list(records)
    starts = []
    for record in records:
        t0 = record.get("t0")
        if _is_num(t0):
            start = t0
            if record.get("type") == "task" and _is_num(record.get("execute_s")):
                start = t0 - record["execute_s"]
            starts.append(start)
    origin = min(starts) if starts else 0.0

    def us(epoch: float) -> float:
        return (epoch - origin) * 1e6

    events: List[Dict[str, Any]] = []
    skipped: Dict[str, int] = {}
    for record in records:
        rtype = record.get("type")
        pid = record.get("pid", 0)
        if rtype == "span":
            events.append({
                "name": record["name"], "cat": "span", "ph": "X",
                "ts": us(record["t0"]), "dur": record["dur"] * 1e6,
                "pid": pid, "tid": pid, "args": record.get("args", {}),
            })
        elif rtype == "task":
            args = {
                k: record.get(k)
                for k in ("backend", "source", "group", "cells_per_s",
                          "queue_wait_s", "fallback_reason")
                if record.get(k) is not None
            }
            tid = record.get("worker_pid") or pid
            if record.get("source") == "run" and _is_num(record.get("execute_s")):
                events.append({
                    "name": record.get("label") or record["key"][:12],
                    "cat": "task", "ph": "X",
                    "ts": us(record["t0"] - record["execute_s"]),
                    "dur": record["execute_s"] * 1e6,
                    "pid": tid, "tid": tid, "args": args,
                })
            else:
                events.append({
                    "name": record.get("label") or record["key"][:12],
                    "cat": "task", "ph": "i", "s": "p",
                    "ts": us(record["t0"]), "pid": tid, "tid": tid,
                    "args": args,
                })
        elif rtype == "counters":
            events.append({
                "name": f"counters:{record['scope']}", "cat": "counters",
                "ph": "i", "s": "p", "ts": us(record["t0"]),
                "pid": pid, "tid": pid, "args": dict(record["counters"]),
            })
        elif rtype == "probe":
            cell = record.get("cell")
            track = f"probe:{record['scope']}" + (
                f"[{cell}]" if cell is not None else "")
            t_values = record.get("t", [])
            t_first = t_values[0] if t_values else 0.0
            for name, column in record.get("series", {}).items():
                for t, value in zip(t_values, column):
                    if value is None:
                        continue
                    events.append({
                        "name": f"{track}/{name}", "cat": "probe", "ph": "C",
                        "ts": us(record["t0"] + (t - t_first)),
                        "pid": pid, "tid": pid, "args": {"value": value},
                    })
        elif rtype in ("meta", "profile"):
            events.append({
                "name": rtype, "cat": rtype, "ph": "i", "s": "g",
                "ts": us(record.get("t0", origin)), "pid": pid, "tid": pid,
                "args": record.get("info", {}) if rtype == "meta" else {
                    "top": record.get("top", []),
                },
            })
        else:
            key = rtype if isinstance(rtype, str) else repr(rtype)
            skipped[key] = skipped.get(key, 0) + 1
    trace: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if skipped:
        trace["skippedRecordTypes"] = skipped
    return trace


def write_chrome_trace(records: Iterable[Mapping[str, Any]],
                       path: Union[str, Path]) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(chrome_trace(records), fh, default=_jsonable)
    return path
