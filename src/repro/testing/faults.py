"""Deterministic fault injection for the campaign executor.

The fault-tolerance test suite needs to reproduce the ugly failure modes of
real campaigns — a worker segfaulting mid-batch, a cell hanging forever, a
poisoned task raising on every attempt, a crash tearing a cache entry
mid-write — *deterministically*, including across the process pool.  This
module provides that:

* :class:`FaultRule` selects tasks by ``task_key`` prefix and/or label
  substring, names the failure ``kind`` to inject, and bounds how many
  times it fires (``times``, ``None`` = every time);
* :class:`FaultPlan` is a picklable bundle of rules plus an on-disk state
  directory.  Firing slots are claimed with ``O_CREAT | O_EXCL`` marker
  files, so "fire exactly twice" holds even when the matching task is
  retried in different worker processes;
* :func:`tear_file` truncates a file halfway into its final record,
  simulating a crash mid-write.

Execution-side kinds (checked by the worker before a unit runs):

``crash``
    The worker process dies via ``os._exit`` (the parent sees
    ``BrokenProcessPool``).  In-process execution raises
    :class:`InjectedCrash` instead so ``jobs=1`` campaigns survive.
``hang``
    The worker sleeps ``hang_s`` seconds (the parent's task timeout is
    expected to reclaim it).
``error``
    Raises :class:`InjectedFault` (an ordinary exception: retried, then
    quarantined).

Parent-side kind (checked after a cache write):

``torn-cache``
    The just-written cache entry is torn with :func:`tear_file`.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "InjectedCrash",
    "tear_file",
]

#: Failure kinds injected in the executing process, before the unit runs.
EXECUTE_KINDS = ("crash", "hang", "error")
#: Failure kinds injected in the parent, after a cache write.
WRITE_KINDS = ("torn-cache",)


class InjectedFault(RuntimeError):
    """An exception deliberately raised by a :class:`FaultRule`."""


class InjectedCrash(InjectedFault):
    """In-process stand-in for a worker death (``jobs=1`` campaigns)."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic failure: what to inject, where, and how often."""

    kind: str
    #: Fire only for tasks whose ``task_key()`` starts with this prefix.
    key_prefix: str = ""
    #: Fire only for tasks whose label contains this substring.
    label_contains: str = ""
    #: Maximum number of firings (``None`` = unlimited, e.g. a poison task
    #: that fails on every attempt).
    times: Optional[int] = 1
    #: Sleep duration for ``kind="hang"`` (the parent's timeout reclaims it).
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in EXECUTE_KINDS + WRITE_KINDS:
            raise ValueError(
                f"unknown fault kind '{self.kind}'; expected one of "
                f"{EXECUTE_KINDS + WRITE_KINDS}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError("times must be at least 1 (or None for unlimited)")

    def matches(self, key: str, label: str) -> bool:
        if self.key_prefix and not key.startswith(self.key_prefix):
            return False
        if self.label_contains and self.label_contains not in label:
            return False
        return True


class FaultPlan:
    """A picklable set of :class:`FaultRule` entries with shared firing state.

    ``state_dir`` holds one marker file per claimed firing slot; claiming is
    an atomic ``O_CREAT | O_EXCL`` create, so concurrent workers (or the
    parent and a worker) agree on exactly how many times each rule fired.
    """

    def __init__(self, rules: Sequence[FaultRule],
                 state_dir: os.PathLike) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.state_dir = pathlib.Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

    # -- firing-slot bookkeeping ---------------------------------------
    def _claim(self, index: int) -> bool:
        """Atomically claim the next firing slot of rule ``index``."""
        rule = self.rules[index]
        if rule.times is None:
            return True
        for slot in range(rule.times):
            marker = self.state_dir / f"rule{index}.fire{slot}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fired(self, index: int) -> int:
        """How many firing slots of rule ``index`` have been claimed."""
        rule = self.rules[index]
        if rule.times is None:
            raise ValueError("unlimited rules do not track firing counts")
        return sum(
            1 for slot in range(rule.times)
            if (self.state_dir / f"rule{index}.fire{slot}").exists()
        )

    # -- execution-side injection --------------------------------------
    def inject(self, key: str, label: str, allow_exit: bool = True) -> None:
        """Fire any matching execution-side rule for this task.

        Called in the executing process immediately before a task runs.
        ``allow_exit=False`` (in-process execution) converts a ``crash``
        into an :class:`InjectedCrash` exception so the campaign process
        itself survives.
        """
        for index, rule in enumerate(self.rules):
            if rule.kind not in EXECUTE_KINDS:
                continue
            if not rule.matches(key, label) or not self._claim(index):
                continue
            if rule.kind == "crash":
                if allow_exit:
                    os._exit(13)
                raise InjectedCrash(f"injected crash for task {key[:12]}")
            if rule.kind == "hang":
                time.sleep(rule.hang_s)
                continue
            raise InjectedFault(f"injected error for task {key[:12]}")

    # -- parent-side injection -----------------------------------------
    def tear_after_write(self, key: str, label: str,
                         path: os.PathLike) -> bool:
        """Tear the cache entry ``path`` if a matching ``torn-cache`` rule
        claims a slot."""
        for index, rule in enumerate(self.rules):
            if rule.kind not in WRITE_KINDS:
                continue
            if rule.matches(key, label) and self._claim(index):
                tear_file(path)
                return True
        return False

    # -- pickling (the plan crosses the process pool) ------------------
    def __getstate__(self):
        return {"rules": self.rules, "state_dir": str(self.state_dir)}

    def __setstate__(self, state) -> None:
        self.rules = state["rules"]
        self.state_dir = pathlib.Path(state["state_dir"])


def tear_file(path: os.PathLike) -> None:
    """Truncate a file halfway into its final record (crash mid-write).

    The result is a valid prefix of complete lines followed by one torn,
    non-newline-terminated fragment — exactly what an interrupted
    ``write()`` leaves behind.  Empty files are left alone.
    """
    path = pathlib.Path(path)
    data = path.read_bytes()
    if not data:
        return
    body = data.rstrip(b"\n")
    final_start = body.rfind(b"\n") + 1
    final_len = len(body) - final_start
    cut = final_start + max(1, final_len // 2)
    with path.open("r+b") as fh:
        fh.truncate(cut)
