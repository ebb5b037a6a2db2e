"""Output checks and the result digest.

Every function here is pure: it takes campaign results (``None`` marks a
quarantined cell) and returns the problems it found, one
:class:`CheckFailure` per check and cell set.  A failed check makes the
benchmark report ``correct: false``, counts its cells in ``failed`` and
makes the command exit nonzero.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BIANCHI_TOLERANCE",
    "CheckFailure",
    "cell_digests",
    "results_digest",
    "check_finite",
    "check_frame_accounting",
    "check_no_fallback",
    "check_bianchi",
    "check_digests",
    "dcf_model_errors",
]

#: Largest relative error allowed between the seed-averaged DCF throughput
#: at one station count and Bianchi's closed form.  The renewal kernel
#: reads 0.8-1.9% at 8 seeds of 1 s, so 5% flags a broken model, not noise.
BIANCHI_TOLERANCE = 0.05


@dataclass(frozen=True)
class CheckFailure:
    """One failed output check and how many cells it condemns."""

    check: str
    cells: int
    detail: str


def cell_digests(payloads: Sequence[Optional[Mapping]]) -> List[str]:
    """SHA-256 of each cell's canonical JSON (``result_to_dict`` output)."""
    return [
        hashlib.sha256(json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")).encode()).hexdigest()
        for payload in payloads
    ]


def results_digest(digests: Sequence[str]) -> str:
    """One digest over every cell digest, in task order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _values(result) -> Dict[str, float]:
    values = {
        "total_throughput_bps": result.total_throughput_bps,
        "idle_slots": result.idle_slots,
        "busy_periods": result.busy_periods,
        "offered_frames": result.offered_frames,
        "dropped_frames": result.dropped_frames,
        "queue_delay_sum_s": result.queue_delay_sum_s,
        "retry_discards": result.retry_discards,
        "drop_rate": result.drop_rate,
        "mean_queue_delay_s": result.mean_queue_delay_s,
        "collision_fraction": result.collision_fraction,
    }
    for stats in result.station_stats:
        values[f"station{stats.station}.successes"] = stats.successes
        values[f"station{stats.station}.failures"] = stats.failures
        values[f"station{stats.station}.throughput_bps"] = stats.throughput_bps
    return values


def check_finite(results: Sequence) -> List[CheckFailure]:
    """Every metric finite and non-negative, ``drop_rate`` in [0, 1]."""
    bad: Dict[int, str] = {}
    missing = 0
    for index, result in enumerate(results):
        if result is None:
            missing += 1
            continue
        for name, value in _values(result).items():
            if not math.isfinite(value) or value < 0:
                bad.setdefault(index, f"{name}={value!r}")
        if not 0.0 <= result.drop_rate <= 1.0:
            bad.setdefault(index, f"drop_rate={result.drop_rate!r}")
    failures = []
    if missing:
        failures.append(CheckFailure(
            "completed", missing, f"{missing} cell(s) returned no result"))
    if bad:
        first = min(bad)
        failures.append(CheckFailure(
            "finite", len(bad),
            f"{len(bad)} cell(s) with a non-finite or negative metric, "
            f"first: cell {first} {bad[first]}"))
    return failures


def check_frame_accounting(tasks: Sequence,
                           results: Sequence) -> List[CheckFailure]:
    """Offered frames close against delivered + dropped + discarded.

    :class:`~repro.sim.metrics.SimulationResult` has no count of frames
    still queued when the measurement window opens or closes, so the only
    slack allowed is a full backlog: N stations x the queue limit.
    Saturated cells (no traffic model) are skipped.
    """
    bad = []
    for index, (task, result) in enumerate(zip(tasks, results)):
        if result is None or task.traffic is None or task.traffic.is_saturated:
            continue
        gap = (result.offered_frames - result.total_successes
               - result.dropped_frames - result.retry_discards)
        slack = result.num_stations * task.traffic.queue_limit
        if abs(gap) > slack:
            bad.append(f"cell {index}: gap {gap} > {slack}")
    if not bad:
        return []
    return [CheckFailure("frame_accounting", len(bad),
                         f"{len(bad)} cell(s) fail frame accounting, "
                         f"first: {bad[0]}")]


def check_no_fallback(fallback_cells: int) -> List[CheckFailure]:
    """No cell may resolve to a scalar simulator."""
    if fallback_cells == 0:
        return []
    return [CheckFailure("fallback", fallback_cells,
                         f"{fallback_cells} cell(s) ran on a scalar "
                         f"simulator instead of a batched kernel")]


def dcf_model_errors(tasks: Sequence, results: Sequence,
                     closed_form) -> Dict[int, Tuple[float, int]]:
    """Relative error of seed-averaged DCF throughput per station count.

    ``closed_form`` maps a station count to the Bianchi saturation
    throughput in bit/s.  Only saturated standard-802.11 cells on fully
    connected topologies count: the model assumes every station hears
    every other.  Returns ``{N: (relative error, cells averaged)}``.
    """
    throughputs: Dict[int, List[float]] = {}
    for task, result in zip(tasks, results):
        if (task.scheme.kind != "standard-802.11" or result is None
                or task.topology.kind != "connected"
                or (task.traffic is not None
                    and not task.traffic.is_saturated)):
            continue
        throughputs.setdefault(task.topology.num_stations, []).append(
            result.total_throughput_bps)
    errors = {}
    for n, values in sorted(throughputs.items()):
        reference = closed_form(n)
        errors[n] = (abs(sum(values) / len(values) - reference) / reference,
                     len(values))
    return errors


def check_bianchi(errors: Mapping[int, Tuple[float, int]],
                  tolerance: float = BIANCHI_TOLERANCE) -> List[CheckFailure]:
    """Each station count's DCF error within ``tolerance``."""
    bad = {n: (err, cells) for n, (err, cells) in errors.items()
           if not (math.isfinite(err) and err <= tolerance)}
    if not bad:
        return []
    listing = ", ".join(f"N={n}: {err:.2%}" for n, (err, _) in bad.items())
    return [CheckFailure("bianchi", sum(cells for _, cells in bad.values()),
                         f"DCF throughput off the closed form by more than "
                         f"{tolerance:.0%}: {listing}")]


def check_digests(reference: Sequence[str],
                  digests: Sequence[str]) -> List[CheckFailure]:
    """A repeat's per-cell digests must equal the first repeat's."""
    if len(reference) != len(digests):
        return [CheckFailure("digest", max(len(reference), len(digests)),
                             "repeats returned different cell counts")]
    differ = sum(a != b for a, b in zip(reference, digests))
    if not differ:
        return []
    return [CheckFailure("digest", differ,
                         f"{differ} cell(s) differ from the first repeat")]
