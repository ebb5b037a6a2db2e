"""Declarative run descriptors for the experiment campaign engine.

The per-figure runners used to call the simulators directly from nested
loops, which made the evaluation inherently serial: nothing described a run
without executing it.  This module introduces picklable, hashable *value
objects* that fully describe one simulation:

* :class:`SchemeSpec` — names a scheme kind of
  :data:`repro.mac.schemes.SCHEME_KINDS` plus its keyword parameters
  (schemes themselves hold lambdas and mutable controllers, so they cannot
  cross process boundaries; the spec is rebuilt in each worker);
* :class:`TopologySpec` — a fully connected ring or a seeded uniform-disc
  hidden-node placement;
* :class:`RunTask` — one complete simulation cell: scheme, topology,
  activity schedule, PHY, seed, durations and sampling options.

:func:`derive_seed` turns any tuple of grid coordinates into a stable
per-cell seed, so the same grid always yields the same tasks regardless of
expansion or execution order.  Every descriptor serialises to canonical
JSON (:meth:`RunTask.to_json`), and :meth:`RunTask.task_key` hashes that
JSON into the stable cache key used by
:class:`~repro.experiments.campaign.cache.ResultCache`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ...mac.schemes import SCHEME_KINDS, Scheme, scheme_kind
from ...phy.constants import PhyParameters
from ...sim.batched import batchable_scheme
from ...topology.graph import ConnectivityGraph
from ...topology.scenarios import (
    fully_connected_scenario,
    hidden_node_scenario,
    two_cluster_hidden_scenario,
)
from ...traffic import ArrivalProcess

__all__ = [
    "SCHEME_SPEC_KINDS",
    "SchemeSpec",
    "TopologySpec",
    "RunTask",
    "fallback_reason",
    "derive_seed",
    "CACHE_VERSION",
]

#: Bump when the serialised task format or simulator semantics change in a
#: way that invalidates previously cached results.
CACHE_VERSION = 1


def _canonical(value):
    """Coerce a parameter value into plain JSON-able Python types.

    numpy scalars (which leak out of ``np.exp`` / ``np.linspace`` grids) are
    converted to their Python equivalents so that task hashes do not depend
    on whether the caller used numpy or builtin floats.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item") and not isinstance(value, (tuple, list, dict)):
        return _canonical(value.item())
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _canonical(v)) for k, v in value.items()))
    raise TypeError(f"unsupported spec parameter type: {type(value)!r}")


def _jsonable(value):
    """Canonical value -> JSON structure (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Scheme specifications
# ----------------------------------------------------------------------
#: Scheme kinds accepted by :meth:`SchemeSpec.make`.
SCHEME_SPEC_KINDS = tuple(sorted(SCHEME_KINDS))


@dataclass(frozen=True)
class SchemeSpec:
    """Declarative, picklable reference to a MAC scheme.

    ``kind`` names one of the declarations in
    :data:`repro.mac.schemes.SCHEME_KINDS` and ``params`` holds its keyword
    arguments as a sorted tuple of pairs (so the spec is hashable and its
    serialisation canonical).  Use :meth:`make` rather than the raw
    constructor.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: object) -> "SchemeSpec":
        """The spec of ``kind`` with these parameters.

        ``ValueError`` for an unknown kind; ``TypeError`` for a parameter
        the kind does not take or a required one left out, so a misspelled
        name fails here rather than when the cell runs.
        """
        scheme_kind(kind).resolve(params)
        normalized = tuple(
            sorted((name, _canonical(value)) for name, value in params.items())
        )
        return cls(kind=kind, params=normalized)

    @property
    def adaptive(self) -> bool:
        """Whether the scheme adapts (determines the warm-up budget)."""
        return SCHEME_KINDS[self.kind].adaptive

    def build(self, phy: Optional[PhyParameters] = None) -> Scheme:
        """Instantiate a fresh :class:`~repro.mac.schemes.Scheme`."""
        return SCHEME_KINDS[self.kind].scheme(phy, **dict(self.params))

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "params": {name: _jsonable(value) for name, value in self.params},
        }


# ----------------------------------------------------------------------
# Topology specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """Declarative placement: connected ring, hidden-node disc or two clusters.

    ``two-cluster`` is the controlled hidden-terminal geometry the stability
    atlas sweeps: two equal clusters of stations whose cross-cluster distance
    (``separation``) decides whether the clusters can carrier-sense each
    other, with ``spread`` controlling the jitter inside each cluster.
    """

    kind: str
    num_stations: int
    radius: Optional[float] = None
    topology_seed: Optional[int] = None
    require_hidden_pairs: bool = True
    separation: Optional[float] = None
    spread: Optional[float] = None

    @classmethod
    def connected(cls, num_stations: int) -> "TopologySpec":
        """The paper's fully connected placement (ring of radius 8)."""
        return cls(kind="connected", num_stations=int(num_stations))

    @classmethod
    def hidden_disc(cls, num_stations: int, radius: float, topology_seed: int,
                    require_hidden_pairs: bool = True) -> "TopologySpec":
        """The paper's hidden-node placement (uniform disc of ``radius``)."""
        return cls(
            kind="hidden-disc",
            num_stations=int(num_stations),
            radius=float(radius),
            topology_seed=int(topology_seed),
            require_hidden_pairs=bool(require_hidden_pairs),
        )

    @classmethod
    def two_cluster(cls, stations_per_cluster: int, separation: float,
                    topology_seed: int, spread: float = 1.0) -> "TopologySpec":
        """Two seeded clusters ``separation`` metres apart (stability atlas)."""
        return cls(
            kind="two-cluster",
            num_stations=2 * int(stations_per_cluster),
            topology_seed=int(topology_seed),
            separation=float(separation),
            spread=float(spread),
        )

    def __post_init__(self) -> None:
        if self.kind not in ("connected", "hidden-disc", "two-cluster"):
            raise ValueError(f"unknown topology kind '{self.kind}'")
        if self.num_stations < 1:
            raise ValueError("num_stations must be at least 1")
        if self.kind == "hidden-disc":
            if self.radius is None or self.radius <= 0:
                raise ValueError("hidden-disc topologies need a positive radius")
            if self.topology_seed is None:
                raise ValueError("hidden-disc topologies need a topology_seed")
        if self.kind == "two-cluster":
            if self.num_stations % 2 != 0:
                raise ValueError("two-cluster topologies need an even station count")
            if self.separation is None or self.separation <= 0:
                raise ValueError("two-cluster topologies need a positive separation")
            if self.spread is None or self.spread < 0:
                raise ValueError("two-cluster topologies need a non-negative spread")
            if self.topology_seed is None:
                raise ValueError("two-cluster topologies need a topology_seed")

    def build(self) -> ConnectivityGraph:
        """Materialise the :class:`ConnectivityGraph` for the event simulator."""
        import numpy as np

        if self.kind == "connected":
            return fully_connected_scenario(self.num_stations)
        rng = np.random.default_rng(self.topology_seed)
        if self.kind == "two-cluster":
            return two_cluster_hidden_scenario(
                self.num_stations // 2, rng,
                separation=self.separation, spread=self.spread,
            )
        return hidden_node_scenario(
            self.num_stations, rng, radius=self.radius,
            require_hidden_pairs=self.require_hidden_pairs,
        )

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "num_stations": self.num_stations,
        }
        if self.kind == "hidden-disc":
            payload.update(
                radius=self.radius,
                topology_seed=self.topology_seed,
                require_hidden_pairs=self.require_hidden_pairs,
            )
        elif self.kind == "two-cluster":
            payload.update(
                separation=self.separation,
                spread=self.spread,
                topology_seed=self.topology_seed,
            )
        return payload


# ----------------------------------------------------------------------
# Run tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunTask:
    """One independently schedulable simulation cell.

    A task is a pure value: executing it twice (in any process) yields
    bit-identical :class:`~repro.sim.metrics.SimulationResult` objects, which
    is what makes both process-level parallelism and on-disk caching safe.

    ``simulator`` is ``"auto"`` (slotted for connected topologies, event-
    driven otherwise), ``"slotted"``, ``"event"`` or ``"batched"`` (the
    vectorized multi-cell simulators: the renewal-slot backend for connected
    topologies, the conflict-matrix backend for hidden-node topologies — the
    executor's planner assigns it to eligible ``auto`` tasks, see
    :mod:`repro.experiments.campaign.batching`; a task that asks for it must
    be eligible, see :func:`fallback_reason`).  ``label`` is cosmetic
    (progress lines, result metadata) and deliberately excluded from
    :meth:`task_key` so renaming a sweep does not invalidate its cache.

    ``traffic`` is the per-station workload
    (:class:`~repro.traffic.ArrivalProcess`); ``None`` means saturated.  A
    saturated :class:`ArrivalProcess` with the default (infinite) retry
    policy is canonicalised to ``None`` and the field is omitted from
    :meth:`to_json` in that case, so saturated task hashes — and therefore
    every pre-traffic :class:`ResultCache` entry — are unchanged.  A retry
    limit belongs to the workload, saturated or not
    (``ArrivalProcess.saturated(retry_limit=7)``).

    A ``weights`` scheme parameter must name every station of the cell.
    """

    scheme: SchemeSpec
    topology: TopologySpec
    seed: int
    duration: float
    warmup: float = 0.0
    simulator: str = "auto"
    report_interval: Optional[float] = None
    frame_error_rate: float = 0.0
    activity: Optional[Tuple[Tuple[float, int], ...]] = None
    phy: Optional[PhyParameters] = None
    traffic: Optional[ArrivalProcess] = None
    label: str = ""

    def __post_init__(self) -> None:
        if (self.traffic is not None and self.traffic.is_saturated
                and self.traffic.retry_limit is None):
            object.__setattr__(self, "traffic", None)
        if self.simulator not in ("auto", "slotted", "event", "batched"):
            raise ValueError(
                "simulator must be 'auto', 'slotted', 'event' or 'batched'"
            )
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        weights = dict(self.scheme.params).get("weights")
        if weights is not None and len(weights) < self.topology.num_stations:
            raise ValueError(
                f"the scheme has {len(weights)} weights for a cell of "
                f"{self.topology.num_stations} stations"
            )
        if self.simulator == "slotted" and self.topology.kind != "connected":
            raise ValueError(
                "the slotted simulator only models connected topologies"
            )
        if self.simulator == "batched":
            reason = fallback_reason(self)
            if reason is not None:
                raise ValueError(f"no batched kernel models this task: {reason}")
        if self.activity is not None:
            object.__setattr__(
                self, "activity",
                tuple((float(t), int(c)) for t, c in self.activity),
            )

    # ------------------------------------------------------------------
    def resolved_simulator(self) -> str:
        """The simulator that will actually execute this task."""
        if self.simulator != "auto":
            return self.simulator
        return "slotted" if self.topology.kind == "connected" else "event"

    def to_json(self) -> Dict[str, object]:
        """Canonical JSON description (the input of :meth:`task_key`)."""
        phy = None
        if self.phy is not None:
            phy = dict(sorted(dataclasses.asdict(self.phy).items()))
        payload = {
            "version": CACHE_VERSION,
            "scheme": self.scheme.to_json(),
            "topology": self.topology.to_json(),
            "seed": self.seed,
            "duration": self.duration,
            "warmup": self.warmup,
            "simulator": self.resolved_simulator(),
            "report_interval": self.report_interval,
            "frame_error_rate": self.frame_error_rate,
            "activity": [[t, c] for t, c in self.activity] if self.activity else None,
            "phy": phy,
        }
        if self.traffic is not None:
            # Only unsaturated workloads contribute a key dimension: the
            # saturated default must hash exactly as before this field
            # existed, keeping every pre-traffic cache entry valid.
            payload["traffic"] = self.traffic.to_json()
        return payload

    def task_key(self) -> str:
        """Stable content hash identifying this task across runs/processes."""
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def with_label(self, label: str) -> "RunTask":
        return dataclasses.replace(self, label=label)

    def scalar_equivalent(self) -> "RunTask":
        """This cell retargeted at its scalar oracle simulator.

        The fault-tolerant executor uses this as the last resort for a cell
        whose batched kernel keeps failing: connected cells re-run on the
        slotted simulator, everything else on the event-driven one.  The
        scalar simulators are cross-validated oracles of the batched
        kernels, not bit-exact clones, so the executor names the
        degradation (it is a fallback, not a transparent retry).
        """
        target = "slotted" if self.topology.kind == "connected" else "event"
        return dataclasses.replace(self, simulator=target)


def fallback_reason(task: RunTask) -> Optional[str]:
    """Why a task has no batched kernel (``None`` when it is eligible).

    This is the single source of truth for batch eligibility, phrased as a
    diagnosis: a task that asks for ``simulator="batched"`` is refused with
    it, the executor surfaces it when an ``auto`` hidden-node task degrades
    from the conflict-matrix backend to the (3x slower) event-driven
    simulator, and telemetry attaches it to the task's trace record.  It is
    a pure function of the task (never of its neighbours), so backend
    resolution stays deterministic and cache keys stable across campaigns
    that submit different task mixes.
    """
    if not batchable_scheme(task.scheme.kind):
        return f"unbatchable scheme '{task.scheme.kind}'"
    if task.topology.kind != "connected" and task.activity is not None:
        return ("activity schedule (the conflict-matrix backend models "
                "static populations only)")
    return None


# ----------------------------------------------------------------------
# Deterministic seed derivation
# ----------------------------------------------------------------------
def derive_seed(*components: object) -> int:
    """Derive a stable 63-bit seed from arbitrary hashable components.

    Unlike ``hash()`` this is stable across processes and Python versions
    (it goes through SHA-256 of the canonical JSON of the components), so a
    sweep expanded on one machine and resumed on another maps every cell to
    the same seed — the property that makes parallel campaign execution
    bit-identical to serial execution.
    """
    payload = json.dumps(
        [_jsonable(_canonical(c)) for c in components],
        sort_keys=True, separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
