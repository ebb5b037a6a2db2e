"""Parallel experiment campaign engine.

Every evaluation cell of the paper — one (scheme, topology, seed) simulation
— is independent of every other, so the full figure/table grid is
embarrassingly parallel.  This package turns that observation into
infrastructure:

* :mod:`~repro.experiments.campaign.specs` — declarative, picklable
  :class:`RunTask` descriptors with deterministic per-cell seed derivation
  (:func:`derive_seed`);
* :mod:`~repro.experiments.campaign.executor` — :func:`execute_task` (a pure
  function of a descriptor) and :class:`CampaignExecutor`, which fans task
  lists out over a process pool and keeps parallel results bit-identical to
  serial ones;
* :mod:`~repro.experiments.campaign.cache` — an on-disk JSON
  :class:`ResultCache` keyed by stable task hashes, so re-running a campaign
  only simulates the cells that changed.

Typical use::

    from repro.experiments.campaign import (
        CampaignExecutor, RunTask, SchemeSpec, TopologySpec,
    )

    task = RunTask(
        scheme=SchemeSpec.make("wtop-csma", update_period=0.05),
        topology=TopologySpec.connected(20),
        seed=1, duration=2.0, warmup=6.0,
    )
    executor = CampaignExecutor(jobs=8, cache_dir=".repro-cache")
    [result] = executor.run([task])

The per-figure runners in :mod:`repro.experiments` all emit their grids
through this API, and ``python -m repro.experiments all --jobs N`` runs the
entire evaluation as one campaign.
"""

from .batching import (
    batch_key,
    degraded_reason,
    execute_batch,
    fallback_reason,
    plan_batches,
    topology_fingerprint,
)
from .cache import (
    RESULT_SCHEMA_VERSION,
    ResultCache,
    result_from_dict,
    result_to_dict,
)
from .executor import (
    BACKENDS,
    CampaignEvent,
    CampaignExecutor,
    CampaignStats,
    FailedTask,
    execute_task,
    stderr_progress,
)
from .journal import JOURNAL_SCHEMA_VERSION, CampaignJournal
from .specs import (
    CACHE_VERSION,
    SCHEME_SPEC_KINDS,
    RunTask,
    SchemeSpec,
    TopologySpec,
    derive_seed,
)
from ...traffic import ArrivalProcess

__all__ = [
    "ArrivalProcess",
    "BACKENDS",
    "CACHE_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION",
    "SCHEME_SPEC_KINDS",
    "batch_key",
    "degraded_reason",
    "execute_batch",
    "fallback_reason",
    "plan_batches",
    "topology_fingerprint",
    "CampaignEvent",
    "CampaignExecutor",
    "CampaignJournal",
    "CampaignStats",
    "FailedTask",
    "ResultCache",
    "RunTask",
    "SchemeSpec",
    "TopologySpec",
    "derive_seed",
    "execute_task",
    "result_from_dict",
    "result_to_dict",
    "stderr_progress",
]
