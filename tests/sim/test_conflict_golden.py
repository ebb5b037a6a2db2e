"""Golden digests for the conflict-matrix kernel.

Every result of :func:`repro.sim.conflict.run_conflict` is a deterministic
function of its inputs, so a SHA-256 over the serialised results of a fixed
set of batches pins the kernel's exact trajectories.  A change to the hot
loop that is meant to be a pure optimisation must leave every digest below
unchanged; a change that moves one has changed some cell's behaviour.

The batches cover every branch of the kernel: IdleSense (per-station channel
observations), DCF, wTOP-CSMA and TORA-CSMA saturated; Poisson arrivals with
a queue limit (parking and rejoining stations); bounded retries with and
without traffic (the discard path); frame errors; reporting time lines; a
two-cluster topology; and mixed station counts inside one batch.

wTOP-CSMA and the Poisson arrival draws go through ``exp``/``log1p``, whose
last bits depend on the platform's vectorised math library.  Those digests
are checked only where a fixed canary of both functions reproduces the
values they were recorded with; every other digest involves only correctly
rounded arithmetic and is checked everywhere.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.campaign import result_to_dict
from repro.sim.conflict import run_conflict
from repro.telemetry import ProbeConfig, Telemetry, probes, session
from repro.topology.scenarios import (
    hidden_node_scenario,
    two_cluster_hidden_scenario,
)
from repro.traffic import ArrivalProcess


def _topologies():
    """Mixed station counts, both disc radii and a two-cluster cell."""
    return [
        hidden_node_scenario(6, np.random.default_rng(11), radius=16.0,
                             require_hidden_pairs=True),
        hidden_node_scenario(9, np.random.default_rng(12), radius=20.0,
                             require_hidden_pairs=True),
        two_cluster_hidden_scenario(3, np.random.default_rng(13)),
        hidden_node_scenario(4, np.random.default_rng(14), radius=16.0),
    ]


SEEDS = [1, 2, 3, 4]

#: name -> (scheme kind, scheme params, run_conflict keyword arguments,
#: uses platform exp/log1p).
SCENARIOS = {
    "idlesense-report": (
        "idlesense", {},
        dict(duration=0.5, warmup=0.6, report_interval=0.25), False),
    "idlesense-fer-retry": (
        "idlesense", {},
        dict(duration=0.4, warmup=0.2, frame_error_rate=0.05,
             traffic=ArrivalProcess.saturated(retry_limit=3)), False),
    "dcf-fer-retry-report": (
        "standard-802.11", {},
        dict(duration=0.4, warmup=0.2, frame_error_rate=0.1,
             report_interval=0.1,
             traffic=ArrivalProcess.saturated(retry_limit=2)), False),
    "tora-report": (
        "tora-csma", {"update_period": 0.05},
        dict(duration=0.4, warmup=0.6, report_interval=0.2), False),
    "wtop-report": (
        "wtop-csma", {"update_period": 0.05},
        dict(duration=0.4, warmup=0.6, report_interval=0.2), True),
    "idlesense-poisson-queue-retry": (
        "idlesense", {},
        dict(duration=0.4, warmup=0.2, report_interval=0.2,
             traffic=ArrivalProcess.poisson(300.0, queue_limit=4,
                                            retry_limit=3)), True),
    "dcf-poisson-queue": (
        "standard-802.11", {},
        dict(duration=0.4, warmup=0.0,
             traffic=ArrivalProcess.poisson(600.0, queue_limit=6)), True),
    "idlesense-fer-retry-report-no-warmup": (
        "idlesense", {},
        dict(duration=0.4, warmup=0.0, frame_error_rate=0.1,
             report_interval=0.1,
             traffic=ArrivalProcess.saturated(retry_limit=2)), False),
}

GOLDEN = {
    "dcf-fer-retry-report":
        "7ab99ed53cedfc911ba18601fd10906bdf9a91db2d9a0f1bdca125799eb51e43",
    "dcf-poisson-queue":
        "8fc3b488d6b9a20709eb44f2479e1f05aaf412bec022d1efbf829b50fadaf519",
    "idlesense-fer-retry":
        "51eb459e50f8b9ee8975d3f9bdb87013a761bbb4efede8c2a6defdd26047883f",
    "idlesense-fer-retry-report-no-warmup":
        "49001aee3f0a903e63deed88e2a14c7c92c77b7875be7d1b5f0583ed0fa34720",
    "idlesense-poisson-queue-retry":
        "fa43695824a1db82b7b6e8a69a3754a746d258a3fe9c7a1eddeb6fcc3d095762",
    "idlesense-report":
        "e8a3f10f4f69ae6ab67b1f2d95849ee5705f4f51a1a559d3da1e6a2dd7229908",
    "tora-report":
        "0305b0f3cf14a107ea79af9d3625df3600db218dc0e9390a52c63dd3505f5b00",
    "wtop-report":
        "85e3a6c0d80f66a89a413679c48890ff8d36367d26424fc92d6aad103a0913a0",
}


#: Probed batch: TORA-CSMA under CBR arrivals with frame errors, reporting
#: and a retry limit, sampled every 50 ms; its digest also covers the probe
#: records and loop counters.
PROBED = (
    "tora-csma", {"update_period": 0.05},
    dict(duration=0.3, warmup=0.3, report_interval=0.1, frame_error_rate=0.2,
         traffic=ArrivalProcess.cbr(200.0, queue_limit=6, retry_limit=1)),
)
PROBED_GOLDEN = (
    "1f7a2f734aaaf35fde79472462442d9b8e37160e6578b5724b671557bcac2a97"
)

#: Wall-clock fields of trace records, left out of the digest.
_WALL_CLOCK = ("t0", "pid")


def _digest(results, records=None):
    payload = [result_to_dict(r) for r in results]
    if records is not None:
        payload = {
            "results": payload,
            "records": [{k: v for k, v in record.items()
                         if k not in _WALL_CLOCK} for record in records],
        }
    payload = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_conflict_kernel_digest_is_pinned(phy, recorded_math, name):
    kind, params, kwargs, platform_math = SCENARIOS[name]
    if platform_math and not recorded_math:
        pytest.skip("this platform's exp/log1p differ from the recording one")
    results = run_conflict(kind, params, _topologies(), SEEDS, phy=phy,
                           **kwargs)
    assert _digest(results) == GOLDEN[name]


def test_probed_conflict_kernel_digest_is_pinned(phy):
    kind, params, kwargs = PROBED
    tel = Telemetry()
    with session(tel), probes.session(ProbeConfig(interval=0.05)):
        results = run_conflict(kind, params, _topologies(), SEEDS, phy=phy,
                               **kwargs)
    records = [r for r in tel.records if r["type"] in ("probe", "counters")]
    assert {r["type"] for r in records} == {"probe", "counters"}
    assert _digest(results, records) == PROBED_GOLDEN
