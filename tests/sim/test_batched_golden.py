"""Golden digests for the renewal kernel.

Every result of :func:`repro.sim.batched.run_batched` is a deterministic
function of its inputs, so a SHA-256 over the serialised results of a fixed
set of batches pins the kernel's exact trajectories.  A change to the hot
loop that is meant to be a pure optimisation must leave every digest below
unchanged; a change that moves one has changed some cell's behaviour.

The batches cover every branch of the kernel: all six scheme kinds (plus
weighted wTOP and p-persistent stations, and RandomReset fixed at stage
``m``); TORA stage shifts both ways; frame errors with a reporting time line
and no warm-up; a bounded retry limit on saturated cells (uniform and
three-draw success redraws); Poisson arrivals with a queue limit and a retry
limit; on-off arrivals; an activity schedule with and without traffic.
Every batch mixes station counts, and all but the activity batches hold a
one-station cell.  One probed batch (TORA under CBR arrivals with frame
errors and a retry limit) also pins the probe samples, including queue
lengths, and the kernel's loop counters.

wTOP-CSMA, p-persistent draws and Poisson or on-off arrivals go through
``exp``/``log1p``, whose last bits depend on the platform's vectorised math
library.  Those digests are checked only where the ``recorded_math``
canary reproduces the values they were recorded with; every other digest
involves only correctly rounded arithmetic and is checked everywhere.
"""

import hashlib
import json

import pytest

from repro.experiments.campaign import result_to_dict
from repro.sim.batched import run_batched
from repro.sim.dynamics import step_activity
from repro.telemetry import ProbeConfig, Telemetry, probes, session
from repro.traffic import ArrivalProcess

#: Mixed station counts, including a one-station cell.
STATIONS = [1, 4, 9, 15]
#: Station counts for activity schedules, which need at least 4 stations.
ACTIVITY_STATIONS = [4, 6, 9, 5]
SEEDS = [1, 2, 3, 4]
WEIGHTS = [1.0, 2.0, 1.0, 3.0, 0.5, 1.0, 2.0, 1.0, 1.5, 1.0, 4.0, 1.0,
           1.0, 2.0, 1.0]
ACTIVITY = step_activity([(0.0, 2), (0.1, 4), (0.25, 1), (0.4, 3)])

#: name -> (scheme kind, scheme params, run_batched keyword arguments,
#: uses platform exp/log1p).
SCENARIOS = {
    "dcf-report": (
        "standard-802.11", {},
        dict(duration=0.4, warmup=0.2, report_interval=0.1), False),
    "idlesense-report": (
        "idlesense", {},
        dict(duration=0.4, warmup=0.3, report_interval=0.15), False),
    "wtop-report": (
        "wtop-csma", {"update_period": 0.02},
        dict(duration=0.3, warmup=1.0, report_interval=0.1), True),
    "wtop-weighted": (
        "wtop-csma", {"update_period": 0.02, "weights": WEIGHTS},
        dict(duration=0.3, warmup=0.6), True),
    "tora-report": (
        "tora-csma", {"update_period": 0.02, "initial_stage": 3,
                      "low_threshold": 0.52, "high_threshold": 0.6},
        dict(duration=0.3, warmup=1.0, report_interval=0.1), False),
    "fixed-p": (
        "fixed-p", {"p": 0.05},
        dict(duration=0.3, warmup=0.1), True),
    "fixed-p-weighted": (
        "fixed-p", {"p": 0.03, "weights": WEIGHTS},
        dict(duration=0.3, warmup=0.1), True),
    "randomreset-stage-m": (
        "fixed-randomreset", {"stage": 7, "p0": 0.3},
        dict(duration=0.3, warmup=0.1), False),
    "dcf-fer-report-no-warmup": (
        "standard-802.11", {},
        dict(duration=0.4, warmup=0.0, frame_error_rate=0.1,
             report_interval=0.1), False),
    "idlesense-fer-no-warmup": (
        "idlesense", {},
        dict(duration=0.4, warmup=0.0, frame_error_rate=0.05), False),
    "dcf-fer-retry": (
        "standard-802.11", {},
        dict(duration=0.4, warmup=0.2, frame_error_rate=0.05,
             traffic=ArrivalProcess.saturated(retry_limit=2)), False),
    "randomreset-fer-retry": (
        "fixed-randomreset", {"stage": 1, "p0": 0.5},
        dict(duration=0.4, warmup=0.2, frame_error_rate=0.05,
             report_interval=0.2,
             traffic=ArrivalProcess.saturated(retry_limit=3)), False),
    "idlesense-poisson-queue-retry": (
        "idlesense", {},
        dict(duration=0.4, warmup=0.2, report_interval=0.2,
             traffic=ArrivalProcess.poisson(300.0, queue_limit=4,
                                            retry_limit=3)), True),
    "dcf-on-off": (
        "standard-802.11", {},
        dict(duration=0.4, warmup=0.1,
             traffic=ArrivalProcess.on_off(800.0, 0.05, 0.05,
                                           queue_limit=6)), True),
    "dcf-activity": (
        "standard-802.11", {},
        dict(duration=0.4, warmup=0.2, report_interval=0.1,
             activity=ACTIVITY), False),
    "idlesense-activity-poisson": (
        "idlesense", {},
        dict(duration=0.4, warmup=0.2, activity=ACTIVITY,
             traffic=ArrivalProcess.poisson(500.0, queue_limit=5)), True),
}

GOLDEN = {
    "dcf-activity":
        "c163b8b8a3a081f8c06252a30308e061acaf7b24064fb21e05081bf683479ea3",
    "dcf-fer-report-no-warmup":
        "824de6b5b955743686e9f46c87b1d184fd5dd5c13fb79b2ab5231af9e4955f83",
    "dcf-fer-retry":
        "0b436eb96ad6ba2dfd77053435943cb675d2e667df0f570e02fc72e6a6f61403",
    "dcf-on-off":
        "402258ee665bdb1113d60cbf5b2e376bf4e5c00827623c218b9b098af269a07d",
    "dcf-report":
        "358f5d1642bfd83516c833464a45cb2d4dcb67fd3bd0fd9911a845d5e007088b",
    "fixed-p":
        "92a4897d2eec08d464972a2758683c493d51b8a6625898b7e6747a915f3dae97",
    "fixed-p-weighted":
        "7221df83fe28908ddf48317749f032baffd980a6b017ea24983f1faef4917c07",
    "idlesense-activity-poisson":
        "c097ac65bce82790bd5d6325b011d29efc6ae1f9dee678f205d49b1b689fd4c5",
    "idlesense-fer-no-warmup":
        "e18bbc572532dbe98a8ecebc5af2b66460c9026e69e545d4fd327991209b8603",
    "idlesense-poisson-queue-retry":
        "f5cc64be38dba2ae77b0657e278e93960ac878b35557a50cae410a2dac93e793",
    "idlesense-report":
        "48c33533b246b4fd5895e6063fdd1ed15741e18d99cd3f97c4b4ac1cfdbbb47c",
    "randomreset-fer-retry":
        "fcb02adb48358860c767d8cc53ee71ec8d89ed1df37dde11b7341fd6d36bfc73",
    "randomreset-stage-m":
        "2e23e9cdf4938d1e9ec8691ddb7527e6e3118cbba7c744d4d740b360e2149bc1",
    "tora-report":
        "7e61a67ae8a56a78c9aa69119a0c3af3667361632d1617f0bf07a97e2b3639a2",
    "wtop-report":
        "366b1e040bfbd56568394dd80ed19ec7bd3ffa98fcc86af6b17a9b9ad0e885d8",
    "wtop-weighted":
        "09642e8582e8c32c6bff38c3cec62b5e5bb0c50df4706f92ed5259125e6734f5",
}

#: Probed batch: TORA-CSMA under CBR arrivals with frame errors, reporting
#: and a retry limit, sampled every 50 ms; its digest also covers the probe
#: records and loop counters.  The slow CBR phase leaves some cells without
#: a reception before the first controller tick.
PROBED = (
    "tora-csma", {"update_period": 0.02},
    dict(duration=0.3, warmup=0.6, report_interval=0.1, frame_error_rate=0.2,
         traffic=ArrivalProcess.cbr(20.0, queue_limit=6, retry_limit=1)),
)
PROBED_GOLDEN = (
    "7adbe868f74aaebece858cdcc8426c6dba48d0cc5c0dd08c6778e0cf35c911e9"
)

#: Wall-clock fields of trace records, left out of the digest.
_WALL_CLOCK = ("t0", "pid")


def _stations(kwargs):
    return ACTIVITY_STATIONS if "activity" in kwargs else STATIONS


def _digest(results, records=()):
    payload = json.dumps({
        "results": [result_to_dict(r) for r in results],
        "records": [{k: v for k, v in record.items() if k not in _WALL_CLOCK}
                    for record in records],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_renewal_kernel_digest_is_pinned(phy, recorded_math, name):
    kind, params, kwargs, platform_math = SCENARIOS[name]
    if platform_math and not recorded_math:
        pytest.skip("this platform's exp/log1p differ from the recording one")
    results = run_batched(kind, params, _stations(kwargs), SEEDS, phy=phy,
                          **kwargs)
    assert _digest(results) == GOLDEN[name]


def test_probed_renewal_kernel_digest_is_pinned(phy):
    kind, params, kwargs = PROBED
    tel = Telemetry()
    with session(tel), probes.session(ProbeConfig(interval=0.05)):
        results = run_batched(kind, params, STATIONS, SEEDS, phy=phy,
                              **kwargs)
    records = [r for r in tel.records if r["type"] in ("probe", "counters")]
    assert {r["type"] for r in records} == {"probe", "counters"}
    assert _digest(results, records) == PROBED_GOLDEN
