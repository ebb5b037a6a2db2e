"""Bounded MAC retries: conservation, semantics and cache identity.

The retry limit discards a frame after ``retry_limit`` transmission
attempts, resetting the station's retry chain (CW back to minimum, like
802.11's retry-limit reset).  These tests pin the contracts that make the
feature safe across all four backends:

* **Frame conservation** — every offered frame is accounted for exactly:
  ``offered == delivered + queue-dropped + retry-discarded + still
  queued``, on the slotted, event-driven, batched renewal-slot and batched
  conflict-matrix backends, for open- and closed-loop workloads.
* **Retry semantics** — ``retry_limit=1`` discards on the first failure
  (no retransmissions ever), and a retry-limited saturated MAC keeps
  transmitting (the discard path must not deadlock a backlogged station).
* **Default compatibility** — ``retry_limit=None`` is the historical
  infinite-retry MAC: results are bit-identical to pre-retry code and the
  task key is unchanged, so every cached entry stays valid;
  ``retry_limit`` set is a new cache dimension.
"""

import pytest

from repro.experiments.campaign import (
    ArrivalProcess,
    RunTask,
    SchemeSpec,
    TopologySpec,
    execute_task,
)

NUM_STATIONS = 5
SEED = 3
TOPOLOGY_SEED = 11

CONNECTED = TopologySpec.connected(NUM_STATIONS)
HIDDEN = TopologySpec.hidden_disc(NUM_STATIONS + 1, 16.0, TOPOLOGY_SEED)

WORKLOADS = [
    ArrivalProcess.poisson(900.0, queue_limit=8, retry_limit=3),
    ArrivalProcess.cbr(700.0, queue_limit=8, retry_limit=3),
    ArrivalProcess.window_limited(4, flow_frames=80, retry_limit=3),
    ArrivalProcess.incast(12, 0.05, retry_limit=3),
]


def _run(topology, simulator, traffic, phy, duration=0.5):
    return execute_task(RunTask(
        scheme=SchemeSpec.make("standard-802.11"),
        topology=topology,
        seed=SEED,
        duration=duration,
        warmup=0.0,
        simulator=simulator,
        traffic=traffic,
        phy=phy,
    ))


def _assert_conserved(result, context):
    """offered == delivered + dropped + retry-discarded + still queued."""
    balance = (result.total_successes + result.dropped_frames
               + result.retry_discards + result.extra["queued_frames"])
    assert result.offered_frames == balance, (
        f"{context}: offered {result.offered_frames} != delivered "
        f"{result.total_successes} + dropped {result.dropped_frames} + "
        f"discarded {result.retry_discards} + queued "
        f"{result.extra['queued_frames']}"
    )


class TestFrameConservationUnderDiscard:
    """The conservation identity holds exactly on every backend."""

    @pytest.mark.parametrize("traffic", WORKLOADS,
                             ids=[t.kind for t in WORKLOADS])
    @pytest.mark.parametrize("simulator", ("slotted", "event", "batched"))
    def test_connected_backends_conserve_frames(self, phy, simulator,
                                                traffic):
        result = _run(CONNECTED, simulator, traffic, phy)
        _assert_conserved(result, f"{traffic.kind}/{simulator}/connected")

    @pytest.mark.parametrize("traffic", WORKLOADS,
                             ids=[t.kind for t in WORKLOADS])
    @pytest.mark.parametrize("simulator", ("event", "batched"))
    def test_hidden_backends_conserve_frames(self, phy, simulator, traffic):
        result = _run(HIDDEN, simulator, traffic, phy)
        if simulator == "batched":
            assert result.extra["backend"] == "conflict-matrix"
        _assert_conserved(result, f"{traffic.kind}/{simulator}/hidden")

    def test_discards_actually_happen_under_contention(self, phy):
        """The parametrised identity must not pass vacuously: with a tight
        retry limit under overload every backend discards frames."""
        traffic = ArrivalProcess.poisson(900.0, queue_limit=8, retry_limit=2)
        for simulator in ("slotted", "event", "batched"):
            result = _run(CONNECTED, simulator, traffic, phy)
            assert result.retry_discards > 0, simulator


class TestRetrySemantics:
    def test_retry_limit_one_never_retransmits(self, phy):
        """With ``retry_limit=1`` every collision loses its frame, so no
        frame is ever transmitted twice: attempts == offered - queued on
        a drop-free closed-loop workload."""
        traffic = ArrivalProcess.window_limited(4, flow_frames=60,
                                                retry_limit=1)
        for simulator in ("slotted", "event", "batched"):
            result = _run(CONNECTED, simulator, traffic, phy, duration=1.0)
            attempts = result.total_successes + result.total_failures
            departed = result.total_successes + result.retry_discards
            assert result.total_failures == result.retry_discards, simulator
            assert attempts == departed, simulator
            _assert_conserved(result, f"window/retry=1/{simulator}")

    def test_saturated_retry_limit_keeps_transmitting(self, phy):
        """A backlogged station that discards must re-enter contention
        immediately — the limit changes what is sent, not whether."""
        for simulator in ("slotted", "event", "batched"):
            result = _run(CONNECTED, simulator,
                          ArrivalProcess.saturated(retry_limit=2), phy)
            assert result.retry_discards > 0, simulator
            assert result.total_throughput_mbps > 15.0, simulator

    def test_tighter_limit_discards_more(self, phy):
        loose = _run(CONNECTED, "batched",
                     ArrivalProcess.saturated(retry_limit=6), phy)
        tight = _run(CONNECTED, "batched",
                     ArrivalProcess.saturated(retry_limit=2), phy)
        assert tight.retry_discards > loose.retry_discards

    def test_window_flows_complete_despite_discards(self, phy):
        """Discards clock the closed-loop window exactly like deliveries,
        so bounded flows always finish (no window deadlock)."""
        traffic = ArrivalProcess.window_limited(4, flow_frames=50,
                                                retry_limit=2)
        for simulator in ("slotted", "event", "batched"):
            result = _run(CONNECTED, simulator, traffic, phy, duration=1.5)
            assert len(result.flow_completions) == NUM_STATIONS, simulator
            assert all(t > 0 for _, t in result.flow_completions), simulator


class TestDefaultPathCompatibility:
    def test_default_is_bit_identical_to_infinite_retries(self, phy):
        for simulator in ("slotted", "event", "batched"):
            plain = _run(CONNECTED, simulator, None, phy, duration=0.3)
            explicit = _run(CONNECTED, simulator,
                            ArrivalProcess.saturated(), phy, duration=0.3)
            assert plain == explicit, simulator
            assert plain.retry_discards == 0, simulator

    def test_retry_limit_is_a_cache_dimension(self):
        def key(**kwargs):
            return RunTask(
                scheme=SchemeSpec.make("standard-802.11"),
                topology=CONNECTED, seed=1, duration=1.0, **kwargs,
            ).task_key()

        limited = key(traffic=ArrivalProcess.saturated(retry_limit=7))
        assert limited != key()
        assert limited != key(traffic=ArrivalProcess.saturated(retry_limit=6))
        poisson = ArrivalProcess.poisson(100.0)
        assert (key(traffic=ArrivalProcess.poisson(100.0, retry_limit=7))
                != key(traffic=poisson))
        # The keys cached entries were stored under: a retry-limited task
        # hashes as it always has.
        assert limited == ("8cd243f909536fea86edc472d8d836ee"
                           "a1bf13bc75e6bedcb06bd44604604d6c")

    def test_saturated_retry_limit_is_kept_in_the_task(self):
        task = RunTask(
            scheme=SchemeSpec.make("standard-802.11"),
            topology=CONNECTED, seed=1, duration=1.0,
            traffic=ArrivalProcess.saturated(retry_limit=7),
        )
        assert task.traffic is not None
        assert task.traffic.is_saturated
        assert task.traffic.retry_limit == 7
        assert task.to_json()["traffic"] == {"kind": "saturated",
                                             "retry_limit": 7}

    def test_invalid_retry_limit_rejected(self):
        with pytest.raises(ValueError, match="retry_limit"):
            ArrivalProcess.saturated(retry_limit=0)
        with pytest.raises(ValueError, match="retry_limit"):
            ArrivalProcess.poisson(100.0, retry_limit=-3)
