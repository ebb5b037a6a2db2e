"""The per-cell books shared by both vectorized kernels.

:class:`repro.sim.ledger.CellBatch` holds the argument checks; each kernel
class must raise the same error, with the same message, for the same
argument.  :class:`repro.sim.ledger.CellLedger` redraws the losers of a
busy period, and its one ordering rule is pinned here directly, because
the golden batches rarely put a stream refill on a discard.
"""

import numpy as np
import pytest

from repro.sim.batched import BatchedSlottedSimulator, make_batched_system
from repro.sim.conflict import BatchedConflictSimulator
from repro.sim.ledger import CellLedger
from repro.traffic import ArrivalProcess

MAX_STATIONS = 4
VALID = dict(num_stations=[3, 4], seeds=[1, 2], duration=0.1)


def _renewal(phy, num_stations, seeds, **kwargs):
    bank, controller, _ = make_batched_system(
        "standard-802.11", {}, 2, MAX_STATIONS, phy)
    return BatchedSlottedSimulator(bank, controller, num_stations, seeds,
                                   phy=phy, **kwargs)


def _conflict(phy, num_stations, seeds, **kwargs):
    bank, controller, _ = make_batched_system(
        "standard-802.11", {}, 2, MAX_STATIONS, phy,
        station_observations=True)
    sensing = np.zeros((len(num_stations), MAX_STATIONS, MAX_STATIONS),
                       dtype=bool)
    return BatchedConflictSimulator(bank, controller, sensing, num_stations,
                                    seeds, phy=phy, **kwargs)


CASES = {
    "length-mismatch": (dict(seeds=[1]), "must have equal length"),
    "empty-batch": (dict(num_stations=[], seeds=[]),
                    "needs at least one cell"),
    "zero-duration": (dict(duration=0.0), "duration must be positive"),
    "negative-duration": (dict(duration=-1.0), "duration must be positive"),
    "negative-warmup": (dict(warmup=-0.1), "warmup must be non-negative"),
    "zero-report-interval": (dict(report_interval=0.0),
                             "report_interval must be positive"),
    "negative-report-interval": (dict(report_interval=-0.5),
                                 "report_interval must be positive"),
    "fer-one": (dict(frame_error_rate=1.0),
                r"frame_error_rate must lie in \[0, 1\)"),
    "fer-negative": (dict(frame_error_rate=-0.01),
                     r"frame_error_rate must lie in \[0, 1\)"),
    "zero-station-cell": (dict(num_stations=[3, 0]),
                          "every cell needs at least one station"),
}


@pytest.mark.parametrize("make", [_renewal, _conflict],
                         ids=["renewal", "conflict"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cell_batch_checks(phy, make, case):
    make(phy, **VALID)
    override, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        make(phy, **{**VALID, **override})


class _RecordingBank:
    """Stand-in policy bank that records the uniforms of a failure draw."""

    draws_initial = draws_success = draws_failure = 1

    def failure_draw(self, cells, stations, uniforms):
        self.failure_uniforms = uniforms[:, 0].tolist()
        return np.zeros(cells.size, dtype=np.int64)

    def success_draw(self, cells, stations, uniforms):
        return np.zeros(cells.size, dtype=np.int64)


def test_kept_losers_draw_before_the_discard_claim_refills():
    """A discard's success claim may refill the stream block; the losers
    that keep their frame must draw from the block they claimed."""
    bank = _RecordingBank()
    simulator = BatchedSlottedSimulator(
        bank, None, [2], [7], duration=1.0,
        traffic=ArrivalProcess.saturated(retry_limit=2))
    ledger = CellLedger(simulator, 2)
    streams = ledger.streams
    block = int(streams.blocks[0])
    streams.claim(np.array([block - 2]))
    # The two losers' failure draws fill the block to its end.
    base = streams.claim(np.array([2]))
    claimed = streams.buffer[0, block - 2]
    ledger.retry_f[1] = 1
    stations = np.array([0, 1])
    backoffs = np.zeros(2, dtype=np.int64)
    discarded = ledger.redraw_losers(stations, np.zeros(2, dtype=np.int64),
                                     stations, base, backoffs, np.zeros(1))
    assert discarded.tolist() == [1]
    assert bank.failure_uniforms == [claimed]
