"""Property tests: the per-cell policy banks equal their scalar policies.

The renewal kernel drives :class:`~repro.mac.batched.BatchedIdleSenseBank`
(one AIMD state per fully connected cell) and
:class:`~repro.mac.batched.BatchedDcfBank` (one backoff stage per station)
with masked, mixed-cell calls.  Each cell of the IdleSense bank must follow
exactly the trajectory of one scalar :class:`~repro.mac.idlesense
.IdleSenseBackoff` fed the same observations in the same order, and each
station of the DCF bank that of one scalar :class:`~repro.mac.backoff
.StandardExponentialBackoff` fed the same outcomes: the same windows and
stages, bit for bit, and draws taken from the same window.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mac.backoff import StandardExponentialBackoff
from repro.mac.batched import BatchedDcfBank, BatchedIdleSenseBank
from repro.mac.idlesense import IdleSenseBackoff
from repro.phy.constants import PhyParameters

PHY = PhyParameters()


@st.composite
def masked_observations(draw):
    """A batch width, AIMD parameters and per-call (mask, idle run) pairs."""
    num_cells = draw(st.integers(min_value=1, max_value=5))
    maxtrans = draw(st.integers(min_value=1, max_value=6))
    max_window = draw(st.integers(min_value=PHY.cw_min,
                                  max_value=PHY.cw_min + 40))
    calls = draw(st.lists(
        st.tuples(
            st.lists(st.booleans(), min_size=num_cells, max_size=num_cells),
            st.lists(st.integers(min_value=0, max_value=12),
                     min_size=num_cells, max_size=num_cells),
        ),
        min_size=1, max_size=40,
    ))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return num_cells, maxtrans, max_window, calls, seed


@given(masked_observations())
@settings(max_examples=80, deadline=None)
def test_idlesense_bank_matches_one_scalar_policy_per_cell(stream):
    num_cells, maxtrans, max_window, calls, seed = stream
    bank = BatchedIdleSenseBank(PHY, num_cells, maxtrans=maxtrans,
                                max_window=max_window)
    scalars = [IdleSenseBackoff(PHY, maxtrans=maxtrans, max_window=max_window)
               for _ in range(num_cells)]
    rng = np.random.default_rng(seed)
    for mask, idle in calls:
        cell_mask = np.array(mask, dtype=bool)
        bank.observe_transmission(cell_mask, np.array(idle, dtype=np.int64))
        for cell in cell_mask.nonzero()[0]:
            scalars[cell].observe_transmission(idle[cell])

        expected = np.array([policy.window for policy in scalars])
        np.testing.assert_array_equal(bank.windows, expected)
        # Draws read each cell's own window: floor(u * max(round(W), 1)),
        # whichever event the draw follows.
        cells = np.sort(rng.integers(0, num_cells, size=8))
        u = rng.random((cells.size, 1))
        expected_draw = (u[:, 0] * np.maximum(np.rint(expected[cells]), 1.0)
                         ).astype(np.int64)
        stations = np.zeros_like(cells)
        for redraw in (bank.initial_draw, bank.success_draw,
                       bank.failure_draw):
            np.testing.assert_array_equal(redraw(cells, stations, u),
                                          expected_draw)

    observed = bank.station_observed_idle()
    for cell, policy in enumerate(scalars):
        average = policy.observed_average_idle_slots()
        if average is None:
            assert np.isnan(observed[cell])
        else:
            assert observed[cell] == average


@st.composite
def outcome_streams(draw):
    """A batch shape and calls of (event, per-call-unique flat indices)."""
    num_cells = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=1, max_value=6))
    size = num_cells * width
    calls = draw(st.lists(
        st.tuples(
            st.sampled_from(["initial", "success", "failure"]),
            st.lists(st.integers(min_value=0, max_value=size - 1),
                     min_size=1, max_size=size, unique=True),
        ),
        min_size=1, max_size=60,
    ))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return num_cells, width, calls, seed


@given(outcome_streams())
@settings(max_examples=80, deadline=None)
def test_dcf_bank_matches_one_scalar_policy_per_station(stream):
    num_cells, width, calls, seed = stream
    bank = BatchedDcfBank(PHY, num_cells, width)
    scalars = [StandardExponentialBackoff(PHY)
               for _ in range(num_cells * width)]
    rng = np.random.default_rng(seed)
    for event, indices in calls:
        flat = np.array(sorted(indices), dtype=np.int64)
        cells, stations = np.divmod(flat, width)
        u = rng.random((flat.size, 1))
        redraw = {"initial": bank.initial_draw, "success": bank.success_draw,
                  "failure": bank.failure_draw}[event]
        got = redraw(cells, stations, u)
        for index in flat:
            policy = scalars[index]
            if event == "failure":
                policy.on_failure(rng)
            else:
                policy.on_success(rng)
        windows = np.array([scalars[index].current_window for index in flat])
        np.testing.assert_array_equal(
            got, (u[:, 0] * windows).astype(np.int64))

        stages = np.array([policy.stage for policy in scalars])
        np.testing.assert_array_equal(bank.stages.reshape(-1), stages)
        probe = bank.probe_state()
        np.testing.assert_array_equal(probe["stage"].reshape(-1), stages)
        np.testing.assert_array_equal(
            probe["cw"].reshape(-1),
            [policy.current_window for policy in scalars])
