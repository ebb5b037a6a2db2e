"""Property test: the per-station IdleSense bank equals scalar IdleSense.

:class:`~repro.mac.batched.BatchedStationIdleSenseBank` holds the AIMD state
of every station of a batch in flat arrays and takes one observation call
per simulator instant, with the observations of unrelated stations of many
cells mixed together.  Each station must nevertheless follow exactly the
trajectory of its own scalar :class:`~repro.mac.idlesense.IdleSenseBackoff`
fed the same observations in the same order: the same windows, bit for bit,
the same long-run idle averages, and draws taken from its own window.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mac.batched import BatchedStationIdleSenseBank
from repro.mac.idlesense import IdleSenseBackoff
from repro.phy.constants import PhyParameters

PHY = PhyParameters()


@st.composite
def observation_streams(draw):
    """A batch shape, AIMD parameters and calls of per-call-unique indices."""
    num_cells = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=1, max_value=6))
    maxtrans = draw(st.integers(min_value=1, max_value=6))
    max_window = draw(st.integers(min_value=PHY.cw_min,
                                  max_value=PHY.cw_min + 40))
    size = num_cells * width
    calls = draw(st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=size - 1),
                      st.integers(min_value=0, max_value=12)),
            min_size=1, max_size=size, unique_by=lambda obs: obs[0],
        ),
        min_size=1, max_size=40,
    ))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return num_cells, width, maxtrans, max_window, calls, seed


@given(observation_streams())
@settings(max_examples=80, deadline=None)
def test_station_bank_matches_one_scalar_policy_per_station(stream):
    num_cells, width, maxtrans, max_window, calls, seed = stream
    bank = BatchedStationIdleSenseBank(PHY, num_cells, width,
                                       maxtrans=maxtrans,
                                       max_window=max_window)
    scalars = [IdleSenseBackoff(PHY, maxtrans=maxtrans, max_window=max_window)
               for _ in range(num_cells * width)]
    for call in calls:
        flat = np.array([index for index, _ in call], dtype=np.int64)
        idle = np.array([slots for _, slots in call], dtype=np.int64)
        bank.observe_stations(flat, idle)
        for index, slots in call:
            scalars[index].observe_transmission(slots)

    expected = np.array([policy.window for policy in scalars])
    np.testing.assert_array_equal(bank.windows.reshape(-1), expected)

    idle_est = bank.probe_state()["idle_est"].reshape(-1)
    for index, policy in enumerate(scalars):
        average = policy.observed_average_idle_slots()
        if average is None:
            assert np.isnan(idle_est[index])
        else:
            assert idle_est[index] == average

    # Draws read each station's own window: floor(u * max(round(W), 1)).
    cells, stations = np.divmod(np.arange(num_cells * width), width)
    u = np.random.default_rng(seed).random((cells.size, 1))
    expected_draw = (u[:, 0] * np.maximum(np.rint(expected), 1.0)).astype(
        np.int64)
    for draw in (bank.initial_draw, bank.success_draw, bank.failure_draw):
        np.testing.assert_array_equal(draw(cells, stations, u), expected_draw)
