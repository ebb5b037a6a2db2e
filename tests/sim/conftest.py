"""Shared fixtures for the simulator tests."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

#: SHA-256 of ``exp`` and ``log1p`` over a fixed sample on the platform the
#: golden digests were recorded on.
MATH_CANARY = (
    "a25d6f34fb2422574b8ee6ade84feda5c1d9ea477ef6d2fc5fe26b27c78ebd2c"
)


def _math_canary() -> str:
    u = np.random.default_rng(2024).random(4099)
    values = np.concatenate([np.log1p(-u), np.exp(-20.0 * u)])
    return hashlib.sha256(values.tobytes()).hexdigest()


@pytest.fixture(scope="session")
def recorded_math() -> bool:
    """Whether this platform's ``exp``/``log1p`` match the golden recordings.

    The last bits of both functions depend on the platform's vectorised math
    library, so golden digests of runs that go through them hold only where
    the canary matches.
    """
    return _math_canary() == MATH_CANARY
