"""PHY and MAC timing constants for the IEEE 802.11 OFDM PHY.

The paper (Table I and Section II) evaluates an IEEE 802.11a/g style OFDM PHY
on a 20 MHz channel:

* idle slot duration ``sigma`` = 9 us
* SIFS = 16 us
* DIFS = 34 us
* data rate 54 Mbps, payload 8000 bits
* ``CWmin`` = 8, ``CWmax`` = 1024 (so ``m`` = log2(CWmax / CWmin) = 7)

Everything in this module is expressed twice: in SI seconds (floats, for the
analytical formulas) and in integer nanoseconds (for the discrete-event
simulator, which uses an integer clock to keep event ordering exact).

The central object is :class:`PhyParameters`, which derives the successful and
collided transmission durations ``Ts`` and ``Tc`` used throughout the paper::

    Ts = (L_H + E[P]) / R + SIFS + L_ACK / R + DIFS
    Tc = (L_H + E[P]) / R + DIFS
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

__all__ = [
    "NS_PER_SECOND",
    "US_PER_SECOND",
    "MICROSECOND",
    "DEFAULT_SLOT_TIME",
    "DEFAULT_SIFS",
    "DEFAULT_DIFS",
    "DEFAULT_BIT_RATE",
    "DEFAULT_PAYLOAD_BITS",
    "DEFAULT_MAC_HEADER_BITS",
    "DEFAULT_ACK_BITS",
    "DEFAULT_CW_MIN",
    "DEFAULT_CW_MAX",
    "PhyParameters",
    "seconds_to_ns",
    "ns_to_seconds",
]

#: Number of nanoseconds in one second (the simulator clock granularity).
NS_PER_SECOND = 1_000_000_000

#: Number of microseconds in one second.
US_PER_SECOND = 1_000_000

#: One microsecond expressed in seconds.
MICROSECOND = 1e-6

#: IEEE 802.11 OFDM (20 MHz channel spacing) slot time in seconds.
DEFAULT_SLOT_TIME = 9e-6

#: Short inter-frame space in seconds.
DEFAULT_SIFS = 16e-6

#: Distributed inter-frame space in seconds (SIFS + 2 * slot).
DEFAULT_DIFS = 34e-6

#: Data bit rate used by the paper (54 Mbps).
DEFAULT_BIT_RATE = 54e6

#: Payload size in bits used by the paper (Table I).
DEFAULT_PAYLOAD_BITS = 8000

#: MAC header size in bits (34 bytes: frame control .. FCS).
DEFAULT_MAC_HEADER_BITS = 34 * 8

#: ACK frame size in bits (14 bytes).
DEFAULT_ACK_BITS = 14 * 8

#: Minimum contention window used by the paper (Table I).
DEFAULT_CW_MIN = 8

#: Maximum contention window used by the paper (Table I).
DEFAULT_CW_MAX = 1024

#: PHY preamble + PLCP header duration for the OFDM PHY (20 us).
DEFAULT_PHY_HEADER_DURATION = 20e-6


def seconds_to_ns(value: float) -> int:
    """Convert a duration in seconds to integer nanoseconds (rounded)."""
    return int(round(value * NS_PER_SECOND))


def ns_to_seconds(value: int) -> float:
    """Convert a duration in integer nanoseconds to float seconds."""
    return value / NS_PER_SECOND


@dataclass(frozen=True)
class PhyParameters:
    """Bundle of PHY/MAC constants with derived frame durations.

    Parameters mirror Table I of the paper.  Instances are immutable; use
    :meth:`evolve` to derive variants (e.g. different payload sizes).

    Attributes
    ----------
    slot_time:
        Duration of an idle backoff slot (``sigma``), seconds.
    sifs:
        Short inter-frame space, seconds.
    difs:
        Distributed inter-frame space, seconds.
    bit_rate:
        Data rate in bits per second (data, header and ACK all use this rate,
        as in the paper's model).
    payload_bits:
        Expected MAC payload length ``E[P]`` in bits.
    mac_header_bits:
        MAC header length ``L_H`` in bits.
    ack_bits:
        ACK frame length ``L_ACK`` in bits.
    cw_min / cw_max:
        Minimum and maximum contention window sizes.
    energy_detection_dbm / cca_mode1_dbm:
        Receiver thresholds, retained for parity with the ns-3 configuration
        (Table I).  No simulator reads them: the topology takes the decode
        and carrier-sense radii they set in ns-3 directly
        (:class:`repro.topology.graph.ConnectivityGraph`).
    """

    slot_time: float = DEFAULT_SLOT_TIME
    sifs: float = DEFAULT_SIFS
    difs: float = DEFAULT_DIFS
    bit_rate: float = DEFAULT_BIT_RATE
    payload_bits: int = DEFAULT_PAYLOAD_BITS
    mac_header_bits: int = DEFAULT_MAC_HEADER_BITS
    ack_bits: int = DEFAULT_ACK_BITS
    cw_min: int = DEFAULT_CW_MIN
    cw_max: int = DEFAULT_CW_MAX
    phy_header_duration: float = DEFAULT_PHY_HEADER_DURATION
    energy_detection_dbm: float = -70.0
    cca_mode1_dbm: float = -70.0

    def __post_init__(self) -> None:
        if self.slot_time <= 0:
            raise ValueError("slot_time must be positive")
        if self.sifs <= 0 or self.difs <= 0:
            raise ValueError("SIFS and DIFS must be positive")
        if self.difs < self.sifs:
            raise ValueError("DIFS must not be smaller than SIFS")
        if self.bit_rate <= 0:
            raise ValueError("bit_rate must be positive")
        if self.payload_bits <= 0:
            raise ValueError("payload_bits must be positive")
        if self.mac_header_bits < 0 or self.ack_bits < 0:
            raise ValueError("frame overheads must be non-negative")
        if self.phy_header_duration < 0:
            raise ValueError("phy_header_duration must be non-negative")
        if self.cw_min < 1:
            raise ValueError("cw_min must be at least 1")
        if self.cw_max < self.cw_min:
            raise ValueError("cw_max must be >= cw_min")
        if self.cw_max % self.cw_min != 0:
            raise ValueError("cw_max must be a power-of-two multiple of cw_min")
        ratio = self.cw_max // self.cw_min
        if ratio & (ratio - 1) != 0:
            raise ValueError("cw_max / cw_min must be a power of two")

    # ------------------------------------------------------------------
    # Derived frame durations (seconds)
    # ------------------------------------------------------------------
    @property
    def data_tx_time(self) -> float:
        """Airtime of a data frame: preamble + ``(L_H + E[P]) / R`` seconds."""
        return (
            self.phy_header_duration
            + (self.mac_header_bits + self.payload_bits) / self.bit_rate
        )

    @property
    def ack_tx_time(self) -> float:
        """Airtime of an ACK frame (preamble + payload) in seconds."""
        return self.phy_header_duration + self.ack_bits / self.bit_rate

    @property
    def ts(self) -> float:
        """Expected duration of a successful transmission ``Ts`` (seconds)."""
        return self.data_tx_time + self.sifs + self.ack_tx_time + self.difs

    @property
    def tc(self) -> float:
        """Expected duration of a failed (collided) transmission ``Tc``."""
        return self.data_tx_time + self.difs

    @property
    def ts_slots(self) -> float:
        """``Ts`` measured in idle-slot units (``T*_s`` in the paper)."""
        return self.ts / self.slot_time

    @property
    def tc_slots(self) -> float:
        """``Tc`` measured in idle-slot units (``T*_c`` in the paper)."""
        return self.tc / self.slot_time

    @property
    def num_backoff_stages(self) -> int:
        """Number of backoff stages minus one, ``m = log2(CWmax / CWmin)``."""
        ratio = self.cw_max // self.cw_min
        return ratio.bit_length() - 1

    # ------------------------------------------------------------------
    # Integer-nanosecond views (for the event-driven simulator)
    # ------------------------------------------------------------------
    @property
    def slot_time_ns(self) -> int:
        return seconds_to_ns(self.slot_time)

    @property
    def sifs_ns(self) -> int:
        return seconds_to_ns(self.sifs)

    @property
    def difs_ns(self) -> int:
        return seconds_to_ns(self.difs)

    @property
    def data_tx_time_ns(self) -> int:
        return seconds_to_ns(self.data_tx_time)

    @property
    def ack_tx_time_ns(self) -> int:
        return seconds_to_ns(self.ack_tx_time)

    @property
    def ts_ns(self) -> int:
        return seconds_to_ns(self.ts)

    @property
    def tc_ns(self) -> int:
        return seconds_to_ns(self.tc)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def evolve(self, **changes: object) -> "PhyParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def contention_window(self, stage: int) -> int:
        """Contention window size ``CW_i = min(2^i CWmin, CWmax)`` for a stage."""
        if stage < 0:
            raise ValueError("backoff stage must be non-negative")
        return min(self.cw_min * (2 ** stage), self.cw_max)

    def as_table(self) -> Mapping[str, object]:
        """Return the Table I parameter listing as an ordered mapping."""
        return {
            "Bit Rate": f"{self.bit_rate / 1e6:g} Mbps",
            "Packet Payload": f"{self.payload_bits} bits",
            "CWmin": self.cw_min,
            "CWmax": self.cw_max,
            "Slot time": f"{self.slot_time * 1e6:g} us",
            "SIFS": f"{self.sifs * 1e6:g} us",
            "DIFS": f"{self.difs * 1e6:g} us",
            "EnergyDetectionThreshold": f"{self.energy_detection_dbm:g} dBm",
            "CcaMode1Threshold": f"{self.cca_mode1_dbm:g} dBm",
        }


#: Module-level default instance matching the paper's Table I.
DEFAULT_PHY = PhyParameters()

__all__.append("DEFAULT_PHY")
