"""PHY layer: timing constants and frames."""

from .constants import (
    DEFAULT_PHY,
    NS_PER_SECOND,
    PhyParameters,
    ns_to_seconds,
    seconds_to_ns,
)
from .frame import AckFrame, DataFrame, Frame, FrameFactory, FrameType

__all__ = [
    "DEFAULT_PHY",
    "NS_PER_SECOND",
    "PhyParameters",
    "ns_to_seconds",
    "seconds_to_ns",
    "AckFrame",
    "DataFrame",
    "Frame",
    "FrameFactory",
    "FrameType",
]
