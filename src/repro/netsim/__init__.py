"""Simulated network substrate: virtual clock + unreliable datagram link."""

from .clock import VirtualClock
from .network import (
    Address,
    Datagram,
    Endpoint,
    LinkConfig,
    NetworkError,
    PERFECT_LINK,
    SimulatedNetwork,
)
from .rng import SnapshotRandom

__all__ = [
    "Address",
    "Datagram",
    "Endpoint",
    "LinkConfig",
    "NetworkError",
    "PERFECT_LINK",
    "SimulatedNetwork",
    "SnapshotRandom",
    "VirtualClock",
]
