"""Packet-number spaces (RFC 9000 section 12.3).

QUIC keeps three independent packet-number spaces: Initial, Handshake and
Application (1-RTT).  Each space tracks the next number to send, every
number received (for ACK generation and duplicate detection), and the
largest number the peer acknowledged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .frames import AckFrame, AckRange


class Space(enum.Enum):
    INITIAL = "INITIAL"
    HANDSHAKE = "HANDSHAKE"
    APPLICATION = "APPLICATION"


@dataclass
class PacketNumberSpace:
    """Send/receive bookkeeping for one encryption level."""

    next_packet_number: int = 0
    received: set[int] = field(default_factory=set)
    largest_received: int = -1
    largest_acked_by_peer: int = -1

    def __deepcopy__(self, memo) -> "PacketNumberSpace":
        # Every field is an int or a set of ints: no generic recursion.
        return PacketNumberSpace(
            self.next_packet_number,
            set(self.received),
            self.largest_received,
            self.largest_acked_by_peer,
        )

    def take_packet_number(self) -> int:
        number = self.next_packet_number
        self.next_packet_number += 1
        return number

    def on_received(self, packet_number: int) -> bool:
        """Record an incoming packet number; False if it is a duplicate."""
        if packet_number in self.received:
            return False
        self.received.add(packet_number)
        self.largest_received = max(self.largest_received, packet_number)
        return True

    def on_ack(self, frame: AckFrame) -> None:
        self.largest_acked_by_peer = max(
            self.largest_acked_by_peer, frame.largest_acknowledged
        )

    def build_ack(self) -> AckFrame | None:
        """An ACK frame covering everything received so far, or None."""
        if not self.received:
            return None
        ranges: list[AckRange] = []
        ordered = sorted(self.received)
        start = previous = ordered[0]
        for number in ordered[1:]:
            if number == previous + 1:
                previous = number
                continue
            ranges.append(AckRange(start, previous))
            start = previous = number
        ranges.append(AckRange(start, previous))
        return AckFrame(
            largest_acknowledged=self.largest_received,
            ack_delay=0,
            ranges=tuple(reversed(ranges)),
        )

    def reset(self) -> None:
        """Forget everything -- what a client does when it (incorrectly?)
        resets its packet-number spaces after a RETRY (Issue 1)."""
        self.next_packet_number = 0
        self.received.clear()
        self.largest_received = -1
        self.largest_acked_by_peer = -1
