"""TCP segment encoding and decoding (the TCP *native* alphabet).

Implements the RFC 793 segment layout -- 20-byte header plus payload -- with
the standard ones'-complement checksum over an IPv4 pseudo-header.  This is
the binary representation the simulated wire carries; the concrete alphabet
(:class:`TCPSegment`) is its structured form, mirroring the JSON object of
paper example 3.2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

_FLAG_BITS = {"FIN": FIN, "SYN": SYN, "RST": RST, "PSH": PSH, "ACK": ACK, "URG": URG}
_HEADER = struct.Struct("!HHIIBBHHH")
HEADER_LEN = _HEADER.size  # 20 bytes, no options

SEQ_MODULUS = 2**32


class SegmentError(ValueError):
    """Raised on truncated segments or checksum failures."""


def flags_to_bits(flags: Iterable[str]) -> int:
    """Convert flag names (``["SYN", "ACK"]``) to the header bitmask."""
    bits = 0
    for name in flags:
        try:
            bits |= _FLAG_BITS[name.upper()]
        except KeyError:
            raise SegmentError(f"unknown TCP flag: {name!r}") from None
    return bits


def bits_to_flags(bits: int) -> frozenset[str]:
    """Convert a header bitmask back to a set of flag names."""
    return frozenset(name for name, bit in _FLAG_BITS.items() if bits & bit)


def _checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement sum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _pseudo_header(src_ip: bytes, dst_ip: bytes, tcp_length: int) -> bytes:
    return src_ip + dst_ip + struct.pack("!BBH", 0, 6, tcp_length)


def _ip_bytes(host: str) -> bytes:
    """4-byte IPv4 address; non-dotted simulation hostnames are hashed."""
    parts = host.split(".")
    if len(parts) == 4 and all(p.isdigit() and int(p) < 256 for p in parts):
        return bytes(int(p) for p in parts)
    digest = sum(ord(c) * (i + 1) for i, c in enumerate(host)) & 0xFFFFFFFF
    return digest.to_bytes(4, "big")


@dataclass(frozen=True)
class TCPSegment:
    """A structured TCP segment -- the concrete alphabet for TCP.

    Field names follow paper example 3.2 (``seqNumber``, ``ackNumber``, ...);
    ``flags`` is a frozenset of flag names.
    """

    source_port: int
    destination_port: int
    seq_number: int
    ack_number: int
    flags: frozenset[str] = field(default_factory=frozenset)
    window: int = 8192
    urgent_pointer: int = 0
    payload: bytes = b""

    def __post_init__(self) -> None:
        for name, value in (
            ("source_port", self.source_port),
            ("destination_port", self.destination_port),
        ):
            if not 0 <= value <= 0xFFFF:
                raise SegmentError(f"{name} out of range: {value}")
        for name, value in (
            ("seq_number", self.seq_number),
            ("ack_number", self.ack_number),
        ):
            if not 0 <= value < SEQ_MODULUS:
                raise SegmentError(f"{name} out of range: {value}")

    def has_flags(self, *names: str) -> bool:
        """True if *exactly* this flag set is present."""
        return self.flags == frozenset(n.upper() for n in names)

    def flag_string(self) -> str:
        """Canonical ``+``-joined flag rendering (ACK first, like the paper)."""
        order = ("ACK", "SYN", "FIN", "RST", "PSH", "URG")
        present = [f for f in order if f in self.flags]
        return "+".join(present) if present else "NIL"

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self, src_host: str = "0.0.0.0", dst_host: str = "0.0.0.0") -> bytes:
        """Serialize with a valid checksum over the IPv4 pseudo-header."""
        data_offset_words = HEADER_LEN // 4
        offset_byte = data_offset_words << 4
        header = _HEADER.pack(
            self.source_port,
            self.destination_port,
            self.seq_number,
            self.ack_number,
            offset_byte,
            flags_to_bits(self.flags),
            self.window,
            0,  # checksum placeholder
            self.urgent_pointer,
        )
        segment = header + self.payload
        pseudo = _pseudo_header(
            _ip_bytes(src_host), _ip_bytes(dst_host), len(segment)
        )
        checksum = _checksum(pseudo + segment)
        return segment[:16] + struct.pack("!H", checksum) + segment[18:]

    @classmethod
    def decode(
        cls,
        data: bytes,
        src_host: str = "0.0.0.0",
        dst_host: str = "0.0.0.0",
        verify_checksum: bool = True,
    ) -> "TCPSegment":
        """Parse bytes back into a segment, optionally verifying checksum."""
        if len(data) < HEADER_LEN:
            raise SegmentError(f"segment truncated: {len(data)} bytes")
        (
            source_port,
            destination_port,
            seq_number,
            ack_number,
            offset_byte,
            flag_bits,
            window,
            checksum,
            urgent_pointer,
        ) = _HEADER.unpack(data[:HEADER_LEN])
        data_offset = (offset_byte >> 4) * 4
        if data_offset < HEADER_LEN or data_offset > len(data):
            raise SegmentError(f"bad data offset: {data_offset}")
        if verify_checksum:
            pseudo = _pseudo_header(_ip_bytes(src_host), _ip_bytes(dst_host), len(data))
            zeroed = data[:16] + b"\x00\x00" + data[18:]
            expected = _checksum(pseudo + zeroed)
            if expected != checksum:
                raise SegmentError(
                    f"checksum mismatch: header={checksum:#06x} "
                    f"computed={expected:#06x}"
                )
        return cls(
            source_port=source_port,
            destination_port=destination_port,
            seq_number=seq_number,
            ack_number=ack_number,
            flags=bits_to_flags(flag_bits),
            window=window,
            urgent_pointer=urgent_pointer,
            payload=data[data_offset:],
        )
