"""HTTP/2 frame codec (RFC 9113 section 4).

Every frame is a 9-octet header -- 24-bit payload length, 8-bit type,
8-bit flags, 31-bit stream identifier -- followed by the payload.  The
module provides the :class:`Frame` wire codec, typed constructors and
payload parsers for the frame types the workload exercises
(DATA/HEADERS/RST_STREAM/SETTINGS/PING/GOAWAY/WINDOW_UPDATE), and a
stateful :class:`FrameDecoder` that reassembles frames from arbitrary
byte-stream chunks (the simulated network delivers datagram-sized pieces
of what is logically a TCP stream).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.state import BYTES, fields

#: The 24-octet client connection preface (RFC 9113 section 3.4).
CONNECTION_PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

FRAME_HEADER_LEN = 9
DEFAULT_MAX_FRAME_SIZE = 16_384
MAX_STREAM_ID = 2**31 - 1


class FrameError(ValueError):
    """A malformed frame: bad length, bad flags, or a truncated payload."""


class FrameType(enum.IntEnum):
    DATA = 0x0
    HEADERS = 0x1
    PRIORITY = 0x2
    RST_STREAM = 0x3
    SETTINGS = 0x4
    PUSH_PROMISE = 0x5
    PING = 0x6
    GOAWAY = 0x7
    WINDOW_UPDATE = 0x8
    CONTINUATION = 0x9


class ErrorCode(enum.IntEnum):
    """Connection/stream error codes (RFC 9113 section 7)."""

    NO_ERROR = 0x0
    PROTOCOL_ERROR = 0x1
    INTERNAL_ERROR = 0x2
    FLOW_CONTROL_ERROR = 0x3
    SETTINGS_TIMEOUT = 0x4
    STREAM_CLOSED = 0x5
    FRAME_SIZE_ERROR = 0x6
    REFUSED_STREAM = 0x7
    CANCEL = 0x8
    COMPRESSION_ERROR = 0x9


class Setting(enum.IntEnum):
    """SETTINGS parameter identifiers (RFC 9113 section 6.5.2)."""

    HEADER_TABLE_SIZE = 0x1
    ENABLE_PUSH = 0x2
    MAX_CONCURRENT_STREAMS = 0x3
    INITIAL_WINDOW_SIZE = 0x4
    MAX_FRAME_SIZE = 0x5
    MAX_HEADER_LIST_SIZE = 0x6


FLAG_END_STREAM = 0x1
FLAG_ACK = 0x1
FLAG_END_HEADERS = 0x4
FLAG_PADDED = 0x8
FLAG_PRIORITY = 0x20

#: Which flag bits are defined for which frame type, in render order.
_FLAG_NAMES: dict[int, tuple[tuple[int, str], ...]] = {
    FrameType.DATA: ((FLAG_END_STREAM, "END_STREAM"), (FLAG_PADDED, "PADDED")),
    FrameType.HEADERS: (
        (FLAG_END_STREAM, "END_STREAM"),
        (FLAG_END_HEADERS, "END_HEADERS"),
        (FLAG_PADDED, "PADDED"),
        (FLAG_PRIORITY, "PRIORITY"),
    ),
    FrameType.SETTINGS: ((FLAG_ACK, "ACK"),),
    FrameType.PING: ((FLAG_ACK, "ACK"),),
    FrameType.CONTINUATION: ((FLAG_END_HEADERS, "END_HEADERS"),),
}


@dataclass(frozen=True)
class Frame:
    """One HTTP/2 frame: type, flags, stream id and raw payload."""

    frame_type: int
    flags: int = 0
    stream_id: int = 0
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.stream_id <= MAX_STREAM_ID:
            raise FrameError(f"stream id out of range: {self.stream_id}")
        if len(self.payload) > 0xFFFFFF:
            raise FrameError(f"payload too long: {len(self.payload)} octets")

    # -- flags -----------------------------------------------------------
    def has_flag(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @property
    def end_stream(self) -> bool:
        return self.frame_type in (FrameType.DATA, FrameType.HEADERS) and self.has_flag(
            FLAG_END_STREAM
        )

    def flag_names(self) -> tuple[str, ...]:
        """The set flag names defined for this frame type (render order)."""
        defined = _FLAG_NAMES.get(self.frame_type, ())
        return tuple(name for bit, name in defined if self.flags & bit)

    # -- wire codec ------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to the 9-octet header plus payload."""
        header = (
            len(self.payload).to_bytes(3, "big")
            + bytes((self.frame_type & 0xFF, self.flags & 0xFF))
            + self.stream_id.to_bytes(4, "big")
        )
        return header + self.payload

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["Frame | None", int]:
        """Decode one frame starting at ``offset``.

        Returns ``(frame, octets_consumed)``; ``(None, 0)`` when the buffer
        does not yet hold a complete frame.
        """
        if len(data) - offset < FRAME_HEADER_LEN:
            return None, 0
        length = int.from_bytes(data[offset : offset + 3], "big")
        if length > DEFAULT_MAX_FRAME_SIZE:
            raise FrameError(f"frame exceeds max size: {length} octets")
        if len(data) - offset < FRAME_HEADER_LEN + length:
            return None, 0
        frame_type = data[offset + 3]
        flags = data[offset + 4]
        stream_id = int.from_bytes(data[offset + 5 : offset + 9], "big") & MAX_STREAM_ID
        payload = bytes(data[offset + 9 : offset + 9 + length])
        frame = cls(
            frame_type=frame_type, flags=flags, stream_id=stream_id, payload=payload
        )
        return frame, FRAME_HEADER_LEN + length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            kind = FrameType(self.frame_type).name
        except ValueError:
            kind = f"0x{self.frame_type:x}"
        flags = ",".join(self.flag_names())
        return f"Frame({kind}[{flags}], sid={self.stream_id}, {len(self.payload)}B)"


class FrameDecoder:
    """Reassembles frames from arbitrary byte-stream chunks."""

    __state__ = fields(_buffer=BYTES)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Append ``data`` and return every frame now complete, in order."""
        self._buffer.extend(data)
        frames: list[Frame] = []
        offset = 0
        while True:
            frame, consumed = Frame.decode(self._buffer, offset)
            if frame is None:
                break
            frames.append(frame)
            offset += consumed
        if offset:
            del self._buffer[:offset]
        return frames

    @property
    def buffered(self) -> int:
        """Octets held back waiting for the rest of a frame."""
        return len(self._buffer)


# ---------------------------------------------------------------------------
# Typed constructors
# ---------------------------------------------------------------------------

def settings_frame(settings: dict[int, int] | None = None, ack: bool = False) -> Frame:
    """A SETTINGS frame; an ACK must carry no parameters (section 6.5)."""
    if ack and settings:
        raise FrameError("a SETTINGS ACK must have an empty payload")
    payload = b"".join(
        int(ident).to_bytes(2, "big") + int(value).to_bytes(4, "big")
        for ident, value in (settings or {}).items()
    )
    return Frame(FrameType.SETTINGS, FLAG_ACK if ack else 0, 0, payload)


def headers_frame(
    stream_id: int,
    header_block: bytes,
    end_stream: bool = False,
    end_headers: bool = True,
) -> Frame:
    flags = (FLAG_END_STREAM if end_stream else 0) | (
        FLAG_END_HEADERS if end_headers else 0
    )
    return Frame(FrameType.HEADERS, flags, stream_id, bytes(header_block))


def data_frame(stream_id: int, data: bytes, end_stream: bool = False) -> Frame:
    return Frame(
        FrameType.DATA, FLAG_END_STREAM if end_stream else 0, stream_id, bytes(data)
    )


def rst_stream_frame(stream_id: int, error_code: int) -> Frame:
    return Frame(FrameType.RST_STREAM, 0, stream_id, int(error_code).to_bytes(4, "big"))


def goaway_frame(last_stream_id: int, error_code: int, debug: bytes = b"") -> Frame:
    payload = last_stream_id.to_bytes(4, "big") + int(error_code).to_bytes(4, "big")
    return Frame(FrameType.GOAWAY, 0, 0, payload + debug)


def ping_frame(data: bytes = b"\x00" * 8, ack: bool = False) -> Frame:
    if len(data) != 8:
        raise FrameError(f"PING payload must be 8 octets, got {len(data)}")
    return Frame(FrameType.PING, FLAG_ACK if ack else 0, 0, data)


def window_update_frame(stream_id: int, increment: int) -> Frame:
    if not 0 < increment <= MAX_STREAM_ID:
        raise FrameError(f"window increment out of range: {increment}")
    return Frame(FrameType.WINDOW_UPDATE, 0, stream_id, increment.to_bytes(4, "big"))


# ---------------------------------------------------------------------------
# Payload parsers
# ---------------------------------------------------------------------------

def parse_settings(frame: Frame) -> dict[int, int]:
    """The identifier -> value mapping of a SETTINGS payload."""
    if len(frame.payload) % 6:
        raise FrameError(f"SETTINGS payload not a multiple of 6: {len(frame.payload)}")
    settings = {}
    for offset in range(0, len(frame.payload), 6):
        ident = int.from_bytes(frame.payload[offset : offset + 2], "big")
        settings[ident] = int.from_bytes(frame.payload[offset + 2 : offset + 6], "big")
    return settings


def parse_rst_stream(frame: Frame) -> int:
    if len(frame.payload) != 4:
        raise FrameError(f"RST_STREAM payload must be 4 octets, got {len(frame.payload)}")
    return int.from_bytes(frame.payload, "big")


def parse_goaway(frame: Frame) -> tuple[int, int]:
    """The (last stream id, error code) pair of a GOAWAY payload."""
    if len(frame.payload) < 8:
        raise FrameError(f"GOAWAY payload too short: {len(frame.payload)} octets")
    last_stream_id = int.from_bytes(frame.payload[:4], "big") & MAX_STREAM_ID
    return last_stream_id, int.from_bytes(frame.payload[4:8], "big")


def parse_window_update(frame: Frame) -> int:
    if len(frame.payload) != 4:
        raise FrameError(
            f"WINDOW_UPDATE payload must be 4 octets, got {len(frame.payload)}"
        )
    return int.from_bytes(frame.payload, "big") & MAX_STREAM_ID
