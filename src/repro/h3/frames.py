"""HTTP/3 frames (RFC 9114 section 7).

An HTTP/3 frame is ``varint type + varint length + payload`` and rides a
QUIC stream rather than a framed byte stream of its own, so -- unlike the
HTTP/2 codec -- there is no connection preface and no per-frame flags:
end-of-message is the transport's FIN bit.  :class:`H3FrameDecoder`
mirrors :class:`repro.http2.frames.FrameDecoder`: it is fed arbitrary
byte chunks (stream data arrives however the transport reassembled it)
and yields every completed frame, keeping partial frames buffered.

Unidirectional streams open with a varint *stream type*
(section 6.2); :data:`STREAM_TYPE_CONTROL` is the only one the workload
speaks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.state import BYTES, fields
from ..quic.varint import VarintError, decode_varint, encode_varint


class H3FrameError(ValueError):
    """A malformed HTTP/3 frame encoding."""


class H3FrameType(enum.IntEnum):
    """Frame types of RFC 9114 section 7.2 (11.2.1 registry values)."""

    DATA = 0x00
    HEADERS = 0x01
    CANCEL_PUSH = 0x03
    SETTINGS = 0x04
    PUSH_PROMISE = 0x05
    GOAWAY = 0x07
    MAX_PUSH_ID = 0x0D


#: Unidirectional stream type of the control stream (section 6.2.1).
STREAM_TYPE_CONTROL = 0x00

#: HTTP/3 error codes (RFC 9114 section 8.1).
H3_NO_ERROR = 0x0100
H3_GENERAL_PROTOCOL_ERROR = 0x0101
H3_FRAME_UNEXPECTED = 0x0105
H3_FRAME_ERROR = 0x0106
H3_CLOSED_CRITICAL_STREAM = 0x0104
H3_MISSING_SETTINGS = 0x010A
H3_REQUEST_REJECTED = 0x010B
H3_REQUEST_CANCELLED = 0x010C
H3_REQUEST_INCOMPLETE = 0x010D

#: Settings identifiers (section 7.2.4.1); QPACK ones from RFC 9204.
SETTING_QPACK_MAX_TABLE_CAPACITY = 0x01
SETTING_MAX_FIELD_SECTION_SIZE = 0x06
SETTING_QPACK_BLOCKED_STREAMS = 0x07


@dataclass(frozen=True)
class H3Frame:
    """One HTTP/3 frame: a type plus its raw payload."""

    frame_type: int
    payload: bytes = b""

    def encode(self) -> bytes:
        return (
            encode_varint(self.frame_type)
            + encode_varint(len(self.payload))
            + self.payload
        )

    @property
    def kind(self) -> str:
        """The abstract frame-type name (``DATA``, ``HEADERS``, ...)."""
        try:
            return H3FrameType(self.frame_type).name
        except ValueError:
            return f"UNKNOWN_{self.frame_type:#x}"


class H3FrameDecoder:
    """Incremental frame parser over arbitrarily chunked stream data."""

    __state__ = fields(_buffer=BYTES)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[H3Frame]:
        """Absorb ``data`` and return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[H3Frame] = []
        while True:
            frame, consumed = self._try_parse()
            if frame is None:
                break
            frames.append(frame)
            del self._buffer[:consumed]
        return frames

    def _try_parse(self) -> tuple[H3Frame | None, int]:
        view = bytes(self._buffer)
        try:
            frame_type, offset = decode_varint(view, 0)
            length, offset = decode_varint(view, offset)
        except VarintError:
            return None, 0  # header still incomplete
        end = offset + length
        if end > len(view):
            return None, 0  # payload still incomplete
        return H3Frame(frame_type=frame_type, payload=view[offset:end]), end

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)


# ---------------------------------------------------------------------------
# Typed constructors and payload parsers
# ---------------------------------------------------------------------------

def data_frame(body: bytes) -> H3Frame:
    return H3Frame(H3FrameType.DATA, body)


def headers_frame(field_section: bytes) -> H3Frame:
    """A HEADERS frame around an already QPACK-encoded field section."""
    return H3Frame(H3FrameType.HEADERS, field_section)


def settings_frame(settings: dict[int, int] | None = None) -> H3Frame:
    payload = bytearray()
    for identifier, value in (settings or {}).items():
        payload.extend(encode_varint(identifier))
        payload.extend(encode_varint(value))
    return H3Frame(H3FrameType.SETTINGS, bytes(payload))


def goaway_frame(stream_id: int) -> H3Frame:
    """GOAWAY carries the first unprocessed request-stream id (7.2.6)."""
    return H3Frame(H3FrameType.GOAWAY, encode_varint(stream_id))


def max_push_id_frame(push_id: int) -> H3Frame:
    return H3Frame(H3FrameType.MAX_PUSH_ID, encode_varint(push_id))


def parse_settings(frame: H3Frame) -> dict[int, int]:
    if frame.frame_type != H3FrameType.SETTINGS:
        raise H3FrameError(f"not a SETTINGS frame: {frame.kind}")
    settings: dict[int, int] = {}
    offset = 0
    try:
        while offset < len(frame.payload):
            identifier, offset = decode_varint(frame.payload, offset)
            value, offset = decode_varint(frame.payload, offset)
            settings[identifier] = value
    except VarintError as exc:
        raise H3FrameError(f"truncated SETTINGS payload: {exc}") from exc
    return settings


def parse_goaway(frame: H3Frame) -> int:
    if frame.frame_type != H3FrameType.GOAWAY:
        raise H3FrameError(f"not a GOAWAY frame: {frame.kind}")
    try:
        stream_id, offset = decode_varint(frame.payload, 0)
    except VarintError as exc:
        raise H3FrameError(f"truncated GOAWAY payload: {exc}") from exc
    if offset != len(frame.payload):
        raise H3FrameError("trailing bytes after GOAWAY stream id")
    return stream_id
