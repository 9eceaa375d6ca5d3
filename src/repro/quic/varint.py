"""QUIC variable-length integers (RFC 9000 section 16).

A varint's two most significant bits encode its total length (1, 2, 4 or 8
bytes); the remaining bits carry the value.  Every length-prefixed field in
the QUIC wire format uses this encoding.
"""

from __future__ import annotations

VARINT_MAX = (1 << 62) - 1

_PREFIX_FOR_LENGTH = {1: 0x00, 2: 0x40, 4: 0x80, 8: 0xC0}
_LENGTH_FOR_PREFIX = {0x00: 1, 0x40: 2, 0x80: 4, 0xC0: 8}


class VarintError(ValueError):
    """Raised on out-of-range values or truncated buffers."""


def varint_length(value: int) -> int:
    """Number of bytes needed to encode ``value``."""
    if value < 0 or value > VARINT_MAX:
        raise VarintError(f"varint out of range: {value}")
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    return 8


def encode_varint(value: int) -> bytes:
    """Encode ``value`` in the minimal number of bytes."""
    length = varint_length(value)
    encoded = value.to_bytes(length, "big")
    return bytes([encoded[0] | _PREFIX_FOR_LENGTH[length]]) + encoded[1:]


def decode_varint(data: bytes | bytearray, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise VarintError("varint truncated: empty buffer")
    prefix = data[offset] & 0xC0
    length = _LENGTH_FOR_PREFIX[prefix]
    end = offset + length
    if end > len(data):
        raise VarintError(
            f"varint truncated: need {length} bytes, have {len(data) - offset}"
        )
    value = int.from_bytes(data[offset:end], "big") & ~(0xC0 << (8 * (length - 1)))
    return value, end


class Buffer:
    """A tiny cursor-based reader/writer used by the codecs."""

    def __init__(self, data: bytes = b"") -> None:
        self._data = bytearray(data)
        self._offset = 0

    # -- writing ---------------------------------------------------------
    def push_bytes(self, data: bytes) -> "Buffer":
        self._data.extend(data)
        return self

    def push_uint8(self, value: int) -> "Buffer":
        self._data.append(value & 0xFF)
        return self

    def push_uint(self, value: int, size: int) -> "Buffer":
        self._data.extend(value.to_bytes(size, "big"))
        return self

    def push_varint(self, value: int) -> "Buffer":
        self._data.extend(encode_varint(value))
        return self

    def push_varint_bytes(self, data: bytes) -> "Buffer":
        """Length-prefixed byte string."""
        self.push_varint(len(data))
        self._data.extend(data)
        return self

    # -- reading ---------------------------------------------------------
    def pull_bytes(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise VarintError(f"buffer underrun: need {count} bytes")
        chunk = bytes(self._data[self._offset : end])
        self._offset = end
        return chunk

    def pull_uint8(self) -> int:
        return self.pull_bytes(1)[0]

    def pull_uint(self, size: int) -> int:
        return int.from_bytes(self.pull_bytes(size), "big")

    def pull_varint(self) -> int:
        value, self._offset = decode_varint(self._data, self._offset)
        return value

    def pull_varint_bytes(self) -> bytes:
        return self.pull_bytes(self.pull_varint())

    def pull_zeros(self) -> int:
        """Skip a run of zero bytes; return its length."""
        rest = self._data[self._offset :]
        count = len(rest) - len(rest.lstrip(b"\x00"))
        self._offset += count
        return count

    # -- state -----------------------------------------------------------
    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    @property
    def eof(self) -> bool:
        return self._offset >= len(self._data)

    def getvalue(self) -> bytes:
        return bytes(self._data)
