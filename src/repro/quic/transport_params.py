"""QUIC transport parameters (RFC 9000 section 18).

Transport parameters ride inside the simulated ClientHello/ServerHello and
negotiate flow-control limits.  Only the parameters the implementations
actually consult are modelled, but the codec accepts and preserves unknown
ids (as required by the RFC's extension rules).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.extended import FrozenDict
from .varint import Buffer, VarintError

PARAM_MAX_IDLE_TIMEOUT = 0x01
PARAM_INITIAL_MAX_DATA = 0x04
PARAM_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL = 0x05
PARAM_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE = 0x06
PARAM_INITIAL_MAX_STREAMS_BIDI = 0x08
PARAM_ORIGINAL_DCID = 0x00
PARAM_RETRY_SOURCE_CID = 0x10

#: The field each parameter decodes into, in encoding order.
_VARINT_FIELDS = {
    PARAM_MAX_IDLE_TIMEOUT: "max_idle_timeout",
    PARAM_INITIAL_MAX_DATA: "initial_max_data",
    PARAM_INITIAL_MAX_STREAM_DATA_BIDI_LOCAL: "initial_max_stream_data_bidi_local",
    PARAM_INITIAL_MAX_STREAM_DATA_BIDI_REMOTE: "initial_max_stream_data_bidi_remote",
    PARAM_INITIAL_MAX_STREAMS_BIDI: "initial_max_streams_bidi",
}
_BYTES_FIELDS = {
    PARAM_ORIGINAL_DCID: "original_dcid",
    PARAM_RETRY_SOURCE_CID: "retry_source_cid",
}


class TransportParameterError(ValueError):
    """Raised on malformed transport-parameter encodings."""


@dataclass(frozen=True)
class TransportParameters:
    """The negotiated limits one endpoint advertises to its peer.

    Frozen and hashable (``unknown`` too): connections and their SUL
    snapshots share instances.
    """

    max_idle_timeout: int = 30_000
    initial_max_data: int = 10_000
    initial_max_stream_data_bidi_local: int = 100
    initial_max_stream_data_bidi_remote: int = 100
    initial_max_streams_bidi: int = 8
    original_dcid: bytes = b""
    retry_source_cid: bytes | None = None
    unknown: FrozenDict = FrozenDict()

    def __post_init__(self) -> None:
        if type(self.unknown) is not FrozenDict:
            object.__setattr__(self, "unknown", FrozenDict(self.unknown))

    def encode(self) -> bytes:
        buf = Buffer()

        def put_bytes_param(param_id: int, value: bytes) -> None:
            buf.push_varint(param_id)
            buf.push_varint_bytes(value)

        for param_id, name in _VARINT_FIELDS.items():
            inner = Buffer()
            inner.push_varint(getattr(self, name))
            put_bytes_param(param_id, inner.getvalue())
        if self.original_dcid:
            put_bytes_param(PARAM_ORIGINAL_DCID, self.original_dcid)
        if self.retry_source_cid is not None:
            put_bytes_param(PARAM_RETRY_SOURCE_CID, self.retry_source_cid)
        for param_id, value in sorted(self.unknown.items()):
            put_bytes_param(param_id, value)
        return buf.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "TransportParameters":
        """Collect the field values first, then build the (frozen) object."""
        fields: dict[str, object] = {}
        unknown: dict[int, bytes] = {}
        buf = Buffer(data)
        try:
            while not buf.eof:
                param_id = buf.pull_varint()
                value = buf.pull_varint_bytes()
                if param_id in _VARINT_FIELDS:
                    fields[_VARINT_FIELDS[param_id]] = _as_varint(param_id, value)
                elif param_id in _BYTES_FIELDS:
                    fields[_BYTES_FIELDS[param_id]] = value
                else:
                    unknown[param_id] = value
        except VarintError as exc:
            raise TransportParameterError(f"truncated parameters: {exc}") from exc
        return cls(**fields, unknown=unknown)


def _as_varint(param_id: int, value: bytes) -> int:
    inner = Buffer(value)
    result = inner.pull_varint()
    if not inner.eof:
        raise TransportParameterError(f"trailing bytes in parameter {param_id:#x}")
    return result
