"""An in-process HTTP/3 server (RFC 9114) over abstract stream events.

The server is transport-neutral: the app layer feeds it per-stream data
and reset notifications and carries back the :class:`~repro.h3.actions
.H3Action` responses.  It speaks the request/response subset the learning
workload exercises -- control-stream SETTINGS and GOAWAY, request streams
of HEADERS / DATA / trailers, graceful draining -- and enforces the RFC's
frame-sequencing rules: SETTINGS must open the control stream
(H3_MISSING_SETTINGS), appear exactly once (H3_FRAME_UNEXPECTED), DATA
may not precede HEADERS, and request frames may not ride the control
stream.

The seeded quirk ``goaway_teardown_bug`` mirrors a real class of HTTP/3
shutdown bugs: on receiving the client's GOAWAY the buggy server still
answers with its own GOAWAY -- indistinguishable at that step -- but then
tears the connection down instead of draining, so in-flight requests die
silently and new ones are neither rejected nor reset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..quic.varint import VarintError, decode_varint, encode_varint
from .actions import H3Action
from .frames import (
    H3_CLOSED_CRITICAL_STREAM,
    H3_FRAME_ERROR,
    H3_FRAME_UNEXPECTED,
    H3_MISSING_SETTINGS,
    H3_REQUEST_INCOMPLETE,
    H3_REQUEST_REJECTED,
    H3Frame,
    H3FrameDecoder,
    H3FrameType,
    STREAM_TYPE_CONTROL,
    data_frame,
    goaway_frame,
    headers_frame,
    parse_goaway,
    parse_settings,
    settings_frame,
)
from .qpack import QPACKDecoder, QPACKEncoder, QPACKError

#: The server's unidirectional control stream (first server-initiated uni).
SERVER_CONTROL_STREAM = 3
#: The client's unidirectional control stream (first client-initiated uni).
CLIENT_CONTROL_STREAM = 2


class ConnectionState(enum.Enum):
    READY = "ready"
    DRAINING = "draining"
    CLOSED = "closed"


@dataclass(frozen=True)
class H3ServerConfig:
    """Response content plus the optional seeded quirk."""

    response_headers: tuple[tuple[str, str], ...] = (
        (":status", "200"),
        ("content-type", "text/plain"),
    )
    response_body: bytes = b"hello-http3"
    settings: tuple[tuple[int, int], ...] = ((0x01, 0), (0x06, 16384))
    goaway_teardown_bug: bool = False


@dataclass
class _RequestState:
    headers_seen: bool = False
    trailers_seen: bool = False
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytearray = field(default_factory=bytearray)


class H3Server:
    """One HTTP/3 server connection, reset between membership queries."""

    def __init__(self, config: H3ServerConfig | None = None, seed: int = 8) -> None:
        self.config = config or H3ServerConfig()
        self.seed = seed
        self._encoder = QPACKEncoder()
        self._qpack_decoder = QPACKDecoder()
        self.stats = {"frames_received": 0, "requests_answered": 0, "resets": 0}
        self.reset()

    def reset(self) -> None:
        self.stats["resets"] += 1
        self.state = ConnectionState.READY
        self.settings_received = False
        self.peer_settings: dict[int, int] = {}
        self.control_sent = False
        self.last_error = 0
        self.max_request_stream = -4  # so "+ 4" yields stream 0 when none seen
        self.drain_boundary: int | None = None
        self._control_type_buffer = bytearray()
        self._control_type_seen = False
        self._decoders: dict[int, H3FrameDecoder] = {}
        self._requests: dict[int, _RequestState] = {}

    def snapshot(self) -> tuple:
        """The connection state :meth:`reset` starts afresh, as immutable
        values (SUL snapshots).  The QPACK codecs keep no state (static
        table only) and ``stats`` counts what was processed, so both stay
        out."""
        return (
            self.state,
            self.settings_received,
            tuple(self.peer_settings.items()),
            self.control_sent,
            self.last_error,
            self.max_request_stream,
            self.drain_boundary,
            bytes(self._control_type_buffer),
            self._control_type_seen,
            tuple((sid, decoder.snapshot()) for sid, decoder in self._decoders.items()),
            tuple(
                (sid, r.headers_seen, r.trailers_seen, tuple(r.headers), bytes(r.body))
                for sid, r in self._requests.items()
            ),
        )

    def restore(self, state: tuple) -> None:
        (
            self.state,
            self.settings_received,
            peer_settings,
            self.control_sent,
            self.last_error,
            self.max_request_stream,
            self.drain_boundary,
            control_type_buffer,
            self._control_type_seen,
            decoders,
            requests,
        ) = state
        self.peer_settings = dict(peer_settings)
        self._control_type_buffer = bytearray(control_type_buffer)
        self._decoders = {
            sid: H3FrameDecoder.restored(buffered) for sid, buffered in decoders
        }
        self._requests = {
            sid: _RequestState(headers_seen, trailers_seen, list(headers), bytearray(body))
            for sid, headers_seen, trailers_seen, headers, body in requests
        }

    # -- inbound events --------------------------------------------------
    def handle_data(self, stream_id: int, data: bytes, fin: bool) -> list[H3Action]:
        """Process reassembled stream bytes; returns response actions."""
        if self.state is ConnectionState.CLOSED:
            return []
        if stream_id == CLIENT_CONTROL_STREAM:
            return self._handle_control(data, fin)
        if stream_id % 4 == 0:
            return self._handle_request(stream_id, data, fin)
        return []  # other unidirectional stream types: ignored (section 6.2)

    def handle_reset(self, stream_id: int, error_code: int) -> list[H3Action]:
        """The peer abruptly terminated a stream."""
        if self.state is ConnectionState.CLOSED:
            return []
        if stream_id == CLIENT_CONTROL_STREAM:
            # Closing the control stream kills the connection (6.2.1).
            return self._connection_error(H3_CLOSED_CRITICAL_STREAM)
        self._requests.pop(stream_id, None)
        self._note_request_stream(stream_id)
        return []

    # -- control stream --------------------------------------------------
    def _handle_control(self, data: bytes, fin: bool) -> list[H3Action]:
        if fin:
            return self._connection_error(H3_CLOSED_CRITICAL_STREAM)
        if not self._control_type_seen:
            self._control_type_buffer.extend(data)
            parsed = self._try_parse_stream_type()
            if parsed is None:
                return []
            stream_type, data = parsed
            self._control_type_seen = True
            if stream_type != STREAM_TYPE_CONTROL:
                return []  # an unknown uni stream type: tolerated, ignored
        decoder = self._decoders.setdefault(CLIENT_CONTROL_STREAM, H3FrameDecoder())
        actions: list[H3Action] = []
        for frame in decoder.feed(data):
            self.stats["frames_received"] += 1
            actions.extend(self._control_frame(frame))
            if self.state is ConnectionState.CLOSED:
                break
        return actions

    def _try_parse_stream_type(self) -> tuple[int, bytes] | None:
        view = bytes(self._control_type_buffer)
        try:
            stream_type, offset = decode_varint(view, 0)
        except VarintError:
            return None
        self._control_type_buffer.clear()
        return stream_type, view[offset:]

    def _control_frame(self, frame: H3Frame) -> list[H3Action]:
        if frame.frame_type == H3FrameType.SETTINGS:
            if self.settings_received:
                return self._connection_error(H3_FRAME_UNEXPECTED)
            self.settings_received = True
            self.peer_settings = parse_settings(frame)
            return self._emit_control([])  # our SETTINGS ride the preamble
        if not self.settings_received:
            # SETTINGS MUST be the first control-stream frame (6.2.1).
            return self._connection_error(H3_MISSING_SETTINGS)
        if frame.frame_type == H3FrameType.GOAWAY:
            return self._peer_goaway(frame)
        if frame.frame_type in (H3FrameType.DATA, H3FrameType.HEADERS):
            return self._connection_error(H3_FRAME_UNEXPECTED)
        return []  # MAX_PUSH_ID, CANCEL_PUSH, unknown types: ignored

    def _peer_goaway(self, frame: H3Frame) -> list[H3Action]:
        parse_goaway(frame)  # validate; the client's boundary is advisory
        actions = self._emit_control([goaway_frame(self.max_request_stream + 4)])
        if self.config.goaway_teardown_bug:
            # The quirk: same GOAWAY on the wire, then a hard teardown --
            # no draining, no rejections, just silence ever after.
            self.state = ConnectionState.CLOSED
            self._requests.clear()
        else:
            self.state = ConnectionState.DRAINING
            self.drain_boundary = self.max_request_stream
        return actions

    # -- request streams -------------------------------------------------
    def _handle_request(self, stream_id: int, data: bytes, fin: bool) -> list[H3Action]:
        if (
            self.state is ConnectionState.DRAINING
            and stream_id not in self._requests
            and self.drain_boundary is not None
            and stream_id > self.drain_boundary
        ):
            # Draining: new requests are refused but cleanly, so the
            # client can retry them elsewhere (section 5.2).
            return [
                H3Action(
                    stream_id=stream_id,
                    reset=True,
                    error_code=H3_REQUEST_REJECTED,
                )
            ]
        self._note_request_stream(stream_id)
        request = self._requests.setdefault(stream_id, _RequestState())
        decoder = self._decoders.setdefault(stream_id, H3FrameDecoder())
        actions: list[H3Action] = []
        for frame in decoder.feed(data):
            self.stats["frames_received"] += 1
            error = self._request_frame(request, frame)
            if error is not None:
                return self._connection_error(error)
        if fin:
            actions.extend(self._complete_request(stream_id, request))
        return actions

    def _request_frame(self, request: _RequestState, frame: H3Frame) -> int | None:
        """Apply one request-stream frame; returns an error code on violation."""
        if frame.frame_type == H3FrameType.HEADERS:
            if request.trailers_seen:
                return H3_FRAME_UNEXPECTED  # nothing may follow trailers
            try:
                fields = self._qpack_decoder.decode(frame.payload)
            except QPACKError:
                return H3_FRAME_ERROR
            if request.headers_seen:
                request.trailers_seen = True
            else:
                request.headers_seen = True
                request.headers = fields
            return None
        if frame.frame_type == H3FrameType.DATA:
            if not request.headers_seen or request.trailers_seen:
                return H3_FRAME_UNEXPECTED  # DATA needs HEADERS before it
            request.body.extend(frame.payload)
            return None
        # SETTINGS, GOAWAY, MAX_PUSH_ID belong on the control stream.
        return H3_FRAME_UNEXPECTED

    def _complete_request(
        self, stream_id: int, request: _RequestState
    ) -> list[H3Action]:
        del self._requests[stream_id]
        if not request.headers_seen:
            return self._connection_error(H3_REQUEST_INCOMPLETE)
        response = headers_frame(
            self._encoder.encode(self.config.response_headers)
        ).encode() + data_frame(self.config.response_body).encode()
        self.stats["requests_answered"] += 1
        return [H3Action(stream_id=stream_id, data=response, fin=True)]

    # -- connection-level output ----------------------------------------
    def _emit_control(self, frames: list[H3Frame]) -> list[H3Action]:
        """Frames for our control stream, opening it (type + SETTINGS) first."""
        preamble = b""
        if not self.control_sent:
            self.control_sent = True
            preamble = encode_varint(STREAM_TYPE_CONTROL) + settings_frame(
                dict(self.config.settings)
            ).encode()
        payload = preamble + b"".join(frame.encode() for frame in frames)
        if not payload:
            return []
        return [H3Action(stream_id=SERVER_CONTROL_STREAM, data=payload)]

    def _connection_error(self, error_code: int) -> list[H3Action]:
        """Close the connection: GOAWAY on the control stream, then silence."""
        self.last_error = error_code
        self.state = ConnectionState.CLOSED
        self._requests.clear()
        return self._emit_control([goaway_frame(self.max_request_stream + 4)])

    def _note_request_stream(self, stream_id: int) -> None:
        if stream_id > self.max_request_stream:
            self.max_request_stream = stream_id
