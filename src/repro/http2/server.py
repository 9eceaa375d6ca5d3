"""An in-process HTTP/2 server (the HTTP/2 System Under Learning).

The server is a real byte-stream processor bound to the simulated
network: it checks the 24-octet connection preface, reassembles frames
from arbitrary chunks, enforces the connection-level handshake (the first
frame after the preface must be SETTINGS), runs every stream through the
RFC 9113 section 5.1 state machine, and answers completed requests with
an HPACK-encoded ``:status: 200`` HEADERS frame plus a DATA frame.

Behaviour quirks are configuration, mirroring the paper's Issue-style bug
hunts: :attr:`HTTP2ServerConfig.rst_on_closed_bug` makes the server treat
RST_STREAM on an already-closed stream as a connection error (GOAWAY)
instead of ignoring it as section 5.1 requires ("An endpoint MUST ignore
frames of type RST_STREAM in the closed state") -- a difference a learner
surfaces as a merged state and a property checker flags as a violation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..netsim import Datagram, Endpoint, SimulatedNetwork
from .frames import (
    CONNECTION_PREFACE,
    FLAG_ACK,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameError,
    FrameType,
    Setting,
    data_frame,
    goaway_frame,
    headers_frame,
    ping_frame,
    rst_stream_frame,
    settings_frame,
)
from .hpack import HPACKDecoder, HPACKEncoder, HPACKError
from .stream import H2Stream, StreamError, StreamState


class ConnectionState(enum.Enum):
    AWAIT_PREFACE = "await-preface"
    AWAIT_SETTINGS = "await-settings"
    READY = "ready"
    CLOSED = "closed"


@dataclass
class HTTP2ServerConfig:
    """Tunable behaviour knobs for the in-process server."""

    host: str = "h2server"
    port: int = 8443
    max_concurrent_streams: int = 16
    initial_window_size: int = 65_535
    response_headers: tuple = ((":status", "200"), ("content-type", "text/plain"))
    response_body: bytes = b"hello-http2"
    #: Quirk: treat RST_STREAM on an already-closed stream as a connection
    #: error (GOAWAY STREAM_CLOSED) instead of ignoring it per RFC 9113
    #: section 5.1 -- the seeded bug the property suite flags.
    rst_on_closed_bug: bool = False


@dataclass
class ServerStats:
    """Counters the adapter and tests inspect."""

    frames_received: int = 0
    frames_sent: int = 0
    requests_served: int = 0
    protocol_errors: int = 0
    streams_opened: int = 0
    closed_stream_ids: list = field(default_factory=list)


class HTTP2Server:
    """Single-connection HTTP/2 responder bound to a simulated network."""

    def __init__(
        self,
        network: SimulatedNetwork | None = None,
        config: HTTP2ServerConfig | None = None,
        seed: int = 7,
    ) -> None:
        self.config = config or HTTP2ServerConfig()
        self._network = network
        self._seed = seed  # interface symmetry with the TCP/QUIC servers
        # Standalone mode (network=None): a composed transport feeds bytes
        # through :meth:`process_bytes` instead of a bound endpoint.
        self.endpoint: Endpoint | None = None
        if network is not None:
            self.endpoint = network.bind(self.config.host, self.config.port)
            self.endpoint.handler = self._handle
        self._encoder = HPACKEncoder()
        self._decoder = HPACKDecoder()
        self.state = ConnectionState.AWAIT_PREFACE
        self._preface_buffer = bytearray()
        self._frames = FrameDecoder()
        self.streams: dict[int, H2Stream] = {}
        self.max_client_stream = 0
        self.stats = ServerStats()
        self.last_request_headers: list[tuple[str, str]] = []
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to a fresh connection awaiting the client preface."""
        self.state = ConnectionState.AWAIT_PREFACE
        self._preface_buffer = bytearray()
        self._frames = FrameDecoder()
        self.streams = {}
        self.max_client_stream = 0
        self.last_request_headers = []

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()

    def snapshot(self) -> tuple:
        """The connection state :meth:`reset` starts afresh, as immutable
        values (SUL snapshots).  The HPACK codecs keep no state (static
        table only) and ``stats`` counts what was processed, so both stay
        out."""
        return (
            self.state,
            bytes(self._preface_buffer),
            self._frames.snapshot(),
            tuple(stream.snapshot() for stream in self.streams.values()),
            self.max_client_stream,
            tuple(self.last_request_headers),
        )

    def restore(self, state: tuple) -> None:
        (
            self.state,
            preface_buffer,
            frames,
            streams,
            self.max_client_stream,
            last_request_headers,
        ) = state
        self._preface_buffer = bytearray(preface_buffer)
        self._frames = FrameDecoder.restored(frames)
        self.streams = {stream[0]: H2Stream.restored(stream) for stream in streams}
        self.last_request_headers = list(last_request_headers)

    # ------------------------------------------------------------------
    # Byte-stream processing
    # ------------------------------------------------------------------
    def _handle(self, datagram: Datagram) -> None:
        payload = self.process_bytes(datagram.payload)
        if payload:
            self.endpoint.send(payload, datagram.source)

    def process_bytes(self, data: bytes) -> bytes:
        """The transport-neutral entry point: request bytes -> response bytes.

        Exactly the processing :meth:`_handle` performs on a datagram,
        exposed so a composed transport can carry this server without a
        network endpoint.
        """
        responses = self._process_bytes(data)
        if not responses:
            return b""
        self.stats.frames_sent += len(responses)
        return b"".join(frame.encode() for frame in responses)

    def _process_bytes(self, data: bytes) -> list[Frame]:
        if self.state is ConnectionState.CLOSED:
            return []  # connection torn down: everything is ignored
        if self.state is ConnectionState.AWAIT_PREFACE:
            data = self._consume_preface(data)
            if data is None:
                return self._connection_error(ErrorCode.PROTOCOL_ERROR)
            if self.state is ConnectionState.AWAIT_PREFACE:
                return []  # preface still incomplete
        try:
            frames = self._frames.feed(data)
        except FrameError:
            return self._connection_error(ErrorCode.PROTOCOL_ERROR)
        responses: list[Frame] = []
        for frame in frames:
            self.stats.frames_received += 1
            responses.extend(self._react(frame))
            if self.state is ConnectionState.CLOSED:
                break
        return responses

    def _consume_preface(self, data: bytes) -> bytes | None:
        """Absorb preface octets; None on mismatch, the remainder on match."""
        self._preface_buffer.extend(data)
        have = len(self._preface_buffer)
        expected = CONNECTION_PREFACE[:have]
        if bytes(self._preface_buffer[: len(expected)]) != expected:
            return None
        if have < len(CONNECTION_PREFACE):
            return b""
        remainder = bytes(self._preface_buffer[len(CONNECTION_PREFACE) :])
        self._preface_buffer = bytearray()
        self.state = ConnectionState.AWAIT_SETTINGS
        return remainder

    # ------------------------------------------------------------------
    # Frame reactions
    # ------------------------------------------------------------------
    def _react(self, frame: Frame) -> list[Frame]:
        if self.state is ConnectionState.AWAIT_SETTINGS:
            # RFC 9113 3.4: the first frame after the preface MUST be the
            # client's SETTINGS frame.
            if frame.frame_type == FrameType.SETTINGS and not frame.has_flag(FLAG_ACK):
                self.state = ConnectionState.READY
                return [
                    settings_frame(
                        {
                            Setting.MAX_CONCURRENT_STREAMS: self.config.max_concurrent_streams,
                            Setting.INITIAL_WINDOW_SIZE: self.config.initial_window_size,
                        }
                    ),
                    settings_frame(ack=True),
                ]
            return self._connection_error(ErrorCode.PROTOCOL_ERROR)

        if frame.frame_type == FrameType.SETTINGS:
            return [] if frame.has_flag(FLAG_ACK) else [settings_frame(ack=True)]
        if frame.frame_type == FrameType.PING:
            if frame.has_flag(FLAG_ACK):
                return []
            if len(frame.payload) != 8:
                return self._connection_error(ErrorCode.FRAME_SIZE_ERROR)
            return [ping_frame(frame.payload, ack=True)]
        if frame.frame_type == FrameType.GOAWAY:
            # The client is going away: stop answering, drain silently.
            self.state = ConnectionState.CLOSED
            return []
        if frame.frame_type == FrameType.PRIORITY:
            return []  # advisory; ignored
        if frame.frame_type == FrameType.WINDOW_UPDATE and frame.stream_id == 0:
            return []  # connection-level flow control credit
        if frame.frame_type == FrameType.PUSH_PROMISE:
            # Clients cannot push (RFC 9113 8.4).
            return self._connection_error(ErrorCode.PROTOCOL_ERROR)
        if frame.frame_type == FrameType.CONTINUATION:
            # We never leave a header block open, so CONTINUATION is always
            # unexpected (RFC 9113 6.10).
            return self._connection_error(ErrorCode.PROTOCOL_ERROR)
        return self._stream_frame(frame)

    def _stream_frame(self, frame: Frame) -> list[Frame]:
        sid = frame.stream_id
        if sid == 0 or sid % 2 == 0:
            # Stream-addressed frames need a client-initiated (odd) stream.
            return self._connection_error(ErrorCode.PROTOCOL_ERROR)

        stream = self.streams.get(sid)
        if stream is None:
            if sid <= self.max_client_stream:
                return self._closed_stream_frame(frame)
            if frame.frame_type != FrameType.HEADERS:
                # DATA / RST_STREAM / WINDOW_UPDATE on an idle stream.
                return self._connection_error(ErrorCode.PROTOCOL_ERROR)
            self.max_client_stream = sid
            stream = H2Stream(sid)
            self.streams[sid] = stream
            self.stats.streams_opened += 1

        try:
            return self._drive_stream(stream, frame)
        except StreamError as error:
            if error.connection_error:
                return self._connection_error(error.error_code)
            self._forget(stream)
            return [rst_stream_frame(sid, error.error_code)]

    def _closed_stream_frame(self, frame: Frame) -> list[Frame]:
        """A frame addressed to a stream that already finished."""
        if frame.frame_type == FrameType.RST_STREAM:
            if self.config.rst_on_closed_bug:
                # The seeded bug: section 5.1 says closed-state RST_STREAM
                # MUST be ignored; this server escalates it instead.
                return self._connection_error(ErrorCode.STREAM_CLOSED)
            return []
        if frame.frame_type == FrameType.WINDOW_UPDATE:
            return []  # permitted "for a short period" after closing
        # DATA or HEADERS after END_STREAM: connection error (RFC 9113 5.1).
        return self._connection_error(ErrorCode.STREAM_CLOSED)

    def _drive_stream(self, stream: H2Stream, frame: Frame) -> list[Frame]:
        if frame.frame_type == FrameType.HEADERS:
            stream.receive_headers(frame.end_stream)
            if not stream.trailers_received:
                try:
                    self.last_request_headers = self._decoder.decode(frame.payload)
                except HPACKError:
                    # A header block we cannot decode desynchronizes the
                    # whole compression context: connection error
                    # (RFC 7541 section 2.2 / RFC 9113 section 4.3).
                    self._forget(stream)
                    return self._connection_error(ErrorCode.COMPRESSION_ERROR)
        elif frame.frame_type == FrameType.DATA:
            stream.receive_data(frame.payload, frame.end_stream)
        elif frame.frame_type == FrameType.RST_STREAM:
            stream.receive_rst()
            self._forget(stream)
            return []
        elif frame.frame_type == FrameType.WINDOW_UPDATE:
            return []
        if stream.state is StreamState.HALF_CLOSED_REMOTE:
            return self._respond(stream)
        return []

    def _respond(self, stream: H2Stream) -> list[Frame]:
        """Answer a completed request: HEADERS + DATA, closing our side."""
        block = self._encoder.encode(list(self.config.response_headers))
        response = [
            headers_frame(stream.stream_id, block, end_stream=False),
            data_frame(stream.stream_id, self.config.response_body, end_stream=True),
        ]
        stream.send_headers(end_stream=False)
        stream.send_data(end_stream=True)
        self.stats.requests_served += 1
        self._forget(stream)
        return response

    def _forget(self, stream: H2Stream) -> None:
        self.stats.closed_stream_ids.append(stream.stream_id)
        self.streams.pop(stream.stream_id, None)

    def _connection_error(self, code: ErrorCode) -> list[Frame]:
        self.stats.protocol_errors += 1
        self.state = ConnectionState.CLOSED
        return [goaway_frame(self.max_client_stream, code)]
