"""A reference HTTP/2 client used as the concretization oracle.

The HTTP/2 counterpart of the instrumented reference implementations in
paper section 3.2: it owns the protocol logic needed to turn an abstract
symbol like ``HEADERS[END_HEADERS,END_STREAM]`` into *valid* concrete
frames for the current connection state -- the connection preface before
the first frame, monotonically increasing odd stream identifiers, HPACK
header blocks, and sensible stream targeting for DATA/RST_STREAM (the
open stream if one exists, else the most recent stream, else the next
idle one).  It keeps that state up to date by parsing every response
byte the server sends.

The HTTP/2 adapter instruments this client; the client itself knows
nothing about learning.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim import Address, SimulatedNetwork
from .frames import (
    CONNECTION_PREFACE,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    Setting,
    data_frame,
    goaway_frame,
    headers_frame,
    ping_frame,
    rst_stream_frame,
    settings_frame,
    window_update_frame,
)
from .hpack import HPACKDecoder, HPACKEncoder


@dataclass
class HTTP2ClientConfig:
    host: str = "h2client"
    port: int = 40080
    request_headers: tuple = (
        (":method", "GET"),
        (":path", "/"),
        (":scheme", "http"),
        (":authority", "h2server"),
    )
    request_body: bytes = b"ping"
    ping_data: bytes = b"prognosi"  # exactly 8 octets
    window_increment: int = 1024


class HTTP2Client:
    """Protocol-state-tracking client for building concrete frames."""

    def __init__(
        self,
        network: SimulatedNetwork | None = None,
        server_address: Address | None = None,
        config: HTTP2ClientConfig | None = None,
        seed: int = 11,
    ) -> None:
        self.config = config or HTTP2ClientConfig()
        self._network = network
        self._seed = seed  # interface symmetry with the TCP/QUIC clients
        self.server_address = server_address
        # Standalone mode (network=None): a subclass overrides _transmit
        # to route bytes through a composed transport instead.
        self.endpoint = (
            network.bind(self.config.host, self.config.port)
            if network is not None
            else None
        )
        self._encoder = HPACKEncoder()
        self._decoder = HPACKDecoder()
        self.preface_sent = False
        self.next_stream_id = 1
        self.open_stream: int | None = None
        self.last_stream_id = 0
        self._frames = FrameDecoder()
        self.last_response_headers: list[tuple[str, str]] = []
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle (adapter property 3: full reset between queries)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh logical connection."""
        self.preface_sent = False
        self.next_stream_id = 1
        self.open_stream = None
        self.last_stream_id = 0
        self._frames = FrameDecoder()
        self.last_response_headers = []
        if self.endpoint is not None:
            self.endpoint.receive_all()  # drop any stale datagrams

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()

    def snapshot(self) -> tuple:
        """The connection state :meth:`reset` starts afresh, as immutable
        values (SUL snapshots); the HPACK codecs keep no state."""
        return (
            self.preface_sent,
            self.next_stream_id,
            self.open_stream,
            self.last_stream_id,
            self._frames.snapshot(),
            tuple(self.last_response_headers),
        )

    def restore(self, state: tuple) -> None:
        (
            self.preface_sent,
            self.next_stream_id,
            self.open_stream,
            self.last_stream_id,
            frames,
            last_response_headers,
        ) = state
        self._frames = FrameDecoder.restored(frames)
        self.last_response_headers = list(last_response_headers)

    # ------------------------------------------------------------------
    # Concretization: abstract frame kind + flags -> valid concrete frame
    # ------------------------------------------------------------------
    def _target_stream(self) -> int:
        """The stream a stream-addressed frame refers to right now.

        The open stream if the client has one, else the most recently
        used (now closed) stream, else the next -- still idle -- stream.
        Deterministic, so the learner sees a deterministic SUL.
        """
        if self.open_stream is not None:
            return self.open_stream
        if self.last_stream_id:
            return self.last_stream_id
        return self.next_stream_id

    def build_frame(self, kind: str, flags: tuple[str, ...] = ()) -> Frame:
        """Produce a concrete frame matching the abstract request."""
        end_stream = "END_STREAM" in flags
        if kind == "SETTINGS":
            if "ACK" in flags:
                return settings_frame(ack=True)
            return settings_frame({Setting.ENABLE_PUSH: 0})
        if kind == "PING":
            return ping_frame(self.config.ping_data, ack="ACK" in flags)
        if kind == "GOAWAY":
            return goaway_frame(self.last_stream_id, ErrorCode.NO_ERROR)
        if kind == "WINDOW_UPDATE":
            return window_update_frame(0, self.config.window_increment)
        if kind == "HEADERS":
            sid = (
                self.open_stream
                if self.open_stream is not None
                else self.next_stream_id
            )
            block = self._encoder.encode(list(self.config.request_headers))
            return headers_frame(sid, block, end_stream=end_stream, end_headers=True)
        if kind == "DATA":
            return data_frame(
                self._target_stream(), self.config.request_body, end_stream=end_stream
            )
        if kind == "RST_STREAM":
            return rst_stream_frame(self._target_stream(), ErrorCode.CANCEL)
        raise ValueError(f"cannot concretize frame kind {kind!r}")

    def _note_sent(self, frame: Frame) -> None:
        """Track stream allocation and half-closes for frames we emitted."""
        if frame.frame_type == FrameType.HEADERS:
            if frame.stream_id == self.next_stream_id:
                # A fresh client-initiated stream: ids grow 1, 3, 5, ...
                self.last_stream_id = frame.stream_id
                self.next_stream_id += 2
                self.open_stream = None if frame.end_stream else frame.stream_id
            elif frame.end_stream and frame.stream_id == self.open_stream:
                self.open_stream = None  # trailers closed our side
        elif frame.frame_type == FrameType.DATA:
            if frame.end_stream and frame.stream_id == self.open_stream:
                self.open_stream = None
        elif frame.frame_type == FrameType.RST_STREAM:
            if frame.stream_id == self.open_stream:
                self.open_stream = None

    def _note_received(self, frame: Frame) -> None:
        """Track the server's view from its responses."""
        if frame.frame_type == FrameType.RST_STREAM:
            if frame.stream_id == self.open_stream:
                self.open_stream = None
        elif frame.frame_type == FrameType.HEADERS:
            self.last_response_headers = self._decoder.decode(frame.payload)

    # ------------------------------------------------------------------
    # Exchange
    # ------------------------------------------------------------------
    def exchange(
        self, kind: str, flags: tuple[str, ...] = ()
    ) -> tuple[Frame, list[Frame]]:
        """Send one concrete frame and collect the server's responses.

        The connection preface is prepended to the first frame of each
        logical connection.  Runs the simulated network to quiescence, so
        every response caused by this input (and nothing else -- adapter
        property 1) is returned, already reassembled from the byte stream.
        """
        frame = self.build_frame(kind, flags)
        payload = frame.encode()
        if not self.preface_sent:
            payload = CONNECTION_PREFACE + payload
            self.preface_sent = True
        self._note_sent(frame)
        responses: list[Frame] = []
        for chunk in self._transmit(payload):
            responses.extend(self._frames.feed(chunk))
        for response in responses:
            self._note_received(response)
        return frame, responses

    def _transmit(self, payload: bytes) -> list[bytes]:
        """Put request bytes on the wire; returns the response byte chunks.

        The default routes through the client's own network endpoint and
        runs the simulated network to quiescence; transport-composed
        clients override this to ride a
        :class:`~repro.adapter.layered.Transport` instead.
        """
        if self.endpoint is None or self.server_address is None:
            raise RuntimeError(
                "standalone HTTP2Client has no endpoint; override _transmit"
            )
        self.endpoint.send(payload, self.server_address)
        self._network.run()
        return [datagram.payload for datagram in self.endpoint.receive_all()]
