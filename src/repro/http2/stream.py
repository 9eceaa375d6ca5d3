"""The per-stream state machine of RFC 9113 section 5.1.

Each :class:`H2Stream` tracks one stream through
``idle -> open -> half-closed -> closed`` as frames are received from the
peer and sent by the local endpoint.  Invalid frames raise
:class:`StreamError` carrying the RFC error code and whether the RFC
classifies the violation as a *stream* error (answered with RST_STREAM)
or a *connection* error (answered with GOAWAY) -- the server turns that
classification directly into wire behaviour.

The server half of the diagram is implemented (no PUSH_PROMISE, so the
``reserved`` states are reachable only if a caller constructs them
explicitly).
"""

from __future__ import annotations

import enum

from ..core.state import BYTES, fields
from .frames import ErrorCode


class StreamState(enum.Enum):
    IDLE = "idle"
    RESERVED_LOCAL = "reserved-local"
    RESERVED_REMOTE = "reserved-remote"
    OPEN = "open"
    HALF_CLOSED_LOCAL = "half-closed-local"
    HALF_CLOSED_REMOTE = "half-closed-remote"
    CLOSED = "closed"


class StreamError(Exception):
    """A frame was illegal in the stream's current state.

    ``connection_error`` distinguishes the RFC's two severities: a stream
    error resets one stream; a connection error tears the whole
    connection down with GOAWAY.
    """

    def __init__(
        self, error_code: ErrorCode, message: str, connection_error: bool = False
    ) -> None:
        super().__init__(message)
        self.error_code = error_code
        self.connection_error = connection_error


class H2Stream:
    """One stream's lifecycle, driven by received and sent frames."""

    __state__ = fields("stream_id state trailers_received", received_data=BYTES)

    def __init__(self, stream_id: int, state: StreamState = StreamState.IDLE) -> None:
        self.stream_id = stream_id
        self.state = state
        self.received_data = bytearray()
        self.trailers_received = False

    # ------------------------------------------------------------------
    # Receiving (peer -> local)
    # ------------------------------------------------------------------
    def receive_headers(self, end_stream: bool) -> None:
        """HEADERS from the peer: opens an idle stream, or carries trailers
        (which must bear END_STREAM) on an open one."""
        if self.state is StreamState.IDLE:
            self.state = (
                StreamState.HALF_CLOSED_REMOTE if end_stream else StreamState.OPEN
            )
            return
        if self.state is StreamState.RESERVED_REMOTE:
            self.state = StreamState.HALF_CLOSED_LOCAL
            return
        if self.state is StreamState.OPEN:
            if not end_stream:
                raise StreamError(
                    ErrorCode.PROTOCOL_ERROR,
                    f"trailers without END_STREAM on stream {self.stream_id}",
                )
            self.trailers_received = True
            self.state = StreamState.HALF_CLOSED_REMOTE
            return
        if self.state is StreamState.HALF_CLOSED_LOCAL:
            if end_stream:
                self.state = StreamState.CLOSED
            return
        raise StreamError(
            ErrorCode.STREAM_CLOSED,
            f"HEADERS on {self.state.value} stream {self.stream_id}",
            connection_error=True,
        )

    def receive_data(self, payload: bytes, end_stream: bool) -> None:
        if self.state is StreamState.IDLE:
            raise StreamError(
                ErrorCode.PROTOCOL_ERROR,
                f"DATA on idle stream {self.stream_id}",
                connection_error=True,
            )
        if self.state not in (StreamState.OPEN, StreamState.HALF_CLOSED_LOCAL):
            raise StreamError(
                ErrorCode.STREAM_CLOSED,
                f"DATA on {self.state.value} stream {self.stream_id}",
                connection_error=True,
            )
        self.received_data.extend(payload)
        if end_stream:
            self.state = (
                StreamState.CLOSED
                if self.state is StreamState.HALF_CLOSED_LOCAL
                else StreamState.HALF_CLOSED_REMOTE
            )

    def receive_rst(self) -> None:
        """RST_STREAM from the peer: legal on any non-idle stream."""
        if self.state is StreamState.IDLE:
            raise StreamError(
                ErrorCode.PROTOCOL_ERROR,
                f"RST_STREAM on idle stream {self.stream_id}",
                connection_error=True,
            )
        self.state = StreamState.CLOSED

    # ------------------------------------------------------------------
    # Sending (local -> peer)
    # ------------------------------------------------------------------
    def send_headers(self, end_stream: bool) -> None:
        if self.state is StreamState.IDLE:
            self.state = (
                StreamState.HALF_CLOSED_LOCAL if end_stream else StreamState.OPEN
            )
            return
        if self.state in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE):
            if end_stream:
                self._close_local()
            return
        raise StreamError(
            ErrorCode.INTERNAL_ERROR,
            f"cannot send HEADERS on {self.state.value} stream {self.stream_id}",
        )

    def send_data(self, end_stream: bool) -> None:
        if self.state not in (StreamState.OPEN, StreamState.HALF_CLOSED_REMOTE):
            raise StreamError(
                ErrorCode.INTERNAL_ERROR,
                f"cannot send DATA on {self.state.value} stream {self.stream_id}",
            )
        if end_stream:
            self._close_local()

    def send_rst(self) -> None:
        self.state = StreamState.CLOSED

    def _close_local(self) -> None:
        self.state = (
            StreamState.CLOSED
            if self.state is StreamState.HALF_CLOSED_REMOTE
            else StreamState.HALF_CLOSED_LOCAL
        )

    @property
    def closed(self) -> bool:
        return self.state is StreamState.CLOSED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"H2Stream(id={self.stream_id}, {self.state.value})"
