"""An in-process HTTP/3 client: symbol concretization + response parsing.

The client turns the workload's abstract symbols (``SETTINGS``,
``HEADERS[FIN]``, ``DATA``, ``CANCEL``, ``GOAWAY``) into concrete stream
actions, following the same single-open-request discipline as the HTTP/2
client so the product automaton stays finite:

* ``HEADERS`` targets the open request stream (trailers) if one exists,
  otherwise opens the next client-bidirectional stream (0, 4, 8, ...);
* ``DATA`` likewise -- note that a *new* DATA-first stream is an RFC 9114
  violation the server answers with H3_FRAME_UNEXPECTED, giving the
  learner a reachable error path;
* ``CANCEL`` resets the open stream, or the next idle one;
* ``SETTINGS`` / ``GOAWAY`` ride the client's control stream (2), whose
  stream-type preamble is emitted lazily with the first control frame.

The client also reassembles server responses: per-stream incremental
frame decoding, with the stream-type varint stripped off server-initiated
unidirectional streams (3, 7, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..quic.varint import VarintError, decode_varint, encode_varint
from .actions import H3Action
from .frames import (
    H3_REQUEST_CANCELLED,
    H3Frame,
    H3FrameDecoder,
    STREAM_TYPE_CONTROL,
    data_frame,
    goaway_frame,
    headers_frame,
    settings_frame,
)
from .qpack import QPACKDecoder, QPACKEncoder
from .server import CLIENT_CONTROL_STREAM


@dataclass(frozen=True)
class H3ClientConfig:
    request_headers: tuple[tuple[str, str], ...] = (
        (":method", "GET"),
        (":scheme", "https"),
        (":authority", "h3client.example"),
        (":path", "/"),
    )
    request_body: bytes = b"ping"
    settings: tuple[tuple[int, int], ...] = ((0x01, 0), (0x06, 16384))


class H3Client:
    """Concretizes abstract symbols and parses per-stream responses."""

    def __init__(self, config: H3ClientConfig | None = None, seed: int = 10) -> None:
        self.config = config or H3ClientConfig()
        self.seed = seed
        self._encoder = QPACKEncoder()
        self.decoder = QPACKDecoder()
        self.stats = {"requests_sent": 0, "frames_received": 0}
        self.reset()

    def reset(self) -> None:
        self.next_request_stream = 0
        self.open_stream: int | None = None
        self._control_open = False
        self._decoders: dict[int, H3FrameDecoder] = {}
        self._uni_type_buffers: dict[int, bytearray] = {}
        self._uni_type_seen: set[int] = set()

    def snapshot(self) -> tuple:
        """The connection state :meth:`reset` starts afresh, as immutable
        values (SUL snapshots); the QPACK codecs keep no state and
        ``stats`` counts what was processed."""
        return (
            self.next_request_stream,
            self.open_stream,
            self._control_open,
            tuple((sid, decoder.snapshot()) for sid, decoder in self._decoders.items()),
            tuple((sid, bytes(buffer)) for sid, buffer in self._uni_type_buffers.items()),
            frozenset(self._uni_type_seen),
        )

    def restore(self, state: tuple) -> None:
        (
            self.next_request_stream,
            self.open_stream,
            self._control_open,
            decoders,
            uni_type_buffers,
            uni_type_seen,
        ) = state
        self._decoders = {
            sid: H3FrameDecoder.restored(buffered) for sid, buffered in decoders
        }
        self._uni_type_buffers = {
            sid: bytearray(buffer) for sid, buffer in uni_type_buffers
        }
        self._uni_type_seen = set(uni_type_seen)

    # -- concretization --------------------------------------------------
    def build(self, kind: str, fin: bool = False) -> tuple[list[H3Action], dict]:
        """Concretize one abstract symbol into stream actions.

        Returns ``(actions, in_params)`` where ``in_params`` records the
        concrete stream id for the Oracle Table.
        """
        if kind == "SETTINGS":
            payload = self._control_preamble() + settings_frame(
                dict(self.config.settings)
            ).encode()
            return (
                [H3Action(stream_id=CLIENT_CONTROL_STREAM, data=payload)],
                {"sid": CLIENT_CONTROL_STREAM},
            )
        if kind == "GOAWAY":
            payload = self._control_preamble() + goaway_frame(
                self.next_request_stream
            ).encode()
            return (
                [H3Action(stream_id=CLIENT_CONTROL_STREAM, data=payload)],
                {"sid": CLIENT_CONTROL_STREAM},
            )
        if kind == "HEADERS":
            stream_id = self._target_stream()
            frame = headers_frame(self._encoder.encode(self.config.request_headers))
            self.open_stream = None if fin else stream_id
            if fin:
                self.stats["requests_sent"] += 1
            return (
                [H3Action(stream_id=stream_id, data=frame.encode(), fin=fin)],
                {"sid": stream_id},
            )
        if kind == "DATA":
            stream_id = self._target_stream()
            frame = data_frame(self.config.request_body)
            self.open_stream = None if fin else stream_id
            return (
                [H3Action(stream_id=stream_id, data=frame.encode(), fin=fin)],
                {"sid": stream_id},
            )
        if kind == "CANCEL":
            stream_id = self._target_stream()
            self.open_stream = None
            return (
                [
                    H3Action(
                        stream_id=stream_id,
                        reset=True,
                        error_code=H3_REQUEST_CANCELLED,
                    )
                ],
                {"sid": stream_id},
            )
        raise ValueError(f"no HTTP/3 concretization for symbol kind {kind!r}")

    def _target_stream(self) -> int:
        """The open request stream, or a freshly allocated one."""
        if self.open_stream is not None:
            return self.open_stream
        stream_id = self.next_request_stream
        self.next_request_stream += 4
        return stream_id

    def _control_preamble(self) -> bytes:
        if self._control_open:
            return b""
        self._control_open = True
        return encode_varint(STREAM_TYPE_CONTROL)

    # -- response parsing ------------------------------------------------
    def decode_stream_data(self, stream_id: int, data: bytes) -> list[H3Frame]:
        """Feed reassembled response bytes; returns completed frames.

        Server-initiated unidirectional streams (3, 7, ...) open with a
        stream-type varint, which is consumed before frame parsing.
        """
        if stream_id % 4 == 3 and stream_id not in self._uni_type_seen:
            buffer = self._uni_type_buffers.setdefault(stream_id, bytearray())
            buffer.extend(data)
            view = bytes(buffer)
            try:
                _, offset = decode_varint(view, 0)
            except VarintError:
                return []
            del self._uni_type_buffers[stream_id]
            self._uni_type_seen.add(stream_id)
            data = view[offset:]
        decoder = self._decoders.setdefault(stream_id, H3FrameDecoder())
        frames = decoder.feed(data)
        self.stats["frames_received"] += len(frames)
        return frames
