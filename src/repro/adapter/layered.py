"""The layered-adapter API: app-over-transport SUL composition.

The first three workloads (TCP, QUIC, HTTP/2) each hand-rolled a
monolithic adapter wiring a client/server pair straight onto the
simulated network.  HTTP/3 -- an application protocol *defined* as
riding another protocol's streams -- makes that shape untenable, so this
module splits the adapter into two declaratively composed layers:

* a :class:`Transport` carries ``(stream, bytes, fin, reset)`` traffic
  between a client edge and a server handler -- either a single ordered
  byte pipe with ARQ (:class:`ReliableByteTransport`, the TCP-like
  substrate HTTP/2 expects) or independent QUIC-style streams
  (:class:`QuicStreamTransport`, with connection-ID routing, migration
  and 0-RTT session resumption);
* an *app layer* owns the protocol logic: the abstract alphabet, the
  concretization of input symbols onto transport streams, and the
  abstraction of transport events back into output symbols.

:func:`compose` glues a transport factory and an app factory into a
single SUL factory that registers like any other target, so
``http2``-over-reliable-pipe and ``http3``-over-QUIC-streams share one
composition code path and every learner/executor/store layer above.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Sequence

from ..core.alphabet import AbstractSymbol, Alphabet
from ..netsim import LinkConfig, PERFECT_LINK, SimulatedNetwork, SnapshotRandom
from ..quic.flowcontrol import ReceiveFlowController, SendFlowController
from ..quic.frames import (
    AckFrame,
    AckRange,
    CryptoFrame,
    Frame,
    NewTokenFrame,
    ResetStreamFrame,
    StreamFrame,
    decode_frames,
    encode_frames,
)
from ..quic.streams import ReceiveStream, SendStream
from ..quic.varint import Buffer
from ..registry import supported_kwargs
from .sul import SUL


class TransportError(RuntimeError):
    """Misuse of a transport (wrong stream, FIN on a pipe, ...)."""


@dataclass(frozen=True)
class StreamEvent:
    """One unit of transport traffic, in either direction.

    ``kind`` is ``"data"`` (``data`` plus the stream's FIN bit) or
    ``"reset"`` (abrupt termination carrying ``error_code``).  Apps both
    receive these (inbound traffic) and return them from server handlers
    (outbound responses).
    """

    stream_id: int
    kind: str = "data"
    data: bytes = b""
    fin: bool = False
    error_code: int = 0


#: A server app entry point: one inbound event -> outbound events.
ServerHandler = Callable[[StreamEvent], Sequence[StreamEvent]]


class Transport(ABC):
    """A bidirectional stream carrier between a client edge and a server.

    The client edge queues traffic with :meth:`send` / :meth:`reset_stream`
    and pumps the network with :meth:`exchange`, which returns every
    event the server's responses produced.  The server app registers a
    handler with :meth:`set_server`; the transport feeds it reassembled
    inbound events and carries its response events back.

    Feature flags describe what scenarios the transport supports; apps
    and probes consult them instead of type-checking.
    """

    #: Streams deliver independently (loss on one does not stall others).
    independent_streams: ClassVar[bool] = False
    #: The client edge can change its network address mid-connection.
    supports_migration: ClassVar[bool] = False
    #: Connections can resume with a session ticket (0-RTT).
    supports_resumption: ClassVar[bool] = False

    def __init__(self) -> None:
        self._server_handler: ServerHandler | None = None

    def set_server(self, handler: ServerHandler) -> None:
        """Attach the server app's event handler."""
        self._server_handler = handler

    def _serve(self, event: StreamEvent) -> Sequence[StreamEvent]:
        if self._server_handler is None:
            return ()
        return self._server_handler(event)

    @abstractmethod
    def reset(self) -> None:
        """Start a fresh logical connection (between membership queries)."""

    @abstractmethod
    def send(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        """Queue bytes on a stream; flushed by the next :meth:`exchange`."""

    def reset_stream(self, stream_id: int, error_code: int = 0) -> None:
        raise TransportError(f"{type(self).__name__} cannot reset streams")

    @abstractmethod
    def exchange(self, max_rounds: int = 8) -> list[StreamEvent]:
        """Flush queued traffic, run the network, return inbound events.

        One call performs up to ``max_rounds`` request/ack rounds so
        retransmissions triggered within the call still land; under a
        perfect link a single round suffices.
        """

    def migrate(self) -> None:
        raise TransportError(f"{type(self).__name__} cannot migrate")

    def snapshot(self) -> tuple | None:
        """The connection state for a SUL snapshot, or ``None`` ("replay").

        A transport that snapshots keeps its network in ``self.network``;
        :class:`LayeredSUL` snapshots the network itself.
        """
        return None

    def restore(self, state: tuple) -> None:
        """Return to a state :meth:`snapshot` returned."""
        raise NotImplementedError(f"{type(self).__name__} cannot restore snapshots")

    def close(self) -> None:  # pragma: no cover - overridden where needed
        """Release network resources."""


# ---------------------------------------------------------------------------
# Reliable ordered byte pipe (the HTTP/2 substrate)
# ---------------------------------------------------------------------------

class _ArqEnd:
    """One direction of the reliable pipe: cumulative-ack ARQ state."""

    def __init__(self) -> None:
        self.send_offset = 0
        self.unacked: dict[int, bytes] = {}
        self.pending: list[bytes] = []
        self.recv_segments: dict[int, bytes] = {}
        self.delivered = 0

    def queue(self, data: bytes) -> None:
        if data:
            self.pending.append(data)

    def outgoing(self, retransmit: bool) -> list[tuple[int, bytes]]:
        """Segments to put on the wire; new pending always, old on demand."""
        for data in self.pending:
            self.unacked[self.send_offset] = data
            self.send_offset += len(data)
        new_from = self.send_offset - sum(len(d) for d in self.pending)
        self.pending = []
        if retransmit:
            return sorted(self.unacked.items())
        return sorted(
            (off, data) for off, data in self.unacked.items() if off >= new_from
        )

    def on_ack(self, ack: int) -> None:
        self.unacked = {
            off: data for off, data in self.unacked.items() if off + len(data) > ack
        }

    def on_segment(self, offset: int, data: bytes) -> bool:
        """Store a segment; True when it was a duplicate/stale copy."""
        if offset + len(data) <= self.delivered:
            return True
        duplicate = offset in self.recv_segments or offset < self.delivered
        self.recv_segments.setdefault(offset, data)
        return duplicate

    def take_contiguous(self) -> bytes:
        out = bytearray()
        while self.delivered in self.recv_segments:
            segment = self.recv_segments.pop(self.delivered)
            out.extend(segment)
            self.delivered += len(segment)
        return bytes(out)

    def snapshot(self) -> tuple:
        return (
            self.send_offset,
            tuple(self.unacked.items()),
            tuple(self.pending),
            tuple(self.recv_segments.items()),
            self.delivered,
        )

    @classmethod
    def restored(cls, state: tuple) -> "_ArqEnd":
        end = cls()
        end.send_offset, unacked, pending, recv_segments, end.delivered = state
        end.unacked = dict(unacked)
        end.pending = list(pending)
        end.recv_segments = dict(recv_segments)
        return end


def _encode_segment(ack: int, segments: Sequence[tuple[int, bytes]]) -> bytes:
    buf = Buffer()
    buf.push_varint(ack)
    buf.push_varint(len(segments))
    for offset, data in segments:
        buf.push_varint(offset)
        buf.push_varint_bytes(data)
    return buf.getvalue()


def _decode_segment(payload: bytes) -> tuple[int, list[tuple[int, bytes]]]:
    buf = Buffer(payload)
    ack = buf.pull_varint()
    count = buf.pull_varint()
    segments = [(buf.pull_varint(), buf.pull_varint_bytes()) for _ in range(count)]
    return ack, segments


class ReliableByteTransport(Transport):
    """A single ordered byte pipe over the lossy datagram network.

    TCP-in-miniature: one segment per datagram, cumulative acks,
    retransmission of unacked segments, and -- the property the HTTP/3
    comparison hinges on -- strictly in-order delivery: a lost segment
    blocks everything queued behind it (head-of-line blocking).  All
    traffic rides stream 0; FIN and per-stream resets are meaningless on
    a plain pipe and raise :class:`TransportError`.
    """

    independent_streams = False

    def __init__(
        self,
        seed: int = 9,
        link: LinkConfig = PERFECT_LINK,
        network: SimulatedNetwork | None = None,
        client_host: str = "pipe-client",
        server_host: str = "pipe-server",
        port: int = 4433,
    ) -> None:
        super().__init__()
        self.network = network or SimulatedNetwork(seed=seed, config=link)
        self._server_endpoint = self.network.bind(server_host, port)
        self._server_endpoint.handler = self._on_server_datagram
        self._endpoint = self.network.bind(client_host, None)
        self._client_arq = _ArqEnd()
        self._server_arq = _ArqEnd()

    # -- client edge -----------------------------------------------------
    def reset(self) -> None:
        self._client_arq = _ArqEnd()
        self._server_arq = _ArqEnd()
        self._endpoint.receive_all()

    def send(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        if stream_id != 0:
            raise TransportError("reliable pipe carries exactly one stream (0)")
        if fin:
            raise TransportError("reliable pipe has no FIN")
        self._client_arq.queue(data)

    def exchange(self, max_rounds: int = 8) -> list[StreamEvent]:
        for offset, data in self._client_arq.outgoing(retransmit=True):
            self._endpoint.send(
                _encode_segment(self._client_arq.delivered, [(offset, data)]),
                self._server_endpoint.address,
            )
        self.network.run()
        collected = bytearray()
        for _ in range(max_rounds):
            inbound = self._endpoint.receive_all()
            if not inbound:
                break
            had_data = False
            for datagram in inbound:
                ack, segments = _decode_segment(datagram.payload)
                self._client_arq.on_ack(ack)
                for offset, data in segments:
                    had_data = True
                    self._client_arq.on_segment(offset, data)
            collected.extend(self._client_arq.take_contiguous())
            if not had_data:
                break
            # Ack what arrived so the server can drop retransmit state
            # (and retransmit anything we still miss).
            self._endpoint.send(
                _encode_segment(self._client_arq.delivered, []),
                self._server_endpoint.address,
            )
            self.network.run()
        if not collected:
            return []
        return [StreamEvent(stream_id=0, kind="data", data=bytes(collected))]

    def snapshot(self) -> tuple | None:
        """Both ARQ ends; None on a lossy or delayed link."""
        if self.network.config != PERFECT_LINK:
            return None
        return self._client_arq.snapshot(), self._server_arq.snapshot()

    def restore(self, state: tuple) -> None:
        client, server = state
        self._client_arq = _ArqEnd.restored(client)
        self._server_arq = _ArqEnd.restored(server)

    def close(self) -> None:
        self._endpoint.close()
        self._server_endpoint.close()

    # -- server edge -----------------------------------------------------
    def _on_server_datagram(self, datagram) -> None:
        ack, segments = _decode_segment(datagram.payload)
        arq = self._server_arq
        arq.on_ack(ack)
        duplicate = False
        for offset, data in segments:
            duplicate |= arq.on_segment(offset, data)
        new_bytes = arq.take_contiguous()
        if new_bytes:
            for event in self._serve(StreamEvent(0, "data", new_bytes)):
                if event.kind != "data":
                    raise TransportError("reliable pipe cannot carry resets")
                arq.queue(event.data)
        # Retransmit when the peer is clearly missing something: it
        # re-sent old data, or its pure ack left segments outstanding.
        retransmit = bool(arq.unacked) and (duplicate or not segments)
        outgoing = arq.outgoing(retransmit=retransmit)
        if outgoing:
            for offset, data in outgoing:
                self._server_endpoint.send(
                    _encode_segment(arq.delivered, [(offset, data)]),
                    datagram.source,
                )
        elif segments:
            self._server_endpoint.send(
                _encode_segment(arq.delivered, []), datagram.source
            )


# ---------------------------------------------------------------------------
# QUIC-style stream transport (the HTTP/3 substrate)
# ---------------------------------------------------------------------------

def _recv_stream() -> ReceiveStream:
    return ReceiveStream(flow=ReceiveFlowController(limit=1 << 40))


def _send_stream() -> SendStream:
    return SendStream(flow=SendFlowController(limit=1 << 40))


class _QuicConnState:
    """Per-connection packet and stream state for one side."""

    def __init__(self, cid: bytes) -> None:
        self.cid = cid
        self.next_pn = 0
        self.received_pns: set[int] = set()
        self.unacked: dict[int, tuple[Frame, ...]] = {}
        self.recv: dict[int, ReceiveStream] = {}
        self.send: dict[int, SendStream] = {}
        self.fin_reported: set[int] = set()
        self.handshaken = False

    def recv_stream(self, stream_id: int) -> ReceiveStream:
        return self.recv.setdefault(stream_id, _recv_stream())

    def send_stream(self, stream_id: int) -> SendStream:
        return self.send.setdefault(stream_id, _send_stream())

    def ack_frame(self) -> AckFrame | None:
        if not self.received_pns:
            return None
        ranges: list[AckRange] = []
        for pn in sorted(self.received_pns):
            if ranges and pn == ranges[-1].largest + 1:
                ranges[-1] = AckRange(ranges[-1].smallest, pn)
            else:
                ranges.append(AckRange(pn, pn))
        largest = ranges[-1].largest
        return AckFrame(largest_acknowledged=largest, ranges=tuple(ranges))

    def on_ack(self, ack: AckFrame) -> None:
        self.unacked = {
            pn: frames
            for pn, frames in self.unacked.items()
            if not ack.acknowledges(pn)
        }

    def snapshot(self) -> tuple:
        return (
            self.cid,
            self.next_pn,
            frozenset(self.received_pns),
            tuple(self.unacked.items()),
            tuple((sid, stream.snapshot()) for sid, stream in self.recv.items()),
            tuple((sid, stream.snapshot()) for sid, stream in self.send.items()),
            frozenset(self.fin_reported),
            self.handshaken,
        )

    @classmethod
    def restored(cls, state: tuple) -> "_QuicConnState":
        cid, next_pn, received_pns, unacked, recv, send, fin_reported, handshaken = state
        conn = cls(cid)
        conn.next_pn = next_pn
        conn.received_pns = set(received_pns)
        conn.unacked = dict(unacked)
        conn.recv = {sid: ReceiveStream.restored(stream) for sid, stream in recv}
        conn.send = {sid: SendStream.restored(stream) for sid, stream in send}
        conn.fin_reported = set(fin_reported)
        conn.handshaken = handshaken
        return conn


def _encode_packet(conn: _QuicConnState, frames: Sequence[Frame]) -> bytes:
    """Build one plaintext packet, recording retransmittable frames."""
    buf = Buffer()
    buf.push_varint(conn.next_pn)
    buf.push_varint_bytes(conn.cid)
    buf.push_bytes(encode_frames(frames))
    retransmittable = tuple(
        f
        for f in frames
        if isinstance(f, (StreamFrame, ResetStreamFrame, CryptoFrame, NewTokenFrame))
    )
    if retransmittable:
        conn.unacked[conn.next_pn] = retransmittable
    conn.next_pn += 1
    return buf.getvalue()


def _decode_packet(payload: bytes) -> tuple[int, bytes, list[Frame]]:
    buf = Buffer(payload)
    pn = buf.pull_varint()
    cid = buf.pull_varint_bytes()
    frames = decode_frames(buf.pull_bytes(buf.remaining))
    return pn, cid, frames


class QuicStreamTransport(Transport):
    """Independent QUIC-style streams over the lossy datagram network.

    Each stream's data travels in its *own* packet (one datagram per
    stream per flight), so losing one stream's packet never delays
    another's -- the no-head-of-line-blocking property HTTP/3 inherits.
    Packets are plaintext ``packet number + connection id + RFC 9000
    frames`` and the server routes on the connection id rather than the
    source address, which is what makes mid-session :meth:`migrate`
    work.  A one-round handshake (CRYPTO ping-pong) opens every fresh
    connection; the server's NEW_TOKEN ticket lets a resuming client
    skip it and send app data in its first flight (0-RTT).
    """

    independent_streams = True
    supports_migration = True
    supports_resumption = True

    def __init__(
        self,
        seed: int = 8,
        link: LinkConfig = PERFECT_LINK,
        network: SimulatedNetwork | None = None,
        client_host: str = "quic-client",
        server_host: str = "quic-server",
        port: int = 443,
        resumption: bool = False,
    ) -> None:
        super().__init__()
        self.network = network or SimulatedNetwork(seed=seed, config=link)
        self._rng = SnapshotRandom(seed ^ 0x5153)  # cid source, not the link rng
        self._server_endpoint = self.network.bind(server_host, port)
        self._server_endpoint.handler = self._on_server_datagram
        self._client_host = client_host
        self._endpoint = self.network.bind(client_host, None)
        self.resumption = resumption
        self._ticket: bytes | None = None
        self._server_ticket = bytes(self._rng.randrange(256) for _ in range(8))
        self._server_conns: dict[bytes, _QuicConnState] = {}
        self._conn = _QuicConnState(self._new_cid())
        self._pending_token: bytes | None = None
        self._reset_queue: list[ResetStreamFrame] = []
        self._pending_resets: list[ResetStreamFrame] = []
        self.stats = {"handshake_rounds": 0, "connections": 0, "migrations": 0}
        self.last_connection_rounds = 0

    def _new_cid(self) -> bytes:
        return bytes(self._rng.randrange(256) for _ in range(8))

    # -- client edge -----------------------------------------------------
    def reset(self) -> None:
        self._conn = _QuicConnState(self._new_cid())
        self._server_conns.clear()
        self._reset_queue = []
        self._pending_token = None
        self._endpoint.receive_all()
        self.stats["connections"] += 1
        self.last_connection_rounds = 0
        if self.resumption and self._ticket is not None:
            # 0-RTT: skip the handshake round; the ticket rides the
            # first flight alongside early application data.
            self._pending_token = self._ticket
            self._conn.handshaken = True
            return
        self._handshake()

    def _handshake(self) -> None:
        packet = _encode_packet(self._conn, [CryptoFrame(data=b"client-hello")])
        self._endpoint.send(packet, self._server_endpoint.address)
        self.network.run()
        for datagram in self._endpoint.receive_all():
            self._absorb_packet(datagram.payload)
        ack = self._conn.ack_frame()
        if ack is not None:
            self._endpoint.send(
                _encode_packet(self._conn, [ack]), self._server_endpoint.address
            )
            self.network.run()
        self.stats["handshake_rounds"] += 1
        self.last_connection_rounds += 1

    def send(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        self._conn.send_stream(stream_id).write(data, fin=fin)

    def reset_stream(self, stream_id: int, error_code: int = 0) -> None:
        stream = self._conn.send_stream(stream_id)
        self._reset_queue.append(
            ResetStreamFrame(
                stream_id=stream_id, error_code=error_code, final_size=stream.offset
            )
        )

    def migrate(self) -> None:
        """Rebind the client edge to a new port, keeping the connection."""
        self._endpoint.close()
        self._endpoint = self.network.bind(self._client_host, None)
        self.stats["migrations"] += 1

    def snapshot(self) -> tuple | None:
        """Both connections, the pending queues and the CID RNG state.

        None on a lossy or delayed link, with resumption (the ticket a
        connection earns changes what the next reset does) and once the
        client edge has migrated.
        """
        if (
            self.resumption
            or self.stats["migrations"]
            or self.network.config != PERFECT_LINK
        ):
            return None
        return (
            self._conn.snapshot(),
            tuple((cid, conn.snapshot()) for cid, conn in self._server_conns.items()),
            self._pending_token,
            tuple(self._reset_queue),
            tuple(self._pending_resets),
            self.last_connection_rounds,
            self._rng.getstate(),
        )

    def restore(self, state: tuple) -> None:
        (
            conn,
            server_conns,
            self._pending_token,
            reset_queue,
            pending_resets,
            self.last_connection_rounds,
            rng_state,
        ) = state
        self._conn = _QuicConnState.restored(conn)
        self._server_conns = {
            cid: _QuicConnState.restored(server) for cid, server in server_conns
        }
        self._reset_queue = list(reset_queue)
        self._pending_resets = list(pending_resets)
        self._rng.setstate(rng_state)

    def exchange(self, max_rounds: int = 8) -> list[StreamEvent]:
        conn = self._conn
        packets: list[bytes] = []
        # Retransmit first: unacked frames from earlier flights go out
        # again under fresh packet numbers, one packet per old packet.
        for pn in sorted(conn.unacked):
            packets.append(_encode_packet(conn, list(conn.unacked.pop(pn))))
        for stream_id in sorted(conn.send):
            stream = conn.send[stream_id]
            if not stream.has_pending and not (
                stream.fin_queued and not stream.fin_sent
            ):
                continue
            offset, data, fin = stream.drain()
            frames: list[Frame] = [
                StreamFrame(stream_id=stream_id, offset=offset, data=data, fin=fin)
            ]
            packets.append(_encode_packet(conn, frames))
        for reset in self._reset_queue:
            packets.append(_encode_packet(conn, [reset]))
        self._reset_queue = []
        if self._pending_token is not None and packets:
            # Prepend the session ticket to the first 0-RTT flight.
            token_packet = _encode_packet(
                conn, [NewTokenFrame(token=self._pending_token)]
            )
            packets.insert(0, token_packet)
            self._pending_token = None
        for packet in packets:
            self._endpoint.send(packet, self._server_endpoint.address)
        if packets:
            self.last_connection_rounds += 1
        self.network.run()
        events: list[StreamEvent] = []
        for _ in range(max_rounds):
            inbound = self._endpoint.receive_all()
            if not inbound:
                break
            needs_ack = False
            for datagram in inbound:
                needs_ack |= self._absorb_packet(datagram.payload)
            events.extend(self._drain_events(conn))
            if not needs_ack:
                break
            ack = conn.ack_frame()
            if ack is not None:
                self._endpoint.send(
                    _encode_packet(conn, [ack]), self._server_endpoint.address
                )
                self.network.run()
        return events

    def _absorb_packet(self, payload: bytes) -> bool:
        """Process one inbound packet; True when it needs acknowledging."""
        conn = self._conn
        pn, cid, frames = _decode_packet(payload)
        if cid != conn.cid:
            return False  # a stale connection's leftovers
        conn.received_pns.add(pn)
        retransmittable = False
        for frame in frames:
            if isinstance(frame, AckFrame):
                conn.on_ack(frame)
            elif isinstance(frame, StreamFrame):
                retransmittable = True
                conn.recv_stream(frame.stream_id).on_frame(
                    frame.offset, frame.data, frame.fin
                )
            elif isinstance(frame, ResetStreamFrame):
                retransmittable = True
                conn.recv.setdefault(frame.stream_id, _recv_stream())
                conn.fin_reported.add(frame.stream_id)
                self._pending_resets.append(frame)
            elif isinstance(frame, CryptoFrame):
                retransmittable = True
                conn.handshaken = True
            elif isinstance(frame, NewTokenFrame):
                retransmittable = True
                self._ticket = frame.token
        return retransmittable

    def _drain_events(self, conn: _QuicConnState) -> list[StreamEvent]:
        events: list[StreamEvent] = []
        for reset in self._pending_resets:
            events.append(
                StreamEvent(
                    stream_id=reset.stream_id,
                    kind="reset",
                    error_code=reset.error_code,
                )
            )
        self._pending_resets = []
        for stream_id in sorted(conn.recv):
            stream = conn.recv[stream_id]
            data = stream.consume(len(stream.readable()))
            finished = stream.finished and stream_id not in conn.fin_reported
            if finished:
                conn.fin_reported.add(stream_id)
            if data or finished:
                events.append(
                    StreamEvent(
                        stream_id=stream_id, kind="data", data=data, fin=finished
                    )
                )
        return events

    def close(self) -> None:
        self._endpoint.close()
        self._server_endpoint.close()

    # -- server edge -----------------------------------------------------
    def _on_server_datagram(self, datagram) -> None:
        pn, cid, frames = _decode_packet(datagram.payload)
        conn = self._server_conns.get(cid)
        if conn is None:
            conn = self._accept(cid, pn, frames, datagram.source)
            if conn is None or any(isinstance(f, CryptoFrame) for f in frames):
                return
        conn.received_pns.add(pn)
        progressed = False
        retransmittable = False
        response_events: list[StreamEvent] = []
        for frame in frames:
            if isinstance(frame, AckFrame):
                conn.on_ack(frame)
            elif isinstance(frame, StreamFrame):
                retransmittable = True
                conn.recv_stream(frame.stream_id).on_frame(
                    frame.offset, frame.data, frame.fin
                )
            elif isinstance(frame, ResetStreamFrame):
                retransmittable = True
                conn.recv.setdefault(frame.stream_id, _recv_stream())
                if frame.stream_id not in conn.fin_reported:
                    conn.fin_reported.add(frame.stream_id)
                    progressed = True
                    response_events.extend(
                        self._serve(
                            StreamEvent(
                                stream_id=frame.stream_id,
                                kind="reset",
                                error_code=frame.error_code,
                            )
                        )
                    )
            elif isinstance(frame, CryptoFrame):
                # A retransmitted client hello: our handshake response
                # was lost; the generic retransmit path below re-sends it.
                retransmittable = True
        for stream_id in sorted(conn.recv):
            stream = conn.recv[stream_id]
            data = stream.consume(len(stream.readable()))
            finished = stream.finished and stream_id not in conn.fin_reported
            if finished:
                conn.fin_reported.add(stream_id)
            if data or finished:
                progressed = True
                response_events.extend(
                    self._serve(
                        StreamEvent(
                            stream_id=stream_id, kind="data", data=data, fin=finished
                        )
                    )
                )
        packets: list[bytes] = []
        # The peer re-sending data we already have (or a bare ack while
        # our frames are outstanding) signals our last flight was lost.
        if conn.unacked and (not progressed or not retransmittable):
            for old_pn in sorted(conn.unacked):
                packets.append(_encode_packet(conn, list(conn.unacked.pop(old_pn))))
        for event in response_events:
            if event.kind == "reset":
                packets.append(
                    _encode_packet(
                        conn,
                        [
                            ResetStreamFrame(
                                stream_id=event.stream_id,
                                error_code=event.error_code,
                                final_size=conn.send_stream(event.stream_id).offset,
                            )
                        ],
                    )
                )
            else:
                conn.send_stream(event.stream_id).write(event.data, fin=event.fin)
        for stream_id in sorted(conn.send):
            stream = conn.send[stream_id]
            if not stream.has_pending and not (
                stream.fin_queued and not stream.fin_sent
            ):
                continue
            offset, data, fin = stream.drain()
            packets.append(
                _encode_packet(
                    conn,
                    [
                        StreamFrame(
                            stream_id=stream_id, offset=offset, data=data, fin=fin
                        )
                    ],
                )
            )
        ack = conn.ack_frame() if retransmittable else None
        if packets:
            if ack is not None:
                # Piggyback the ack on the first response packet.
                packets[0] = self._repack_with_ack(conn, packets[0], ack)
        elif ack is not None:
            packets.append(_encode_packet(conn, [ack]))
        for packet in packets:
            self._server_endpoint.send(packet, datagram.source)

    def _repack_with_ack(
        self, conn: _QuicConnState, packet: bytes, ack: AckFrame
    ) -> bytes:
        buf = Buffer(packet)
        pn = buf.pull_varint()
        cid = buf.pull_varint_bytes()
        out = Buffer()
        out.push_varint(pn)
        out.push_varint_bytes(cid)
        out.push_bytes(encode_frames([ack]))
        out.push_bytes(buf.pull_bytes(buf.remaining))
        return out.getvalue()

    def _accept(
        self, cid: bytes, pn: int, frames: list[Frame], source
    ) -> _QuicConnState | None:
        """Admit a new connection: full handshake or a valid 0-RTT ticket."""
        has_hello = any(isinstance(f, CryptoFrame) for f in frames)
        has_ticket = any(
            isinstance(f, NewTokenFrame) and f.token == self._server_ticket
            for f in frames
        )
        if not has_hello and not has_ticket:
            return None  # unauthenticated stray packet: dropped
        self._server_conns.clear()  # one live connection per transport
        conn = _QuicConnState(cid)
        conn.handshaken = True
        self._server_conns[cid] = conn
        if has_hello:
            conn.received_pns.add(pn)
            response = [
                CryptoFrame(data=b"server-hello"),
                NewTokenFrame(token=self._server_ticket),
            ]
            ack = conn.ack_frame()
            if ack is not None:
                response.insert(0, ack)
            self._server_endpoint.send(_encode_packet(conn, response), source)
        return conn


# ---------------------------------------------------------------------------
# App layer and composition
# ---------------------------------------------------------------------------

class AppLayer(ABC):
    """The protocol logic riding a transport.

    An app owns the abstract ``alphabet``, concretizes each input symbol
    onto transport streams, registers the server side with
    ``transport.set_server`` at construction, and abstracts transport
    events back into an output symbol in :meth:`step`.
    """

    alphabet: Alphabet
    name: str = "app"

    @abstractmethod
    def reset(self) -> None:
        """Return client and server protocol state to a fresh connection."""

    @abstractmethod
    def step(
        self, symbol: AbstractSymbol
    ) -> tuple[AbstractSymbol, Mapping[str, int], Mapping[str, int]]:
        """Send one abstract symbol through the stack; see ``SUL._step_impl``."""

    def snapshot(self) -> tuple | None:
        """Client and server protocol state for a SUL snapshot, or ``None``
        ("replay")."""
        return None

    def restore(self, state: tuple) -> None:
        """Return to a state :meth:`snapshot` returned."""
        raise NotImplementedError(f"{type(self).__name__} cannot restore snapshots")

    def close(self) -> None:
        """Release app resources (most apps hold none)."""


class LayeredSUL(SUL):
    """A transport + app pair behind the standard SUL interface.

    Unknown attributes are forwarded to the app layer, so composed
    targets keep exposing their protocol objects (``sul.server``,
    ``sul.client``) exactly like the monolithic adapters did.
    """

    def __init__(
        self, transport: Transport, app: AppLayer, name: str | None = None
    ) -> None:
        super().__init__(app.alphabet, name=name or app.name)
        self.transport = transport
        self.app = app

    def _reset_impl(self) -> None:
        self.transport.reset()
        self.app.reset()

    def _step_impl(self, symbol):
        return self.app.step(symbol)

    def snapshot(self) -> tuple | None:
        """The network, transport and app states; None when any is None."""
        transport = self.transport.snapshot()
        if transport is None:
            return None
        app = self.app.snapshot()
        if app is None:
            return None
        network = self.transport.network.snapshot()
        if network is None:
            return None
        return network, transport, app

    def restore(self, state: tuple) -> None:
        network, transport, app = state
        self.transport.network.restore(network)
        self.transport.restore(transport)
        self.app.restore(app)

    def close(self) -> None:
        self.app.close()
        self.transport.close()

    def __getattr__(self, attribute: str):
        # Only called when normal lookup fails; delegate to the app.
        app = self.__dict__.get("app")
        if app is None or attribute.startswith("_"):
            raise AttributeError(attribute)
        return getattr(app, attribute)


def compose(
    transport_factory: Callable[..., Transport],
    app_factory: Callable[..., AppLayer],
    name: str | None = None,
) -> Callable[..., LayeredSUL]:
    """Declare an app-over-transport SUL as a registrable factory.

    The returned factory splits its keyword params between the two
    layer factories by signature (:func:`~repro.registry
    .supported_kwargs`), builds the transport, hands it to the app
    factory as the first positional argument, and wires both into a
    :class:`LayeredSUL`::

        SUL_REGISTRY.register(
            "http3",
            compose(QuicStreamTransport, build_h3_app, name="http3"),
        )

    A parameter neither layer accepts raises :class:`TypeError` so spec
    typos fail loudly instead of being dropped.
    """

    def factory(**params) -> LayeredSUL:
        transport_params = supported_kwargs(transport_factory, params)
        app_params = supported_kwargs(app_factory, params)
        unclaimed = set(params) - set(transport_params) - set(app_params)
        if unclaimed:
            raise TypeError(
                f"composed target {name or 'layered'!r} got params no layer "
                f"accepts: {sorted(unclaimed)}"
            )
        transport = transport_factory(**transport_params)
        app = app_factory(transport, **app_params)
        return LayeredSUL(transport, app, name=name)

    factory.__name__ = f"composed_{name or 'layered'}_sul"
    return factory
