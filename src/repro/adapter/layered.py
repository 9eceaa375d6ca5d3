"""The layered-adapter API: app-over-transport SUL composition.

The stream targets (HTTP/2, HTTP/3) are application protocols that ride
another protocol's byte streams, so their adapters are two
declaratively composed layers:

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
from ..core.state import DICT, LIST, RNG, SET, fields, mapping, nested
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
)
from ..quic.streams import ReceiveStream, SendStream
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

    __shared__ = "_server_handler"

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

    def close(self) -> None:  # pragma: no cover - overridden where needed
        """Release network resources."""


# ---------------------------------------------------------------------------
# Reliable ordered byte pipe (the HTTP/2 substrate)
# ---------------------------------------------------------------------------

class _ArqEnd:
    """One direction of the reliable pipe: cumulative-ack ARQ state."""

    __state__ = fields("send_offset delivered", unacked=DICT, pending=LIST, recv_segments=DICT)

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


class ReliableByteTransport(Transport):
    """A single ordered byte pipe over the lossy datagram network.

    TCP-in-miniature: one segment per datagram, cumulative acks,
    retransmission of unacked segments, and -- the property the HTTP/3
    comparison hinges on -- strictly in-order delivery: a lost segment
    blocks everything queued behind it (head-of-line blocking).  A
    datagram's payload is the value ``(ack, ((offset, data),))``, or
    ``(ack, ())`` for a pure ack.  All traffic rides stream 0; FIN and
    per-stream resets are meaningless on a plain pipe and raise
    :class:`TransportError`.
    """

    independent_streams = False
    __state__ = fields(network=nested(SimulatedNetwork), _client_arq=nested(_ArqEnd),
                       _server_arq=nested(_ArqEnd))
    __shared__ = "_server_endpoint _endpoint"

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
        for segment in self._client_arq.outgoing(retransmit=True):
            self._endpoint.send(
                (self._client_arq.delivered, (segment,)), self._server_endpoint.address
            )
        self.network.run()
        collected = bytearray()
        for _ in range(max_rounds):
            inbound = self._endpoint.receive_all()
            if not inbound:
                break
            had_data = False
            for datagram in inbound:
                ack, segments = datagram.payload
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
                (self._client_arq.delivered, ()), self._server_endpoint.address
            )
            self.network.run()
        if not collected:
            return []
        return [StreamEvent(stream_id=0, kind="data", data=bytes(collected))]

    def close(self) -> None:
        self._endpoint.close()
        self._server_endpoint.close()

    # -- server edge -----------------------------------------------------
    def _on_server_datagram(self, datagram) -> None:
        ack, segments = datagram.payload
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
        for segment in outgoing:
            self._server_endpoint.send((arq.delivered, (segment,)), datagram.source)
        if segments and not outgoing:
            self._server_endpoint.send((arq.delivered, ()), datagram.source)


# ---------------------------------------------------------------------------
# QUIC-style stream transport (the HTTP/3 substrate)
# ---------------------------------------------------------------------------

class _QuicConnState:
    """Per-connection packet and stream state for one side.

    Both edges of :class:`QuicStreamTransport` keep one and run their
    packets through it: :meth:`absorb` takes an inbound packet's frames,
    :meth:`drain` turns what became readable into events, and
    :meth:`retransmit`, :meth:`flight` and :meth:`packet` build what goes
    out.
    """

    __state__ = fields("cid next_pn", received_pns=SET, unacked=DICT,
                       recv=mapping(nested(ReceiveStream)), send=mapping(nested(SendStream)),
                       fin_reported=SET)

    def __init__(self, cid: bytes) -> None:
        self.cid = cid
        self.next_pn = 0
        self.received_pns: set[int] = set()
        self.unacked: dict[int, tuple[Frame, ...]] = {}
        self.recv: dict[int, ReceiveStream] = {}
        self.send: dict[int, SendStream] = {}
        self.fin_reported: set[int] = set()

    def recv_stream(self, stream_id: int) -> ReceiveStream:
        return self.recv.setdefault(
            stream_id, ReceiveStream(flow=ReceiveFlowController(limit=1 << 40))
        )

    def send_stream(self, stream_id: int) -> SendStream:
        return self.send.setdefault(
            stream_id, SendStream(flow=SendFlowController(limit=1 << 40))
        )

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

    def reset_frame(self, stream_id: int, error_code: int) -> ResetStreamFrame:
        return ResetStreamFrame(
            stream_id=stream_id,
            error_code=error_code,
            final_size=self.send_stream(stream_id).offset,
        )

    def absorb(
        self, pn: int, frames: Sequence[Frame]
    ) -> tuple[bool, list[ResetStreamFrame]]:
        """Take in one packet's acks, stream data, resets and hellos.

        Returns whether the packet needs acknowledging and its
        RESET_STREAM frames; what a reset means is the edge's to decide.
        """
        self.received_pns.add(pn)
        needs_ack = False
        resets: list[ResetStreamFrame] = []
        for frame in frames:
            if isinstance(frame, AckFrame):
                self.unacked = {
                    old: sent
                    for old, sent in self.unacked.items()
                    if not frame.acknowledges(old)
                }
            elif isinstance(frame, StreamFrame):
                needs_ack = True
                self.recv_stream(frame.stream_id).on_frame(
                    frame.offset, frame.data, frame.fin
                )
            elif isinstance(frame, ResetStreamFrame):
                needs_ack = True
                self.recv_stream(frame.stream_id)
                resets.append(frame)
            elif isinstance(frame, CryptoFrame):
                needs_ack = True
        return needs_ack, resets

    def drain(self) -> list[StreamEvent]:
        """Every stream's newly readable bytes, and each FIN once."""
        events: list[StreamEvent] = []
        for stream_id in sorted(self.recv):
            stream = self.recv[stream_id]
            data = stream.consume(len(stream.readable()))
            finished = stream.finished and stream_id not in self.fin_reported
            if finished:
                self.fin_reported.add(stream_id)
            if data or finished:
                events.append(
                    StreamEvent(stream_id=stream_id, kind="data", data=data, fin=finished)
                )
        return events

    def retransmit(self) -> list[list[Frame]]:
        """The frames of every unacked packet, to go out again."""
        return [list(self.unacked.pop(pn)) for pn in sorted(self.unacked)]

    def flight(self) -> list[list[Frame]]:
        """One STREAM frame per send stream with unsent bytes or FIN."""
        flight: list[list[Frame]] = []
        for stream_id in sorted(self.send):
            stream = self.send[stream_id]
            if stream.has_pending or (stream.fin_queued and not stream.fin_sent):
                offset, data, fin = stream.drain()
                flight.append(
                    [StreamFrame(stream_id=stream_id, offset=offset, data=data, fin=fin)]
                )
        return flight

    def packet(self, frames: Sequence[Frame]) -> tuple[int, bytes, tuple[Frame, ...]]:
        """The packet value ``(pn, cid, frames)`` under the next packet
        number, recording its retransmittable frames."""
        pn, frames = self.next_pn, tuple(frames)
        retransmittable = tuple(
            f
            for f in frames
            if isinstance(f, (StreamFrame, ResetStreamFrame, CryptoFrame, NewTokenFrame))
        )
        if retransmittable:
            self.unacked[pn] = retransmittable
        self.next_pn += 1
        return pn, self.cid, frames


class QuicStreamTransport(Transport):
    """Independent QUIC-style streams over the lossy datagram network.

    Each stream's data travels in its *own* packet (one datagram per
    stream per flight), so losing one stream's packet never delays
    another's -- the no-head-of-line-blocking property HTTP/3 inherits.
    A packet is the value ``(packet number, connection id, frames)``,
    its frames the RFC 9000 dataclasses of :mod:`repro.quic.frames`; the
    server routes on the connection id rather than the source address,
    which is what makes mid-session :meth:`migrate` work.  A one-round
    handshake (CRYPTO ping-pong) opens every fresh connection; the
    server's NEW_TOKEN ticket lets a resuming client skip it and send app
    data in its first flight (0-RTT).
    """

    independent_streams = True
    supports_migration = True
    supports_resumption = True
    __state__ = fields("_pending_token last_connection_rounds", network=nested(SimulatedNetwork),
                       _conn=nested(_QuicConnState), _server_conns=mapping(nested(_QuicConnState)),
                       _reset_queue=LIST, _pending_resets=LIST, _rng=RNG)
    # The ticket is only read with resumption, which never snapshots.
    __shared__ = "_server_endpoint _client_host _endpoint resumption _ticket _server_ticket stats"

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
            return
        self._handshake()

    def _handshake(self) -> None:
        packet = self._conn.packet([CryptoFrame(data=b"client-hello")])
        self._endpoint.send(packet, self._server_endpoint.address)
        self.network.run()
        for datagram in self._endpoint.receive_all():
            self._absorb_packet(*datagram.payload)
        self._send_ack()
        self.stats["handshake_rounds"] += 1
        self.last_connection_rounds += 1

    def _send_ack(self) -> None:
        ack = self._conn.ack_frame()
        if ack is not None:
            self._endpoint.send(
                self._conn.packet([ack]), self._server_endpoint.address
            )
            self.network.run()

    def send(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        self._conn.send_stream(stream_id).write(data, fin=fin)

    def reset_stream(self, stream_id: int, error_code: int = 0) -> None:
        self._reset_queue.append(self._conn.reset_frame(stream_id, error_code))

    def migrate(self) -> None:
        """Rebind the client edge to a new port, keeping the connection."""
        self._endpoint.close()
        self._endpoint = self.network.bind(self._client_host, None)
        self.stats["migrations"] += 1

    def _refuses_snapshot(self) -> bool:  # a ticket changes what a reset does
        return self.resumption or self.stats["migrations"] > 0

    def exchange(self, max_rounds: int = 8) -> list[StreamEvent]:
        conn = self._conn
        # Retransmit first: unacked frames from earlier flights go out
        # again under fresh packet numbers, one packet per old packet.
        flight = conn.retransmit() + conn.flight()
        flight += [[reset] for reset in self._reset_queue]
        self._reset_queue = []
        packets = [conn.packet(frames) for frames in flight]
        if self._pending_token is not None and packets:
            # Prepend the session ticket to the first 0-RTT flight.
            packets.insert(0, conn.packet([NewTokenFrame(token=self._pending_token)]))
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
                needs_ack |= self._absorb_packet(*datagram.payload)
            events.extend(self._drain_events(conn))
            if not needs_ack:
                break
            self._send_ack()
        return events

    def _absorb_packet(self, pn: int, cid: bytes, frames: tuple[Frame, ...]) -> bool:
        """Process one inbound packet; True when it needs acknowledging."""
        conn = self._conn
        if cid != conn.cid:
            return False  # a stale connection's leftovers
        needs_ack, resets = conn.absorb(pn, frames)
        for frame in frames:
            if isinstance(frame, NewTokenFrame):
                needs_ack = True
                self._ticket = frame.token
        # Every reset the server sends is reported, at the next drain.
        conn.fin_reported.update(reset.stream_id for reset in resets)
        self._pending_resets.extend(resets)
        return needs_ack

    def _drain_events(self, conn: _QuicConnState) -> list[StreamEvent]:
        events = [
            StreamEvent(stream_id=reset.stream_id, kind="reset", error_code=reset.error_code)
            for reset in self._pending_resets
        ]
        self._pending_resets = []
        return events + conn.drain()

    def close(self) -> None:
        self._endpoint.close()
        self._server_endpoint.close()

    # -- server edge -----------------------------------------------------
    def _on_server_datagram(self, datagram) -> None:
        pn, cid, frames = datagram.payload
        conn = self._server_conns.get(cid)
        if conn is None:
            conn = self._accept(cid, pn, frames, datagram.source)
            if conn is None or any(isinstance(f, CryptoFrame) for f in frames):
                return
        # A retransmitted client hello means our handshake response was
        # lost: it is acked, and the retransmit below re-sends the response.
        needs_ack, resets = conn.absorb(pn, frames)
        # Serve on arrival: each stream's first reset, then new bytes.
        arrived: list[StreamEvent] = []
        for reset in resets:
            if reset.stream_id not in conn.fin_reported:
                conn.fin_reported.add(reset.stream_id)
                arrived.append(
                    StreamEvent(
                        stream_id=reset.stream_id, kind="reset", error_code=reset.error_code
                    )
                )
        arrived += conn.drain()
        # The peer re-sending data we already have (or a bare ack while
        # our frames are outstanding) signals our last flight was lost.
        flight = []
        if conn.unacked and (not arrived or not needs_ack):
            flight = conn.retransmit()
        for event in arrived:
            for response in self._serve(event):
                if response.kind == "reset":
                    flight.append(
                        [conn.reset_frame(response.stream_id, response.error_code)]
                    )
                else:
                    conn.send_stream(response.stream_id).write(
                        response.data, fin=response.fin
                    )
        flight += conn.flight()
        if needs_ack:
            # Piggyback the ack on the first response packet.
            ack = conn.ack_frame()
            if flight:
                flight[0].insert(0, ack)
            else:
                flight.append([ack])
        for frames in flight:
            self._server_endpoint.send(conn.packet(frames), datagram.source)

    def _accept(
        self, cid: bytes, pn: int, frames: tuple[Frame, ...], source
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
            self._server_endpoint.send(conn.packet(response), source)
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

    def close(self) -> None:
        """Release app resources (most apps hold none)."""


class LayeredSUL(SUL):
    """A transport + app pair behind the standard SUL interface.

    Unknown attributes are forwarded to the app layer, so composed
    targets expose their protocol objects (``sul.server``,
    ``sul.client``) like the TCP and QUIC adapters do.
    """

    __state__ = fields(transport=nested(), app=nested())

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
