"""Server-side QUIC connection processing.

:class:`QUICServerConnection` is a real packet processor: it decrypts
incoming packets with the proper level keys, parses frames, maintains
packet-number spaces, streams and flow control, and realizes the response
:class:`~repro.quic.behavior.PacketSpec` lists produced by its
:class:`~repro.quic.behavior.BehaviorCore` into freshly numbered, encrypted
packets.  :class:`QUICServer` owns the UDP endpoint, performs address
validation (RETRY) when enabled, and hosts one connection at a time (the
SUL is reset between learner queries).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.state import LIST, RNG, VALUE, fields, fixed, nested
from ..netsim import Datagram, SimulatedNetwork, SnapshotRandom
from . import crypto
from .behavior import BehaviorCore, BehaviorTable, OutputSpec, input_key, spec

#: The response flush emitted when the client FINs its request stream.
spec_final_flush = spec("SHORT", "STREAM")
from .crypto import CryptoError, KeyPair
from .frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    ERROR_PROTOCOL_VIOLATION,
    Frame,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    StreamDataBlockedFrame,
    StreamFrame,
    FrameError,
    frame_kinds,
)
from .packet import PacketHeader, PacketType, header_bytes_for_aead
from .packetspace import PacketNumberSpace, Space
from .streams import ReceiveStream, SendStream
from .transport_params import TransportParameters
from .wire import WireMemo

CID_LENGTH = 8
CLIENT_HELLO_MAGIC = b"CH01"
SERVER_HELLO_MAGIC = b"SH01"
ENCRYPTED_EXTENSIONS = b"EE01" + b"\x00" * 60
SERVER_FINISHED = b"SF01" + b"\x00" * 28
CLIENT_FINISHED_MAGIC = b"CF01"
SESSION_TICKET = b"NST1" + b"\x00" * 40
RESPONSE_CHUNK = 150
PUSH_GREETING = b"server-greeting/0.5rtt:" + b"g" * 40


@dataclass
class ServerProfile:
    """Implementation-specific behaviour switches."""

    name: str
    table_factory: "callable"
    #: Issue 4: report maximum_stream_data = 0 in STREAM_DATA_BLOCKED.
    sdb_reports_zero: bool = False
    #: Enable RETRY-based address validation.
    retry_enabled: bool = False
    #: Issue 2: probability of answering post-close packets with a
    #: stateless reset (only consulted for flaky table states).
    stateless_reset_probability: float = 1.0
    #: Size of the response the server generates per completed request.
    response_size: int = 3 * RESPONSE_CHUNK


def _space_for(packet_type: PacketType) -> Space:
    if packet_type is PacketType.INITIAL:
        return Space.INITIAL
    if packet_type is PacketType.HANDSHAKE:
        return Space.HANDSHAKE
    return Space.APPLICATION


class QUICServerConnection:
    """One server connection: crypto, spaces, streams and the behaviour core.

    ``profile``, ``rng`` and the wire memo ``wire`` belong to the server
    and are shared by every connection it hosts, restored ones included.
    """

    __state__ = fields("scid client_cid original_dcid initial_keys handshake_keys"
                       " application_keys client_random server_random client_params _request_bytes"
                       " _hello_processed", core=nested(BehaviorCore),
                       spaces=fixed(nested(PacketNumberSpace), keys=Space),
                       _crypto_queues=fixed(LIST, keys=Space),
                       _crypto_offsets=fixed(VALUE, keys=Space), recv_stream=nested(ReceiveStream),
                       send_stream=nested(SendStream))
    __shared__ = "profile rng wire"

    def __init__(
        self,
        profile: ServerProfile,
        table: BehaviorTable,
        original_dcid: bytes,
        client_scid: bytes,
        rng: random.Random,
        wire: WireMemo,
    ) -> None:
        self.profile = profile
        self.core = BehaviorCore(table)
        self.rng = rng
        self.wire = wire
        self.scid = bytes(rng.randrange(256) for _ in range(CID_LENGTH))
        self.client_cid = client_scid
        self.original_dcid = original_dcid
        self.initial_keys: KeyPair = crypto.initial_keys(original_dcid)
        self.handshake_keys: KeyPair | None = None
        self.application_keys: KeyPair | None = None
        self.client_random: bytes | None = None
        self.server_random: bytes | None = None
        self.client_params = TransportParameters()
        self.spaces = {space: PacketNumberSpace() for space in Space}
        self._crypto_queues: dict[Space, list[bytes]] = {space: [] for space in Space}
        self._crypto_offsets: dict[Space, int] = {space: 0 for space in Space}
        self.recv_stream = ReceiveStream()
        self.send_stream = SendStream()
        self.recv_stream.flow.limit = 10_000
        self._request_bytes = 0
        self._hello_processed = False

    @classmethod
    def shell(cls, server: "QUICServer") -> "QUICServerConnection":
        """A connection holding ``server``'s shared fields, for a restore to fill."""
        connection = cls.__new__(cls)
        connection.profile, connection.rng, connection.wire, connection.core = (
            server.profile, server.rng, server.wire, BehaviorCore(server.table))
        return connection

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def _keys_for(self, space: Space) -> KeyPair | None:
        if space is Space.INITIAL:
            return self.initial_keys
        if space is Space.HANDSHAKE:
            return self.handshake_keys
        return self.application_keys

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def handle_packet(self, header: PacketHeader) -> list[PacketHeader]:
        """Process one decrypted-able packet; returns response packets."""
        space = _space_for(header.packet_type)
        keys = self._keys_for(space)
        if keys is None:
            return []  # no keys for this level yet: undecryptable, dropped
        try:
            plaintext = self.wire.open(
                keys.client,
                header.packet_number,
                header_bytes_for_aead(header),
                header.payload,
            )
        except CryptoError:
            return []
        pn_space = self.spaces[space]
        if not pn_space.on_received(header.packet_number):
            return []  # duplicate packet number: already processed
        try:
            frames = self.wire.decode_frames(plaintext)
        except FrameError:
            return []
        kinds = tuple(k for k in frame_kinds(frames) if k != "PADDING")
        self._process_frame_contents(space, frames)
        if self.core.is_flaky:
            # Issue 2 (mvfst): the closed connection answers with a
            # stateless reset only ~82% of the time, with no back-off.
            if self.rng.random() < self.profile.stateless_reset_probability:
                return [self._stateless_reset()]
            return []
        output = self.core.react(input_key(header.packet_type.value, kinds))
        responses = self._realize(output)
        if any(isinstance(f, StreamFrame) and f.fin for f in frames):
            # The client finished its request stream: flush the final
            # response.  This is concrete-content-dependent behaviour the
            # abstract frame-kind view cannot see -- which is exactly what
            # makes an ambiguous abstraction observable (section 5,
            # nondeterminism reason 1).
            responses.extend(self._realize((spec_final_flush,)))
        return responses

    def abort_for_pn_reset(self) -> list[PacketHeader]:
        """Issue 1: strict implementations close when the client resets its
        packet-number spaces after a RETRY."""
        if not self.core.abort_for_pn_reset():
            return []
        close = ConnectionCloseFrame(
            error_code=ERROR_PROTOCOL_VIOLATION, reason=b"pn reset after retry"
        )
        packet = self._build_packet(Space.INITIAL, [close])
        return [packet] if packet is not None else []

    # ------------------------------------------------------------------
    # Frame-content side effects (real protocol state)
    # ------------------------------------------------------------------
    def _process_frame_contents(self, space: Space, frames: tuple[Frame, ...]) -> None:
        for frame in frames:
            if isinstance(frame, CryptoFrame):
                self._on_crypto(space, frame)
            elif isinstance(frame, AckFrame):
                self.spaces[space].on_ack(frame)
            elif isinstance(frame, StreamFrame):
                self._on_stream(frame)
            elif isinstance(frame, MaxDataFrame):
                pass  # connection-level credit is not the bottleneck here
            elif isinstance(frame, MaxStreamDataFrame):
                self.send_stream.flow.raise_limit(frame.maximum_stream_data)
            elif isinstance(frame, ConnectionCloseFrame):
                self.core.state = _closed_state_for(self.core)

    def _on_crypto(self, space: Space, frame: CryptoFrame) -> None:
        if space is Space.INITIAL and frame.data.startswith(CLIENT_HELLO_MAGIC):
            self._process_client_hello(frame.data)

    def _process_client_hello(self, data: bytes) -> None:
        if self._hello_processed:
            return
        self._hello_processed = True
        self.client_random = data[4 : 4 + crypto.RANDOM_LENGTH]
        try:
            self.client_params = TransportParameters.decode(
                data[4 + crypto.RANDOM_LENGTH :]
            )
        except Exception:
            self.client_params = TransportParameters()
        self.server_random = bytes(
            self.rng.randrange(256) for _ in range(crypto.RANDOM_LENGTH)
        )
        self.handshake_keys = crypto.handshake_keys(
            self.client_random, self.server_random
        )
        self.application_keys = crypto.application_keys(
            self.client_random, self.server_random
        )
        # The client's advertised stream credit limits our response stream.
        self.send_stream.flow.limit = (
            self.client_params.initial_max_stream_data_bidi_remote
        )
        server_params = TransportParameters(original_dcid=self.original_dcid)
        server_hello = (
            SERVER_HELLO_MAGIC + self.server_random + server_params.encode()
        )
        self._crypto_queues[Space.INITIAL].append(server_hello)
        self._crypto_queues[Space.HANDSHAKE].append(ENCRYPTED_EXTENSIONS)
        self._crypto_queues[Space.HANDSHAKE].append(SERVER_FINISHED)

    def _on_stream(self, frame: StreamFrame) -> None:
        before = self.recv_stream.bytes_received
        try:
            self.recv_stream.on_frame(frame.offset, frame.data, frame.fin)
        except Exception:
            return
        received = self.recv_stream.bytes_received - before
        if received <= 0:
            return
        self._request_bytes += received
        # An application request completes every two chunks; the server
        # generates a response bigger than the client's initial stream
        # credit, which is what makes STREAM_DATA_BLOCKED observable.
        while self._request_bytes >= 200:
            self._request_bytes -= 200
            self.send_stream.write(b"r" * self.profile.response_size)

    # ------------------------------------------------------------------
    # Outbound realization
    # ------------------------------------------------------------------
    def _realize(self, output: OutputSpec) -> list[PacketHeader]:
        packets: list[PacketHeader] = []
        for packet_spec in output:
            space = _space_for(PacketType(packet_spec.packet_type))
            frames: list[Frame] = []
            for kind in packet_spec.frames:
                frame = self._realize_frame(kind, space)
                if frame is not None:
                    frames.append(frame)
            packet = self._build_packet(space, frames, packet_spec.packet_type)
            if packet is not None:
                packets.append(packet)
        return packets

    def _realize_frame(self, kind: str, space: Space) -> Frame | None:
        if kind == "ACK":
            ack = self.spaces[space].build_ack()
            return ack if ack is not None else AckFrame(0, 0, (AckRange(0, 0),))
        if kind == "CRYPTO":
            queue = self._crypto_queues[space]
            data = queue.pop(0) if queue else SESSION_TICKET
            offset = self._crypto_offsets[space]
            self._crypto_offsets[space] += len(data)
            return CryptoFrame(offset=offset, data=data)
        if kind == "STREAM":
            if not self.send_stream.has_pending:
                self.send_stream.write(PUSH_GREETING)
            offset, data, fin = self.send_stream.drain(max_bytes=RESPONSE_CHUNK * 2)
            return StreamFrame(stream_id=0, offset=offset, data=data, fin=fin)
        if kind == "STREAM_DATA_BLOCKED":
            blocked_at = self.send_stream.flow.blocked_at
            if blocked_at is None:
                blocked_at = self.send_stream.flow.limit
            reported = 0 if self.profile.sdb_reports_zero else blocked_at
            return StreamDataBlockedFrame(stream_id=0, maximum_stream_data=reported)
        if kind == "HANDSHAKE_DONE":
            return HandshakeDoneFrame()
        if kind == "CONNECTION_CLOSE":
            return ConnectionCloseFrame(
                error_code=ERROR_PROTOCOL_VIOLATION, reason=b"protocol violation"
            )
        if kind == "MAX_DATA":
            return MaxDataFrame(maximum_data=self.recv_stream.flow.grant(1000))
        if kind == "MAX_STREAM_DATA":
            return MaxStreamDataFrame(
                stream_id=0, maximum_stream_data=self.recv_stream.flow.grant(300)
            )
        return None

    def _build_packet(
        self, space: Space, frames: list[Frame], packet_type: str | None = None
    ) -> PacketHeader | None:
        keys = self._keys_for(space)
        if keys is None:
            return None
        if packet_type is None:
            packet_type = {
                Space.INITIAL: "INITIAL",
                Space.HANDSHAKE: "HANDSHAKE",
                Space.APPLICATION: "SHORT",
            }[space]
        ptype = PacketType(packet_type)
        pn = self.spaces[space].take_packet_number()
        header = PacketHeader(
            packet_type=ptype,
            destination_cid=self.client_cid,
            source_cid=self.scid if ptype is not PacketType.SHORT else b"",
            packet_number=pn,
        )
        sealed = self.wire.seal(
            keys.server,
            pn,
            header_bytes_for_aead(header),
            self.wire.encode_frames(tuple(frames)),
        )
        return PacketHeader(
            packet_type=ptype,
            destination_cid=header.destination_cid,
            source_cid=header.source_cid,
            packet_number=pn,
            payload=sealed,
        )

    def _stateless_reset(self) -> PacketHeader:
        return PacketHeader(
            packet_type=PacketType.STATELESS_RESET,
            destination_cid=b"",
            payload=crypto.stateless_reset_token(self.scid),
        )


def _closed_state_for(core: BehaviorCore) -> str:
    """Where the table goes when the *client* closes; best-effort mapping."""
    if core.table.pn_reset_abort_state is not None:
        return core.table.pn_reset_abort_state
    # Quiche/mvfst tables use q3 as their silent closed state.
    return "q3" if "q3" in core.table.rows else core.state


class QUICServer:
    """A simulated QUIC server bound to the network (the Implementation)."""

    __state__ = fields("datagrams_received",
                       connection=nested(QUICServerConnection, new=QUICServerConnection.shell),
                       rng=RNG)
    __shared__ = "network profile host port wire table endpoint _retry_scid"

    def __init__(
        self,
        network: SimulatedNetwork,
        profile: ServerProfile,
        host: str = "server",
        port: int = 4433,
        seed: int = 17,
    ) -> None:
        self.network = network
        self.profile = profile
        self.host = host
        self.port = port
        self.rng = SnapshotRandom(seed)
        #: Memoised wire functions, shared by every connection this server
        #: hosts and kept across :meth:`reset` (see :mod:`repro.quic.wire`).
        self.wire = WireMemo()
        #: The static behaviour table every connection reads.
        self.table = profile.table_factory()
        self.endpoint = network.bind(host, port)
        self.endpoint.handler = self._handle
        self.connection: QUICServerConnection | None = None
        self.datagrams_received = 0
        self._retry_scid = b"retry-id"

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all connection state (adapter property 3)."""
        self.connection = None

    def close(self) -> None:
        self.endpoint.close()

    def _refuses_snapshot(self) -> bool:
        # mvfst: a restored state would replay its stateless-reset draws.
        return self.profile.stateless_reset_probability not in (0.0, 1.0)

    # ------------------------------------------------------------------
    def _handle(self, datagram: Datagram) -> None:
        self.datagrams_received += 1
        try:
            header = self.wire.decode_packet(datagram.payload, CID_LENGTH)
        except Exception:
            return
        responses = self._dispatch(header, datagram.source)
        for response in responses:
            self.endpoint.send(self.wire.encode_packet(response), datagram.source)

    def _dispatch(self, header: PacketHeader, source) -> list[PacketHeader]:
        if header.packet_type is PacketType.INITIAL and self.connection is None:
            return self._on_new_initial(header, source)
        if self.connection is None:
            return []  # nothing to decrypt non-initial packets with
        return self.connection.handle_packet(header)

    def _on_new_initial(self, header: PacketHeader, source) -> list[PacketHeader]:
        min_pn = 0
        if self.profile.retry_enabled:
            # The token binds the client's source address only: after a
            # RETRY the client adopts a fresh destination cid (the retry's
            # source cid), so the cid cannot participate in the binding.
            if not header.token:
                token = crypto.address_validation_token(
                    source[0], source[1], b""
                ) + (header.packet_number + 1).to_bytes(4, "big")
                return [
                    PacketHeader(
                        packet_type=PacketType.RETRY,
                        destination_cid=header.source_cid,
                        source_cid=self._retry_scid,
                        token=token,
                    )
                ]
            expected = crypto.address_validation_token(source[0], source[1], b"")
            if header.token[:-4] != expected:
                return []  # invalid token (e.g. sent from the wrong port)
            min_pn = int.from_bytes(header.token[-4:], "big")
        self.connection = QUICServerConnection(
            profile=self.profile,
            table=self.table,
            original_dcid=header.destination_cid,
            client_scid=header.source_cid,
            rng=self.rng,
            wire=self.wire,
        )
        if self.profile.retry_enabled and header.packet_number < min_pn:
            # The client reset its packet-number space after the RETRY.
            responses = self.connection.abort_for_pn_reset()
            if responses:
                return responses
        return self.connection.handle_packet(header)
