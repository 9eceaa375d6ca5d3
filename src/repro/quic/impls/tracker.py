"""A QUIC-Tracker-like reference client: the concretization oracle.

This is the heart of Prognosis's key idea (paper section 3.2): instead of
hand-writing a concretization function, the adapter instruments a reference
implementation that already owns the protocol logic.  This client

* turns abstract requests (packet type + frame kinds) into *valid* concrete
  packets using its live connection state: correct connection ids, packet
  numbers, crypto transcript offsets, stream offsets and flow-control
  values;
* processes every response to keep that state current, so the next abstract
  request concretizes correctly without any protocol logic in the adapter;
* handles RETRY automatically (re-sending the ClientHello with the token)
  -- including two faithful reproductions of reference-implementation
  behaviour from the paper: the packet-number-space reset on retry that
  exposed the RFC ambiguity of Issue 1, and the **Issue 3 bug** where the
  token is re-sent from a brand-new UDP socket on a random port, breaking
  address validation;
* applies the adapter's retransmission filter (duplicate packet numbers in
  a response are dropped) and exposes its state to the Oracle Table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter

from ...netsim import Address, Endpoint, SimulatedNetwork, SnapshotRandom
from .. import crypto
from ..connection import (
    CID_LENGTH,
    CLIENT_HELLO_MAGIC,
    CLIENT_FINISHED_MAGIC,
    SERVER_HELLO_MAGIC,
)
from ..crypto import CryptoError, DirectionalKey, KeyPair, hkdf_expand_label
from ..frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    StreamDataBlockedFrame,
    StreamFrame,
    decode_frames,
    encode_frames,
    frame_kinds,
)
from ..packet import (
    PacketHeader,
    PacketType,
    decode_packet,
    encode_packet,
    header_bytes_for_aead,
)
from ..packetspace import PacketNumberSpace, Space
from ..transport_params import TransportParameters

REQUEST_CHUNK = 100

#: The per-connection fields :meth:`TrackerClient.reset` rebuilds besides
#: the packet spaces.  Their values are immutable (ints, bytes, keys,
#: transport parameters), so a SUL snapshot carries them as they are.
CONNECTION_FIELDS = (
    "dcid",
    "scid",
    "client_random",
    "initial_keys",
    "handshake_keys",
    "application_keys",
    "server_random",
    "server_scid",
    "server_params",
    "retry_token",
    "request_offset",
    "response_received",
    "max_stream_data_limit",
    "max_data_limit",
    "closed",
    "saw_stateless_reset",
    "handshake_complete",
)
_connection_values = attrgetter(*CONNECTION_FIELDS)


@dataclass(frozen=True)
class ConcretePacket:
    """A fully decoded packet: the concrete alphabet for QUIC."""

    header: PacketHeader
    frames: tuple[Frame, ...]

    @property
    def packet_type(self) -> str:
        return self.header.packet_type.value

    def kinds(self) -> tuple[str, ...]:
        return tuple(k for k in frame_kinds(self.frames) if k != "PADDING")


@dataclass
class TrackerConfig:
    """Reference-implementation behaviour toggles."""

    host: str = "client"
    port: int = 40400
    #: Re-send the ClientHello automatically when a RETRY arrives.
    auto_retry: bool = True
    #: Reset packet-number spaces when retrying (QUIC-Tracker's behaviour
    #: that surfaced the RFC ambiguity of Issue 1).
    reset_pn_spaces_on_retry: bool = True
    #: Issue 3 bug: send the post-RETRY ClientHello from a new random port.
    retry_port_bug: bool = False
    #: Client-advertised initial stream credit for the server's responses.
    initial_max_stream_data: int = 100
    max_stream_data_step: int = 300
    max_data_step: int = 1000
    #: Demonstrates nondeterminism *reason (1)* of paper section 5: when
    #: True, the abstract "STREAM" request is ambiguous -- the client
    #: randomly concretizes it as either a data chunk or an empty FIN.
    #: The server reacts differently to the two, so the same abstract input
    #: trace yields different abstract outputs and the nondeterminism check
    #: fires, telling the user the abstraction is too coarse.
    ambiguous_stream_abstraction: bool = False


class TrackerClient:
    """The instrumented reference implementation (client role)."""

    def __init__(
        self,
        network: SimulatedNetwork,
        server_address: Address,
        config: TrackerConfig | None = None,
        seed: int = 23,
    ) -> None:
        self.network = network
        self.server_address = server_address
        self.config = config or TrackerConfig()
        self.rng = SnapshotRandom(seed)
        # Deliberately NOT reset between queries: ambiguity must persist
        # across repeats for the nondeterminism check to observe it.
        self._ambiguity_rng = random.Random(seed + 1)
        self._main_endpoint = network.bind(self.config.host, self.config.port)
        self._active_endpoint: Endpoint = self._main_endpoint
        self._extra_endpoints: list[Endpoint] = []
        self.closed = False
        self.saw_stateless_reset = False
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle (adapter property 3)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Fresh connection state: new cids, randoms, keys and spaces."""
        self.dcid = bytes(self.rng.randrange(256) for _ in range(CID_LENGTH))
        self.scid = bytes(self.rng.randrange(256) for _ in range(CID_LENGTH))
        self.client_random = bytes(
            self.rng.randrange(256) for _ in range(crypto.RANDOM_LENGTH)
        )
        self.initial_keys = crypto.initial_keys(self.dcid)
        self.handshake_keys: KeyPair | None = None
        self.application_keys: KeyPair | None = None
        self.server_random: bytes | None = None
        self.server_scid: bytes | None = None
        self.server_params: TransportParameters | None = None
        self.spaces = {space: PacketNumberSpace() for space in Space}
        self.retry_token: bytes | None = None
        self.request_offset = 0
        self.response_received = 0
        self.max_stream_data_limit = self.config.initial_max_stream_data
        self.max_data_limit = 1000
        self.closed = False
        self.saw_stateless_reset = False
        self.handshake_complete = False
        for endpoint in self._extra_endpoints:
            endpoint.close()
        self._extra_endpoints.clear()
        self._active_endpoint = self._main_endpoint
        self._main_endpoint.receive_all()

    def close(self) -> None:
        for endpoint in self._extra_endpoints:
            endpoint.close()
        self._main_endpoint.close()

    def snapshot(self) -> tuple:
        """The connection's state for a SUL snapshot: the packet spaces'
        snapshots and the values of :data:`CONNECTION_FIELDS` (the RNG
        state is captured by the SUL)."""
        return (
            tuple(space.snapshot() for space in self.spaces.values()),
            _connection_values(self),
        )

    def restore(self, state: tuple) -> None:
        spaces, values = state
        self.spaces = dict(zip(Space, map(PacketNumberSpace.restored, spaces)))
        self.__dict__.update(zip(CONNECTION_FIELDS, values))

    # ------------------------------------------------------------------
    # Concretization: abstract request -> concrete packet
    # ------------------------------------------------------------------
    def build_packet(
        self, packet_type: str, kinds: tuple[str, ...]
    ) -> tuple[PacketHeader, tuple[Frame, ...]]:
        """Realize an abstract request with the current connection state."""
        ptype = PacketType(packet_type)
        space = {
            PacketType.INITIAL: Space.INITIAL,
            PacketType.HANDSHAKE: Space.HANDSHAKE,
            PacketType.SHORT: Space.APPLICATION,
        }[ptype]
        frames = tuple(self._build_frame(kind, space) for kind in kinds)
        header = self._seal_and_wrap(ptype, space, frames)
        return header, frames

    def _build_frame(self, kind: str, space: Space) -> Frame:
        if kind == "CRYPTO":
            if space is Space.INITIAL:
                return CryptoFrame(offset=0, data=self._client_hello())
            return CryptoFrame(offset=0, data=CLIENT_FINISHED_MAGIC + b"\x00" * 28)
        if kind == "ACK":
            ack = self.spaces[space].build_ack()
            return ack if ack is not None else AckFrame(0, 0, (AckRange(0, 0),))
        if kind == "HANDSHAKE_DONE":
            return HandshakeDoneFrame()
        if kind == "STREAM":
            if (
                self.config.ambiguous_stream_abstraction
                and self._ambiguity_rng.random() < 0.5
            ):
                # One of two concrete packets matching the same abstract
                # symbol: a FIN with no payload instead of a data chunk.
                return StreamFrame(
                    stream_id=0, offset=self.request_offset, data=b"", fin=True
                )
            offset = self.request_offset
            self.request_offset += REQUEST_CHUNK
            return StreamFrame(stream_id=0, offset=offset, data=b"d" * REQUEST_CHUNK)
        if kind == "MAX_STREAM_DATA":
            self.max_stream_data_limit += self.config.max_stream_data_step
            return MaxStreamDataFrame(
                stream_id=0, maximum_stream_data=self.max_stream_data_limit
            )
        if kind == "MAX_DATA":
            self.max_data_limit += self.config.max_data_step
            return MaxDataFrame(maximum_data=self.max_data_limit)
        raise ValueError(f"reference client cannot build frame kind {kind!r}")

    def _client_hello(self) -> bytes:
        params = TransportParameters(
            initial_max_stream_data_bidi_remote=self.config.initial_max_stream_data,
            initial_max_data=self.max_data_limit,
        )
        return CLIENT_HELLO_MAGIC + self.client_random + params.encode()

    def _keys_for(self, space: Space) -> KeyPair:
        if space is Space.INITIAL:
            return self.initial_keys
        if space is Space.HANDSHAKE and self.handshake_keys is not None:
            return self.handshake_keys
        if space is Space.APPLICATION and self.application_keys is not None:
            return self.application_keys
        # No keys for this level yet: the reference implementation still
        # emits a packet matching the abstract request (adapter property 2),
        # sealed with throwaway keys the server cannot open.
        fallback = DirectionalKey(
            hkdf_expand_label(b"fallback" + self.dcid, space.value.encode()),
            f"fallback/{space.value}",
        )
        return KeyPair(client=fallback, server=fallback)

    def _seal_and_wrap(
        self, ptype: PacketType, space: Space, frames: tuple[Frame, ...]
    ) -> PacketHeader:
        pn = self.spaces[space].take_packet_number()
        dcid = self.server_scid if self.server_scid is not None else self.dcid
        header = PacketHeader(
            packet_type=ptype,
            destination_cid=dcid,
            source_cid=self.scid if ptype is not PacketType.SHORT else b"",
            packet_number=pn,
            token=self.retry_token or b"" if ptype is PacketType.INITIAL else b"",
        )
        sealed = self._keys_for(space).client.seal(
            pn, header_bytes_for_aead(header), encode_frames(list(frames))
        )
        return PacketHeader(
            packet_type=header.packet_type,
            destination_cid=header.destination_cid,
            source_cid=header.source_cid,
            packet_number=pn,
            token=header.token,
            payload=sealed,
        )

    # ------------------------------------------------------------------
    # The exchange: send one abstract symbol, gather the response set
    # ------------------------------------------------------------------
    def exchange(
        self, packet_type: str, kinds: tuple[str, ...]
    ) -> tuple[ConcretePacket, list[ConcretePacket]]:
        """Send one concrete packet for the abstract request and collect all
        response packets (following RETRYs automatically)."""
        header, frames = self.build_packet(packet_type, kinds)
        sent = ConcretePacket(header=header, frames=frames)
        self._active_endpoint.send(encode_packet(header), self.server_address)
        self.network.run()
        responses = self._drain_and_process()
        return sent, responses

    def _drain_and_process(self) -> list[ConcretePacket]:
        responses: list[ConcretePacket] = []
        pending = [d.payload for d in self._active_endpoint.receive_all()]
        stash: list[bytes] = []  # undecryptable now, maybe decryptable later
        progress = True
        while pending or (stash and progress):
            if not pending:
                # Keys may have arrived since these failed; retry them once
                # per round of progress (real clients buffer exactly so).
                pending, stash, progress = stash, [], False
            payload = pending.pop(0)
            packet = self._decode_response(payload)
            if packet is None:
                stash.append(payload)
                continue
            progress = True
            if packet.header.packet_type is PacketType.RETRY:
                responses.append(packet)
                pending.extend(
                    d.payload for d in self._follow_retry(packet)
                )
                continue
            if not self._register_received(packet):
                continue  # retransmission: filtered per the paper
            self._process_response(packet)
            responses.append(packet)
        return responses

    def _decode_response(self, payload: bytes) -> ConcretePacket | None:
        try:
            header = decode_packet(payload, short_cid_length=CID_LENGTH)
        except Exception:
            return None
        if header.packet_type is PacketType.STATELESS_RESET:
            self.saw_stateless_reset = True
            return ConcretePacket(header=header, frames=())
        if header.packet_type is PacketType.RETRY:
            return ConcretePacket(header=header, frames=())
        space = {
            PacketType.INITIAL: Space.INITIAL,
            PacketType.HANDSHAKE: Space.HANDSHAKE,
            PacketType.SHORT: Space.APPLICATION,
        }.get(header.packet_type)
        if space is None:
            return None
        keys = self._keys_for(space)
        try:
            plaintext = keys.server.open(
                header.packet_number, header_bytes_for_aead(header), header.payload
            )
        except CryptoError:
            return None
        try:
            frames = tuple(decode_frames(plaintext))
        except Exception:
            return None
        return ConcretePacket(header=header, frames=frames)

    def _register_received(self, packet: ConcretePacket) -> bool:
        space = {
            PacketType.INITIAL: Space.INITIAL,
            PacketType.HANDSHAKE: Space.HANDSHAKE,
            PacketType.SHORT: Space.APPLICATION,
        }.get(packet.header.packet_type)
        if space is None:
            return True
        return self.spaces[space].on_received(packet.header.packet_number)

    def _process_response(self, packet: ConcretePacket) -> None:
        if packet.header.source_cid and packet.header.packet_type in (
            PacketType.INITIAL,
            PacketType.HANDSHAKE,
        ):
            self.server_scid = packet.header.source_cid
        for frame in packet.frames:
            if isinstance(frame, CryptoFrame):
                self._on_crypto(frame)
            elif isinstance(frame, StreamFrame):
                self.response_received = max(
                    self.response_received, frame.end_offset
                )
            elif isinstance(frame, HandshakeDoneFrame):
                self.handshake_complete = True
            elif isinstance(frame, ConnectionCloseFrame):
                self.closed = True

    def _on_crypto(self, frame: CryptoFrame) -> None:
        if frame.data.startswith(SERVER_HELLO_MAGIC):
            self.server_random = frame.data[4 : 4 + crypto.RANDOM_LENGTH]
            try:
                self.server_params = TransportParameters.decode(
                    frame.data[4 + crypto.RANDOM_LENGTH :]
                )
            except Exception:
                self.server_params = None
            self.handshake_keys = crypto.handshake_keys(
                self.client_random, self.server_random
            )
            self.application_keys = crypto.application_keys(
                self.client_random, self.server_random
            )

    # ------------------------------------------------------------------
    # RETRY handling (Issues 1 and 3 live here)
    # ------------------------------------------------------------------
    def _follow_retry(self, retry: ConcretePacket) -> list:
        """React to a RETRY: adopt the new cid and re-send the ClientHello."""
        self.retry_token = retry.header.token
        # RFC 9001: the client's new destination cid is the retry's source
        # cid, and initial keys are re-derived from it.
        self.dcid = retry.header.source_cid
        self.server_scid = retry.header.source_cid
        self.initial_keys = crypto.initial_keys(self.dcid)
        if not self.config.auto_retry:
            return []
        if self.config.reset_pn_spaces_on_retry:
            # QUIC-Tracker resets its packet-number spaces here -- the
            # behaviour whose handling the RFC left ambiguous (Issue 1).
            for space in self.spaces.values():
                space.reset()
        if self.config.retry_port_bug:
            # Issue 3: the token goes back from a brand-new UDP socket on a
            # random free port, so server-side address validation fails.
            bugged = self.network.random_port_endpoint(self.config.host)
            self._extra_endpoints.append(bugged)
            self._active_endpoint = bugged
        header, _ = self.build_packet("INITIAL", ("CRYPTO",))
        self._active_endpoint.send(encode_packet(header), self.server_address)
        self.network.run()
        return self._active_endpoint.receive_all()

    # ------------------------------------------------------------------
    # Oracle-table support: concrete numeric views of packets
    # ------------------------------------------------------------------
    @staticmethod
    def packet_params(packet: ConcretePacket) -> dict[str, int]:
        """Flatten the numeric fields the synthesizer may reason about."""
        params: dict[str, int] = {"pn": packet.header.packet_number}
        for frame in packet.frames:
            if isinstance(frame, StreamFrame):
                params["stream_offset"] = frame.offset
                params["stream_len"] = len(frame.data)
            elif isinstance(frame, StreamDataBlockedFrame):
                params["max_stream_data"] = frame.maximum_stream_data
            elif isinstance(frame, MaxStreamDataFrame):
                params["max_stream_data"] = frame.maximum_stream_data
            elif isinstance(frame, MaxDataFrame):
                params["max_data"] = frame.maximum_data
            elif isinstance(frame, AckFrame):
                params["largest_acked"] = frame.largest_acknowledged
            elif isinstance(frame, ConnectionCloseFrame):
                params["close_code"] = frame.error_code
        return params
