"""A Linux-like TCP server implementation (the TCP System Under Learning).

The behaviour reproduces the 6-state model Prognosis learned from the
Ubuntu 20.04 stack (paper section 6.1 and appendix A.1):

* ``LISTEN`` -- stray ACK-bearing segments are answered with RST; a SYN
  starts a connection with SYN+ACK.
* ``SYN_RCVD`` -- a valid ACK (or data) completes the handshake; a fresh SYN
  or SYN+ACK aborts the connection with (ACK+)RST; a FIN+ACK simultaneously
  completes the handshake and closes, answered ACK+FIN.
* ``ESTABLISHED`` -- data is acknowledged; an in-window SYN triggers a
  *challenge ACK* which is rate-limited: the second consecutive SYN is
  silently dropped (this rate limiter is what gives the learned model its
  sixth state, exactly as in the appendix figure).
* ``LAST_ACK`` -- after answering a FIN, awaiting the final ACK.
* ``DEAD`` -- the single-connection harness has torn the socket down;
  everything is ignored until the SUL is reset.

The server is a *real* packet processor: it decodes wire bytes (checksum
included), tracks sequence/acknowledgement numbers, and emits correctly
numbered responses -- the numbers the synthesizer later recovers (Fig. 3c).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from ..core.state import fields
from ..netsim import Datagram, Endpoint, SimulatedNetwork
from .segment import SEQ_MODULUS, SegmentError, TCPSegment


class TCPState(enum.Enum):
    LISTEN = "LISTEN"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    ESTABLISHED_NO_CREDIT = "ESTABLISHED_NO_CREDIT"
    LAST_ACK = "LAST_ACK"
    DEAD = "DEAD"


@dataclass
class TCPServerConfig:
    """Tunable behaviour knobs for the simulated stack."""

    host: str = "server"
    port: int = 44344
    window: int = 65535
    #: When True the challenge-ACK rate limiter is active (Linux default);
    #: disabling it collapses the learned model to 5 states -- an ablation.
    challenge_ack_rate_limit: bool = True


class TCPServer:
    """Single-connection TCP responder bound to a simulated network."""

    __state__ = fields("state _iss snd_nxt rcv_nxt segments_received")
    __shared__ = "config _network _rng endpoint"  # the RNG is drawn only at reset

    def __init__(
        self,
        network: SimulatedNetwork,
        config: TCPServerConfig | None = None,
        seed: int = 7,
    ) -> None:
        self.config = config or TCPServerConfig()
        self._network = network
        self._rng = random.Random(seed)
        self.endpoint: Endpoint = network.bind(self.config.host, self.config.port)
        self.endpoint.handler = self._handle
        self.state = TCPState.LISTEN
        self._iss = 0  # our initial send sequence
        self.snd_nxt = 0  # next sequence number we will send
        self.rcv_nxt = 0  # next sequence number we expect
        self.segments_received = 0
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to LISTEN with a fresh initial sequence number."""
        self.state = TCPState.LISTEN
        self._iss = self._rng.randrange(SEQ_MODULUS)
        self.snd_nxt = self._iss
        self.rcv_nxt = 0

    def close(self) -> None:
        self.endpoint.close()

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------
    def _handle(self, datagram: Datagram) -> None:
        try:
            segment = TCPSegment.decode(
                datagram.payload,
                src_host=datagram.source[0],
                dst_host=self.config.host,
            )
        except SegmentError:
            return  # malformed or corrupted segment: silently dropped
        self.segments_received += 1
        for response in self._react(segment):
            self.endpoint.send(
                response.encode(self.config.host, datagram.source[0]),
                datagram.source,
            )

    def _react(self, seg: TCPSegment) -> list[TCPSegment]:
        state = self.state
        if state is TCPState.LISTEN:
            return self._in_listen(seg)
        if state is TCPState.SYN_RCVD:
            return self._in_syn_rcvd(seg)
        if state in (TCPState.ESTABLISHED, TCPState.ESTABLISHED_NO_CREDIT):
            return self._in_established(seg)
        if state is TCPState.LAST_ACK:
            return self._in_last_ack(seg)
        return []  # DEAD: the socket is gone; UDP-like silence

    # -- state handlers -------------------------------------------------
    def _in_listen(self, seg: TCPSegment) -> list[TCPSegment]:
        if "RST" in seg.flags:
            return []  # RSTs to a listener are ignored
        if seg.has_flags("SYN"):
            self.rcv_nxt = (seg.seq_number + 1) % SEQ_MODULUS
            self.state = TCPState.SYN_RCVD
            reply = self._make(("SYN", "ACK"), seq=self._iss, ack=self.rcv_nxt, peer=seg)
            self.snd_nxt = (self._iss + 1) % SEQ_MODULUS
            return [reply]
        # Any other segment to a listening port draws a RST (RFC 793 p.36).
        return [self._rst_for(seg)]

    def _in_syn_rcvd(self, seg: TCPSegment) -> list[TCPSegment]:
        if "RST" in seg.flags:
            self.state = TCPState.DEAD
            return []
        if seg.has_flags("SYN"):
            # A different SYN while synchronizing: abort with ACK+RST.
            self.state = TCPState.DEAD
            return [self._make(("ACK", "RST"), seq=self.snd_nxt, ack=self.rcv_nxt, peer=seg)]
        if seg.has_flags("SYN", "ACK"):
            self.state = TCPState.DEAD
            return [self._rst_for(seg)]
        if seg.has_flags("FIN", "ACK") and self._acks_our_syn(seg):
            # Handshake completes and the peer closes immediately.
            self.rcv_nxt = (seg.seq_number + 1) % SEQ_MODULUS
            self.state = TCPState.LAST_ACK
            reply = self._make(("ACK", "FIN"), seq=self.snd_nxt, ack=self.rcv_nxt, peer=seg)
            self.snd_nxt = (self.snd_nxt + 1) % SEQ_MODULUS
            return [reply]
        if "ACK" in seg.flags and self._acks_our_syn(seg):
            self.state = TCPState.ESTABLISHED
            if seg.payload:
                self.rcv_nxt = (seg.seq_number + len(seg.payload)) % SEQ_MODULUS
                return [self._make(("ACK",), seq=self.snd_nxt, ack=self.rcv_nxt, peer=seg)]
            return []
        return []  # out-of-window ACKs are dropped in this abstraction

    def _in_established(self, seg: TCPSegment) -> list[TCPSegment]:
        rate_limited = self.state is TCPState.ESTABLISHED_NO_CREDIT
        if "RST" in seg.flags:
            self.state = TCPState.DEAD
            return []
        if "SYN" in seg.flags:
            # In-window SYN on a synchronized connection: challenge ACK
            # (RFC 5961), rate-limited like Linux's tcp_challenge_ack_limit.
            if rate_limited and self.config.challenge_ack_rate_limit:
                return []
            if self.config.challenge_ack_rate_limit:
                self.state = TCPState.ESTABLISHED_NO_CREDIT
            return [self._make(("ACK",), seq=self.snd_nxt, ack=self.rcv_nxt, peer=seg)]
        if seg.has_flags("FIN", "ACK"):
            self.rcv_nxt = (seg.seq_number + 1) % SEQ_MODULUS
            self.state = TCPState.LAST_ACK
            reply = self._make(("ACK", "FIN"), seq=self.snd_nxt, ack=self.rcv_nxt, peer=seg)
            self.snd_nxt = (self.snd_nxt + 1) % SEQ_MODULUS
            return [reply]
        if "ACK" in seg.flags and seg.payload:
            self.rcv_nxt = (seg.seq_number + len(seg.payload)) % SEQ_MODULUS
            # Receiving data replenishes the challenge-ACK credit.
            self.state = TCPState.ESTABLISHED
            return [self._make(("ACK",), seq=self.snd_nxt, ack=self.rcv_nxt, peer=seg)]
        if "ACK" in seg.flags:
            return []  # bare ACK: nothing to do
        return []

    def _in_last_ack(self, seg: TCPSegment) -> list[TCPSegment]:
        if "RST" in seg.flags:
            self.state = TCPState.DEAD
            return []
        if "SYN" in seg.flags:
            return [self._make(("ACK",), seq=self.snd_nxt, ack=self.rcv_nxt, peer=seg)]
        if seg.has_flags("FIN", "ACK"):
            return []  # retransmitted FIN: our ACK+FIN is on the wire
        if "ACK" in seg.flags:
            if seg.payload:
                self.state = TCPState.DEAD
                return []
            self.state = TCPState.DEAD
            return []
        return []

    # -- segment builders ----------------------------------------------
    def _acks_our_syn(self, seg: TCPSegment) -> bool:
        return seg.ack_number == (self._iss + 1) % SEQ_MODULUS

    def _make(
        self, flags: tuple[str, ...], seq: int, ack: int, peer: TCPSegment
    ) -> TCPSegment:
        return TCPSegment(
            source_port=self.config.port,
            destination_port=peer.source_port,
            seq_number=seq,
            ack_number=ack,
            flags=frozenset(flags),
            window=self.config.window,
        )

    def _rst_for(self, seg: TCPSegment) -> TCPSegment:
        """A RST as specified for segments arriving at a closed/listening
        port: seq taken from the offender's ACK field."""
        if "ACK" in seg.flags:
            seq = seg.ack_number
            flags: tuple[str, ...] = ("RST",)
            ack = 0
        else:
            seq = 0
            flags = ("RST", "ACK")
            ack = (seg.seq_number + len(seg.payload)) % SEQ_MODULUS
        return TCPSegment(
            source_port=self.config.port,
            destination_port=seg.source_port,
            seq_number=seq,
            ack_number=ack,
            flags=frozenset(flags),
            window=0,
        )
