"""A reference TCP client used as the concretization oracle.

This is the TCP counterpart of the instrumented reference implementation in
paper section 3.2: it owns the protocol logic needed to turn an abstract
symbol like ``ACK(?,?,0)`` into a *valid* concrete segment for the current
connection state (correct ports, sequence and acknowledgement numbers), and
it keeps that state up to date by processing every response from the server.

The TCP adapter instruments this client; the client itself knows nothing
about learning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim import Address, SimulatedNetwork
from .segment import SEQ_MODULUS, SegmentError, TCPSegment


@dataclass
class ClientConfig:
    host: str = "client"
    port: int = 40965
    window: int = 8192
    payload_byte: bytes = b"x"


class TCPClient:
    """Protocol-state-tracking client for building concrete segments."""

    def __init__(
        self,
        network: SimulatedNetwork,
        server_address: Address,
        config: ClientConfig | None = None,
        seed: int = 11,
    ) -> None:
        self.config = config or ClientConfig()
        self._network = network
        self.server_address = server_address
        self._rng = random.Random(seed)
        self.endpoint = network.bind(self.config.host, self.config.port)
        self.iss = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle (adapter property 3: full reset between queries)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh logical connection with a new ISS."""
        self.iss = self._rng.randrange(SEQ_MODULUS)
        self.snd_nxt = self.iss
        self.rcv_nxt = 0
        self.endpoint.receive_all()  # drop any stale datagrams

    def close(self) -> None:
        self.endpoint.close()

    def snapshot(self) -> tuple:
        """The connection state a SUL snapshot captures."""
        return (self.iss, self.snd_nxt, self.rcv_nxt)

    def restore(self, state: tuple) -> None:
        self.iss, self.snd_nxt, self.rcv_nxt = state

    # ------------------------------------------------------------------
    # Concretization: abstract flag set -> valid concrete segment
    # ------------------------------------------------------------------
    def build_segment(self, flags: tuple[str, ...], payload_len: int) -> TCPSegment:
        """Produce a concrete segment matching the abstract request.

        The reference implementation's connection state supplies every field
        the abstraction left as ``?``.
        """
        flag_set = frozenset(flags)
        payload = self.config.payload_byte * payload_len
        if flag_set == {"SYN"}:
            seq, ack = self.iss, 0
        elif flag_set == {"SYN", "ACK"}:
            seq, ack = self.iss, self.rcv_nxt
        elif flag_set == {"RST"}:
            seq, ack = self.snd_nxt, 0
        else:  # ACK-bearing segments: ACK, ACK+PSH, FIN+ACK, ACK+RST
            seq, ack = self.snd_nxt, self.rcv_nxt
        return TCPSegment(
            source_port=self.config.port,
            destination_port=self.server_address[1],
            seq_number=seq,
            ack_number=ack,
            flags=flag_set,
            window=self.config.window,
            payload=payload,
        )

    def _note_sent(self, segment: TCPSegment) -> None:
        """Advance snd_nxt for sequence-consuming segments we emitted."""
        consumed = len(segment.payload)
        if "SYN" in segment.flags or "FIN" in segment.flags:
            consumed += 1
        self.snd_nxt = (segment.seq_number + consumed) % SEQ_MODULUS

    def _note_received(self, segment: TCPSegment) -> None:
        """Track the server's sequence space from its responses."""
        if "RST" in segment.flags:
            return
        consumed = len(segment.payload)
        if "SYN" in segment.flags or "FIN" in segment.flags:
            consumed += 1
        if consumed:
            self.rcv_nxt = (segment.seq_number + consumed) % SEQ_MODULUS

    # ------------------------------------------------------------------
    # Exchange
    # ------------------------------------------------------------------
    def exchange(
        self, flags: tuple[str, ...], payload_len: int
    ) -> tuple[TCPSegment, list[TCPSegment]]:
        """Send one concrete segment and collect the server's responses.

        Runs the simulated network to quiescence, so every response caused by
        this input (and nothing else -- adapter property 1) is returned.
        """
        segment = self.build_segment(flags, payload_len)
        self.endpoint.send(
            segment.encode(self.config.host, self.server_address[0]),
            self.server_address,
        )
        self._note_sent(segment)
        self._network.run()
        responses: list[TCPSegment] = []
        for datagram in self.endpoint.receive_all():
            try:
                response = TCPSegment.decode(
                    datagram.payload,
                    src_host=datagram.source[0],
                    dst_host=self.config.host,
                )
            except SegmentError:
                continue
            self._note_received(response)
            responses.append(response)
        return segment, responses
