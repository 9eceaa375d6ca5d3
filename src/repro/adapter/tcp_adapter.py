"""The TCP adapter: translation pair (alpha, gamma) for TCP.

The abstraction function ``alpha`` maps concrete segments to flag-level
symbols (``SYN(?,?,0)``); the concretization ``gamma`` is delegated to the
instrumented reference client (:class:`repro.tcp.client.TCPClient`), which
owns the sequence-number logic -- the paper's ~300-line instrumentation
versus the 2,700-line hand-written mapper of prior work.
"""

from __future__ import annotations

from ..core.alphabet import Alphabet, TCP_NIL, TCPSymbol, tcp_alphabet, tcp_handshake_alphabet
from ..netsim import LinkConfig, PERFECT_LINK, SimulatedNetwork
from ..registry import SUL_REGISTRY
from ..tcp.client import TCPClient
from ..tcp.segment import SEQ_MODULUS, TCPSegment
from ..tcp.server import TCPServer, TCPServerConfig
from .sul import SUL


def abstract_segment(segment: TCPSegment) -> TCPSymbol:
    """The abstraction function alpha for one segment."""
    return TCPSymbol.make(
        sorted(segment.flags), payload_len=min(len(segment.payload), 1)
    )


def segment_params(segment: TCPSegment) -> dict[str, int]:
    """Concrete numeric view of a segment for the Oracle Table.

    ``sn``/``an`` follow the paper's naming in section 4.3.
    """
    return {
        "sn": segment.seq_number,
        "an": segment.ack_number,
        "plen": len(segment.payload),
    }


class TCPAdapterSUL(SUL):
    """SUL wiring a Linux-like TCP server to the reference client."""

    def __init__(
        self,
        alphabet: Alphabet | None = None,
        link: LinkConfig = PERFECT_LINK,
        seed: int = 3,
        server_config: TCPServerConfig | None = None,
        relative_numbers: bool = True,
    ) -> None:
        super().__init__(alphabet or tcp_alphabet(), name="tcp")
        self.network = SimulatedNetwork(seed=seed, config=link)
        self.server = TCPServer(self.network, config=server_config, seed=seed + 1)
        self.client = TCPClient(
            self.network,
            self.server.endpoint.address,
            seed=seed + 2,
        )
        #: When True, sequence/ack numbers in the Oracle Table are rebased
        #: to the client ISS so synthesized terms stay in small integers.
        self.relative_numbers = relative_numbers
        self._base = 0
        self._server_base: int | None = None

    def _reset_impl(self) -> None:
        self.server.reset()
        self.client.reset()
        self._base = self.client.iss
        self._server_base = None

    def snapshot(self) -> tuple | None:
        """Server and client connection state, the rebasing bases and the
        network.

        None (replay instead) on a lossy or delayed link, while the network
        is not quiescent, and with absolute numbers: a walk shares one ISS
        across its batch, so only numbers rebased to the ISS stay those of
        per-word replay.
        """
        if not self.relative_numbers or self.network.config != PERFECT_LINK:
            return None
        network = self.network.snapshot()
        if network is None:
            return None
        return (
            self.server.snapshot(),
            self.client.snapshot(),
            self._base,
            self._server_base,
            network,
        )

    def restore(self, state: tuple) -> None:
        server, client, self._base, self._server_base, network = state
        self.server.restore(server)
        self.client.restore(client)
        self.network.restore(network)

    def _step_impl(self, symbol):
        if not isinstance(symbol, TCPSymbol):
            raise TypeError(f"TCP adapter got non-TCP symbol: {symbol}")
        sent, responses = self.client.exchange(symbol.flags, symbol.payload_len)
        in_params = self._rebase(sent, is_client=True)
        if not responses:
            return TCP_NIL, in_params, {}
        first = responses[0]
        if self._server_base is None and "SYN" in first.flags:
            self._server_base = first.seq_number
        out_params = self._rebase(first, is_client=False)
        return abstract_segment(first), in_params, out_params

    def _rebase(self, segment: TCPSegment, is_client: bool) -> dict[str, int]:
        """:func:`segment_params` with ``sn`` taken relative to the sender's
        ISS and ``an`` (where the ACK flag makes it meaningful) relative to
        the receiver's, both modulo the sequence space."""
        params = segment_params(segment)
        if not self.relative_numbers:
            return params
        seq_base = self._base if is_client else (self._server_base or 0)
        ack_base = (self._server_base or 0) if is_client else self._base
        params["sn"] = (params["sn"] - seq_base) % SEQ_MODULUS
        if "ACK" in segment.flags:
            params["an"] = (params["an"] - ack_base) % SEQ_MODULUS
        return params

    def close(self) -> None:
        self.client.close()
        self.server.close()


@SUL_REGISTRY.register("tcp")
def build_tcp_sul(
    seed: int = 3,
    relative_numbers: bool = True,
    challenge_ack_rate_limit: bool = True,
) -> TCPAdapterSUL:
    """The full 7-symbol Linux-like TCP target (paper section 6.1).

    ``challenge_ack_rate_limit=False`` disables the Linux challenge-ACK
    rate limiter (the ablation of :class:`~repro.tcp.server
    .TCPServerConfig`), collapsing the learned model -- a variant the
    differential campaigns compare against the default.
    """
    return TCPAdapterSUL(
        seed=seed,
        relative_numbers=relative_numbers,
        server_config=TCPServerConfig(
            challenge_ack_rate_limit=challenge_ack_rate_limit
        ),
    )


@SUL_REGISTRY.register("tcp-no-challenge-ack")
def build_tcp_no_challenge_ack_sul(
    seed: int = 3, relative_numbers: bool = True
) -> TCPAdapterSUL:
    """The ``tcp`` target with the challenge-ACK rate limiter disabled.

    Registered in its own right so the ablation is reachable by name from
    the CLI (``repro difftest tcp`` compares it against the default stack).
    """
    return build_tcp_sul(
        seed=seed,
        relative_numbers=relative_numbers,
        challenge_ack_rate_limit=False,
    )


@SUL_REGISTRY.register("tcp-handshake")
def build_tcp_handshake_sul(seed: int = 3) -> TCPAdapterSUL:
    """The 2-symbol handshake fragment of Fig. 3."""
    return TCPAdapterSUL(alphabet=tcp_handshake_alphabet(), seed=seed)
