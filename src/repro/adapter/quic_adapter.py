"""The QUIC adapter: translation pair (alpha, gamma) for QUIC.

``alpha`` abstracts a concrete packet to its type and frame-kind set
(``INITIAL(?,?)[CRYPTO]``); a response -- possibly several packets -- maps
to a :class:`~repro.core.alphabet.QUICOutput` multiset, rendered exactly
like the appendix figures.  ``gamma`` is delegated to the instrumented
QUIC-Tracker-like reference client, which owns key derivation, packet
numbering, stream offsets and flow-control values (the logic the paper
argues is "close to impossible" to hand-write for QUIC).
"""

from __future__ import annotations

from typing import Callable

from ..core.alphabet import (
    Alphabet,
    QUICOutput,
    QUICSymbol,
    QUIC_EMPTY_OUTPUT,
    quic_alphabet,
)
from ..netsim import LinkConfig, PERFECT_LINK, SimulatedNetwork
from ..quic.connection import QUICServer, QUICServerConnection
from ..quic.impls.google import google_server
from ..quic.impls.mvfst import mvfst_server
from ..quic.impls.quiche import quiche_server
from ..quic.impls.tracker import ConcretePacket, TrackerClient, TrackerConfig
from ..registry import SUL_REGISTRY
from .sul import SUL

ServerFactory = Callable[[SimulatedNetwork], QUICServer]

#: Named server implementations a spec can target (``quic-<name>``).
SERVER_FACTORIES: dict[str, Callable[..., QUICServer]] = {
    "google": google_server,
    "quiche": quiche_server,
    "mvfst": mvfst_server,
}


def abstract_packet(packet: ConcretePacket) -> QUICSymbol:
    """The abstraction function alpha for one packet."""
    return QUICSymbol.make(packet.packet_type, packet.kinds())


def abstract_response(packets: list[ConcretePacket]) -> QUICOutput:
    """alpha lifted to a whole response (a multiset of packets)."""
    if not packets:
        return QUIC_EMPTY_OUTPUT
    return QUICOutput.make(abstract_packet(p) for p in packets)


class QUICAdapterSUL(SUL):
    """SUL wiring a simulated QUIC server to the reference client."""

    def __init__(
        self,
        server_factory: ServerFactory,
        alphabet: Alphabet | None = None,
        link: LinkConfig = PERFECT_LINK,
        seed: int = 5,
        tracker_config: TrackerConfig | None = None,
    ) -> None:
        super().__init__(alphabet or quic_alphabet(), name="quic")
        self.network = SimulatedNetwork(seed=seed, config=link)
        self.server = server_factory(self.network)
        self.client = TrackerClient(
            self.network,
            self.server.endpoint.address,
            config=tracker_config,
            seed=seed + 2,
        )

    def _reset_impl(self) -> None:
        self.server.reset()
        self.client.reset()

    def snapshot(self) -> tuple | None:
        """Per-connection state only, as immutable values: the server's
        connection and datagram count, the client's connection fields, the
        network's counters and clock, and the server, client and network
        RNG states.

        None (replay instead) on a lossy or delayed link, for a
        stateless-reset probability strictly between 0 and 1 (mvfst), with
        an ambiguous STREAM abstraction or the retry-port bug, and while
        the network is not quiescent.
        """
        config = self.client.config
        if (
            self.network.config != PERFECT_LINK
            or self.server.profile.stateless_reset_probability not in (0.0, 1.0)
            or config.ambiguous_stream_abstraction
            or config.retry_port_bug
        ):
            return None
        network = self.network.snapshot()
        if network is None:
            return None
        connection = self.server.connection
        return (
            None if connection is None else connection.snapshot(),
            self.client.snapshot(),
            self.server.datagrams_received,
            self.server.rng.getstate(),
            self.client.rng.getstate(),
            network,
        )

    def restore(self, state: tuple) -> None:
        connection, client, received, server_rng, client_rng, network = state
        server = self.server
        if connection is not None:
            connection = QUICServerConnection.restored(connection, server.profile, server.rng)
        server.connection = connection
        self.client.restore(client)
        server.datagrams_received = received
        server.rng.setstate(server_rng)
        self.client.rng.setstate(client_rng)
        self.network.restore(network)

    def _step_impl(self, symbol):
        if not isinstance(symbol, QUICSymbol):
            raise TypeError(f"QUIC adapter got non-QUIC symbol: {symbol}")
        sent, responses = self.client.exchange(symbol.packet_type, symbol.frames)
        in_params = TrackerClient.packet_params(sent)
        out_params: dict[str, int] = {}
        for packet in responses:
            # Later packets override earlier ones only for fields they
            # actually carry; STREAM_DATA_BLOCKED's value (Issue 4) and
            # packet numbers are what the synthesizer consumes.
            out_params.update(TrackerClient.packet_params(packet))
        return abstract_response(responses), in_params, out_params

    def close(self) -> None:
        self.client.close()
        self.server.close()


def build_quic_sul(
    implementation: str,
    seed: int = 5,
    retry_enabled: bool = False,
    tracker_config: TrackerConfig | dict | None = None,
) -> QUICAdapterSUL:
    """Build the SUL for one named QUIC server implementation.

    ``tracker_config`` accepts either a :class:`TrackerConfig` or a plain
    dict of its fields, so JSON experiment specs can configure the
    reference client (``{"retry_port_bug": true}``).
    """
    try:
        factory = SERVER_FACTORIES[implementation]
    except KeyError:
        known = ", ".join(sorted(SERVER_FACTORIES))
        raise ValueError(
            f"unknown QUIC implementation {implementation!r}; known: {known}"
        ) from None
    if isinstance(tracker_config, dict):
        tracker_config = TrackerConfig(**tracker_config)

    def build(network: SimulatedNetwork) -> QUICServer:
        return factory(network, retry_enabled=retry_enabled, seed=seed + 11)

    return QUICAdapterSUL(build, seed=seed, tracker_config=tracker_config)


def _register_quic_targets() -> None:
    for implementation in SERVER_FACTORIES:

        def build(
            seed: int = 5,
            retry_enabled: bool = False,
            tracker_config: TrackerConfig | dict | None = None,
            _implementation: str = implementation,
        ) -> QUICAdapterSUL:
            return build_quic_sul(
                _implementation,
                seed=seed,
                retry_enabled=retry_enabled,
                tracker_config=tracker_config,
            )

        build.__doc__ = f"The simulated {implementation} QUIC server target."
        SUL_REGISTRY.register(f"quic-{implementation}", build)


_register_quic_targets()
