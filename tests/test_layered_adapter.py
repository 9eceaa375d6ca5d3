"""Tests for the layered-adapter API: transports, composition, delegation.

The transports are exercised against a tiny echo app so every behavior
(ARQ recovery, in-order delivery, stream independence, migration, 0-RTT)
is pinned below the protocol layers that ride them.
"""

import itertools

import pytest

from repro.adapter.layered import (
    AppLayer,
    LayeredSUL,
    QuicStreamTransport,
    ReliableByteTransport,
    StreamEvent,
    Transport,
    TransportError,
    compose,
)
from repro.core.alphabet import Alphabet, TCPSymbol
from repro.netsim import LinkConfig


def _echo_server(transport: Transport) -> None:
    """Attach a handler echoing each data event back with an ``ok:`` prefix."""

    def handler(event: StreamEvent):
        if event.kind != "data":
            return [
                StreamEvent(
                    stream_id=event.stream_id,
                    kind="reset",
                    error_code=event.error_code,
                )
            ]
        return [
            StreamEvent(
                stream_id=event.stream_id,
                kind="data",
                data=b"ok:" + event.data,
                fin=event.fin,
            )
        ]

    transport.set_server(handler)


class TestReliableByteTransport:
    def test_roundtrip_on_perfect_link(self):
        transport = ReliableByteTransport(seed=1)
        _echo_server(transport)
        transport.reset()
        transport.send(0, b"hello")
        events = transport.exchange()
        assert events == [StreamEvent(0, "data", b"ok:hello")]
        transport.close()

    def test_single_stream_only(self):
        transport = ReliableByteTransport(seed=1)
        with pytest.raises(TransportError):
            transport.send(4, b"x")
        with pytest.raises(TransportError):
            transport.send(0, b"x", fin=True)
        with pytest.raises(TransportError):
            transport.reset_stream(0)
        transport.close()

    def test_head_of_line_blocking_then_recovery(self):
        """A lost first segment stalls the delivered second one."""
        transport = ReliableByteTransport(seed=1)
        _echo_server(transport)
        transport.reset()
        # Two segments in one flight; the first datagram is dropped.
        transport.send(0, b"first")
        transport.send(0, b"second")
        transport.network.drop_next(1)
        # In-order delivery: nothing can be served past the gap.
        assert transport.exchange(max_rounds=1) == []
        # The next exchange retransmits everything unacked and recovers;
        # the byte stream is delivered contiguously, as one reassembled
        # chunk (both segments served together).
        events = transport.exchange()
        assert events == [StreamEvent(0, "data", b"ok:firstsecond")]
        transport.close()

    def test_recovery_under_random_loss(self):
        transport = ReliableByteTransport(
            seed=3, link=LinkConfig(loss_rate=0.3)
        )
        _echo_server(transport)
        for _ in range(10):
            transport.reset()
            transport.send(0, b"payload")
            collected = b""
            for _ in range(20):
                for event in transport.exchange():
                    collected += event.data
                if collected:
                    break
            assert collected == b"ok:payload"
        transport.close()

    def test_server_cannot_send_resets(self):
        transport = ReliableByteTransport(seed=1)
        transport.set_server(
            lambda event: [StreamEvent(0, "reset", error_code=1)]
        )
        transport.reset()
        transport.send(0, b"x")
        with pytest.raises(TransportError):
            transport.exchange()
        transport.close()


class TestQuicStreamTransport:
    def test_roundtrip_with_fin(self):
        transport = QuicStreamTransport(seed=2)
        _echo_server(transport)
        transport.reset()
        transport.send(0, b"req", fin=True)
        events = transport.exchange()
        assert events == [StreamEvent(0, "data", b"ok:req", fin=True)]
        transport.close()

    def test_streams_deliver_independently_under_loss(self):
        """Loss on one stream's packet never stalls another stream."""
        transport = QuicStreamTransport(seed=2)
        _echo_server(transport)
        transport.reset()
        transport.send(0, b"alpha", fin=True)
        transport.send(4, b"beta", fin=True)
        transport.network.drop_next(1)  # kills stream 0's packet
        first = transport.exchange()
        assert [e.stream_id for e in first] == [4]
        assert first[0].data == b"ok:beta"
        # Stream 0 recovers by retransmission on the next exchange.
        second = transport.exchange()
        assert [e.stream_id for e in second] == [0]
        assert second[0].data == b"ok:alpha"
        transport.close()

    def test_reset_stream_travels_both_ways(self):
        transport = QuicStreamTransport(seed=2)
        _echo_server(transport)  # echoes resets back
        transport.reset()
        transport.reset_stream(0, error_code=7)
        events = transport.exchange()
        assert events == [StreamEvent(0, "reset", error_code=7)]
        transport.close()

    def test_migration_keeps_the_connection(self):
        transport = QuicStreamTransport(seed=2)
        _echo_server(transport)
        transport.reset()
        transport.send(0, b"before", fin=True)
        assert transport.exchange()[0].data == b"ok:before"
        old_port = transport._endpoint.address[1]
        transport.migrate()
        assert transport._endpoint.address[1] != old_port
        assert transport.stats["migrations"] == 1
        transport.send(4, b"after", fin=True)
        events = transport.exchange()
        assert events[0].data == b"ok:after"
        # No new handshake happened for the migrated traffic.
        assert transport.stats["handshake_rounds"] == 1
        transport.close()

    def test_resumption_skips_the_handshake_round(self):
        transport = QuicStreamTransport(seed=2, resumption=True)
        _echo_server(transport)
        transport.reset()  # first connection: no ticket yet, full handshake
        transport.send(0, b"one", fin=True)
        assert transport.exchange()[0].data == b"ok:one"
        first_rounds = transport.last_connection_rounds
        transport.reset()  # second connection: ticket-armed 0-RTT
        transport.send(0, b"two", fin=True)
        assert transport.exchange()[0].data == b"ok:two"
        assert transport.last_connection_rounds < first_rounds
        assert transport.stats["handshake_rounds"] == 1
        transport.close()

    def test_unauthenticated_stray_packet_dropped(self):
        """Without a hello or valid ticket the server admits nothing."""
        transport = QuicStreamTransport(seed=2)
        _echo_server(transport)
        transport.reset()
        # Forge a fresh connection id without handshaking it.
        transport._conn.cid = b"\x00" * 8
        transport.send(0, b"stray", fin=True)
        assert transport.exchange() == []
        transport.close()

    def test_feature_flags(self):
        assert QuicStreamTransport.independent_streams
        assert QuicStreamTransport.supports_migration
        assert QuicStreamTransport.supports_resumption
        assert not ReliableByteTransport.independent_streams
        assert not ReliableByteTransport.supports_migration


# ---------------------------------------------------------------------------
# QUIC-stream recovery under loss, pinned
# ---------------------------------------------------------------------------

def _drop_at(network, position: int) -> None:
    """Drop the datagram sent ``position`` sends from now (0 = the next)."""
    send = network.send
    sent = itertools.count()

    def dropping(*args):
        if next(sent) == position:
            network.drop_next(1)
        send(*args)

    network.send = dropping


def _render(events) -> str:
    """One exchange's events, e.g. ``"4 ok:beta fin, 0 reset 7"``."""
    return ", ".join(
        f"{e.stream_id} reset {e.error_code}" if e.kind == "reset"
        else f"{e.stream_id} {e.data.decode()}" + (" fin" if e.fin else "")
        for e in events
    )


def _wire(network):
    """Network counters: (sent, delivered, lost, duplicated)."""
    net = network.stats
    return (net["sent"], net["delivered"], net["lost"], net["duplicated"])


def _outcome(transport: QuicStreamTransport, exchanges: list[str]):
    """Events per exchange, network counters and transport
    (connections, handshake_rounds, migrations)."""
    own = transport.stats
    return (
        exchanges,
        _wire(transport.network),
        (own["connections"], own["handshake_rounds"], own["migrations"]),
    )


def _flight_under_loss(position: int):
    """Two requests in one flight; the exchange's datagram ``position`` is lost."""
    transport = QuicStreamTransport(seed=2)
    _echo_server(transport)
    transport.reset()
    transport.send(0, b"alpha", fin=True)
    transport.send(4, b"beta", fin=True)
    _drop_at(transport.network, position)
    exchanges = [_render(transport.exchange()) for _ in range(3)]
    return _outcome(transport, exchanges)


def _reset_under_loss(position: int):
    """RESET_STREAM on an open stream beside a new request, one datagram lost."""
    transport = QuicStreamTransport(seed=2)
    _echo_server(transport)
    transport.reset()
    transport.send(0, b"open")
    transport.exchange()
    transport.reset_stream(0, error_code=7)
    transport.send(4, b"next", fin=True)
    _drop_at(transport.network, position)
    exchanges = [_render(transport.exchange()) for _ in range(3)]
    return _outcome(transport, exchanges)


def _random_loss(seed: int):
    """Three connections of two requests then a reset, on a 30 %-loss link."""
    transport = QuicStreamTransport(seed=seed, link=LinkConfig(loss_rate=0.3))
    _echo_server(transport)
    exchanges = []
    for query in range(3):
        transport.reset()
        transport.send(0, b"q%d" % query, fin=True)
        transport.send(4, b"r%d" % query, fin=True)
        exchanges += [_render(transport.exchange()) for _ in range(2)]
        transport.reset_stream(8, error_code=3)
        exchanges += [_render(transport.exchange()) for _ in range(2)]
    return _outcome(transport, exchanges)


#: Pinned recovery: which exchange delivers each event, and what it cost
#: on the wire, for every single-datagram loss and three random-loss seeds.
FLIGHT_UNDER_LOSS = {
    0: (
        [
            '4 ok:beta fin',
            '0 ok:alpha fin',
            '',
        ],
        (10, 9, 1, 0),
        (1, 1, 0),
    ),
    1: (
        [
            '0 ok:alpha fin',
            '4 ok:beta fin',
            '',
        ],
        (10, 9, 1, 0),
        (1, 1, 0),
    ),
    2: (
        [
            '4 ok:beta fin, 0 ok:alpha fin',
            '',
            '',
        ],
        (10, 9, 1, 0),
        (1, 1, 0),
    ),
    3: (
        [
            '0 ok:alpha fin, 4 ok:beta fin',
            '',
            '',
        ],
        (12, 11, 1, 0),
        (1, 1, 0),
    ),
    4: (
        [
            '0 ok:alpha fin, 4 ok:beta fin',
            '',
            '',
        ],
        (8, 7, 1, 0),
        (1, 1, 0),
    ),
}
RESET_UNDER_LOSS = {
    0: (
        [
            '0 reset 7',
            '4 ok:next fin',
            '',
        ],
        (13, 12, 1, 0),
        (1, 1, 0),
    ),
    1: (
        [
            '4 ok:next fin',
            '0 reset 7',
            '',
        ],
        (13, 12, 1, 0),
        (1, 1, 0),
    ),
    2: (
        [
            '0 reset 7, 4 ok:next fin',
            '',
            '',
        ],
        (13, 12, 1, 0),
        (1, 1, 0),
    ),
    3: (
        [
            '4 ok:next fin, 0 reset 7',
            '',
            '',
        ],
        (15, 14, 1, 0),
        (1, 1, 0),
    ),
    4: (
        [
            '0 reset 7, 4 ok:next fin',
            '',
            '',
        ],
        (11, 10, 1, 0),
        (1, 1, 0),
    ),
}
RANDOM_LOSS = {
    1: (
        [
            '4 ok:r0 fin',
            '',
            '',
            '0 ok:q0 fin',
            '0 ok:q1 fin, 4 ok:r1 fin',
            '',
            '8 reset 3',
            '',
            '0 ok:q2 fin, 4 ok:r2 fin',
            '',
            '',
            '8 reset 3',
        ],
        (38, 30, 8, 0),
        (3, 3, 0),
    ),
    2: (
        [
            '0 ok:q0 fin',
            '',
            '8 reset 3, 4 ok:r0 fin',
            '',
            '0 ok:q1 fin, 4 ok:r1 fin',
            '',
            '8 reset 3',
            '',
            '4 ok:r2 fin',
            '',
            '0 ok:q2 fin, 8 reset 3',
            '',
        ],
        (48, 31, 17, 0),
        (3, 3, 0),
    ),
    3: (
        [
            '0 ok:q0 fin, 4 ok:r0 fin',
            '',
            '',
            '8 reset 3',
            '0 ok:q1 fin, 4 ok:r1 fin',
            '',
            '',
            '8 reset 3',
            '0 ok:q2 fin',
            '',
            '8 reset 3, 4 ok:r2 fin',
            '',
        ],
        (42, 33, 9, 0),
        (3, 3, 0),
    ),
}


class TestQuicStreamTransportUnderLoss:
    """Event sequences and counters of the stream transport under loss."""

    @pytest.mark.parametrize("position", sorted(FLIGHT_UNDER_LOSS))
    def test_two_request_flight(self, position):
        assert _flight_under_loss(position) == FLIGHT_UNDER_LOSS[position]

    @pytest.mark.parametrize("position", sorted(RESET_UNDER_LOSS))
    def test_reset_stream_round_trip(self, position):
        assert _reset_under_loss(position) == RESET_UNDER_LOSS[position]

    @pytest.mark.parametrize("seed", sorted(RANDOM_LOSS))
    def test_random_loss(self, seed):
        assert _random_loss(seed) == RANDOM_LOSS[seed]


# ---------------------------------------------------------------------------
# Reliable-pipe recovery under loss, pinned
# ---------------------------------------------------------------------------

def _pipe_flight_under_loss(position: int):
    """Two segments in one flight; the exchange's datagram ``position`` is lost."""
    transport = ReliableByteTransport(seed=1)
    _echo_server(transport)
    transport.reset()
    transport.send(0, b"first")
    transport.send(0, b"second")
    _drop_at(transport.network, position)
    exchanges = [_render(transport.exchange()) for _ in range(3)]
    return exchanges, _wire(transport.network)


def _pipe_random_loss(seed: int):
    """Three connections of a two-segment flight then one more segment,
    on a 30 %-loss link."""
    transport = ReliableByteTransport(seed=seed, link=LinkConfig(loss_rate=0.3))
    _echo_server(transport)
    exchanges = []
    for query in range(3):
        transport.reset()
        transport.send(0, b"q%d" % query)
        transport.send(0, b"r%d" % query)
        exchanges += [_render(transport.exchange()) for _ in range(2)]
        transport.send(0, b"s%d" % query)
        exchanges += [_render(transport.exchange()) for _ in range(2)]
    return exchanges, _wire(transport.network)


#: Pinned recovery of the pipe: every single-datagram loss of a
#: two-segment flight, and two random-loss seeds.
PIPE_FLIGHT_UNDER_LOSS = {
    0: (
        [
            '',
            '0 ok:firstsecond',
            '',
        ],
        (8, 7, 1, 0),
    ),
    1: (
        [
            '0 ok:first',
            '0 ok:second',
            '',
        ],
        (7, 6, 1, 0),
    ),
    2: (
        [
            '0 ok:firstok:second',
            '',
            '',
        ],
        (8, 7, 1, 0),
    ),
    3: (
        [
            '0 ok:firstok:second',
            '',
            '',
        ],
        (7, 6, 1, 0),
    ),
    4: (
        [
            '0 ok:firstok:second',
            '',
            '',
        ],
        (5, 4, 1, 0),
    ),
}
PIPE_RANDOM_LOSS = {
    1: (
        [
            '',
            '0 ok:q0r0',
            '',
            '',
            '',
            '0 ok:q1ok:r1',
            '0 ok:s1',
            '',
            '0 ok:q2ok:r2',
            '',
            '0 ok:s2',
            '',
        ],
        (33, 26, 7, 0),
    ),
    2: (
        [
            '0 ok:q0',
            '0 ok:r0',
            '',
            '',
            '',
            '',
            '0 ok:q1r1ok:s1',
            '',
            '0 ok:q2ok:r2',
            '',
            '0 ok:s2',
            '',
        ],
        (31, 23, 8, 0),
    ),
}


class TestReliableByteTransportUnderLoss:
    """Event sequences and counters of the reliable pipe under loss."""

    @pytest.mark.parametrize("position", sorted(PIPE_FLIGHT_UNDER_LOSS))
    def test_two_segment_flight(self, position):
        assert _pipe_flight_under_loss(position) == PIPE_FLIGHT_UNDER_LOSS[position]

    @pytest.mark.parametrize("seed", sorted(PIPE_RANDOM_LOSS))
    def test_random_loss(self, seed):
        assert _pipe_random_loss(seed) == PIPE_RANDOM_LOSS[seed]


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

class _ProbeApp(AppLayer):
    """Minimal app recording what the composition machinery hands it."""

    name = "probe"

    def __init__(self, transport: Transport, seed: int = 0) -> None:
        self.alphabet = Alphabet.of([TCPSymbol.make(("SYN",))])
        self.transport = transport
        self.seed = seed
        self.resets = 0

    def reset(self) -> None:
        self.resets += 1

    def step(self, symbol):
        return symbol, {}, {}


def _probe_app(transport: Transport, seed: int = 0) -> _ProbeApp:
    return _ProbeApp(transport, seed=seed)


class TestCompose:
    def test_params_split_by_signature(self):
        factory = compose(QuicStreamTransport, _probe_app, name="probe")
        sul = factory(seed=5, resumption=True)
        assert isinstance(sul, LayeredSUL)
        assert sul.transport.resumption  # claimed by the transport
        assert sul.app.seed == 5  # `seed` accepted by both layers
        sul.close()

    def test_unclaimed_param_raises(self):
        factory = compose(QuicStreamTransport, _probe_app, name="probe")
        with pytest.raises(TypeError, match="no_such_option"):
            factory(no_such_option=1)

    def test_attribute_delegation_to_app(self):
        sul = compose(ReliableByteTransport, _probe_app, name="probe")()
        assert sul.resets == 0  # forwarded to the app layer
        sul.reset()
        assert sul.resets == 1
        with pytest.raises(AttributeError):
            sul.nonexistent_attribute
        sul.close()

    def test_sul_name_comes_from_compose(self):
        sul = compose(ReliableByteTransport, _probe_app, name="probe-x")()
        assert sul.name == "probe-x"
        sul.close()
