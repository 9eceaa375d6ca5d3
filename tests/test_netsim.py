"""Unit tests for the simulated network substrate."""

import pickle
import random

import pytest

from repro.core.state import capture, declared, restore
from repro.netsim import (
    LinkConfig,
    NetworkError,
    PERFECT_LINK,
    SimulatedNetwork,
    SnapshotRandom,
    VirtualClock,
)


class TestVirtualClock:
    def test_monotonic_advance(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_advance_to_never_goes_back(self):
        clock = VirtualClock(start=10)
        clock.advance_to(5)
        assert clock.now == 10


class TestLinkConfig:
    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            LinkConfig(loss_rate=1.5)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LinkConfig(latency=-1)


class TestBinding:
    def test_bind_and_send(self):
        network = SimulatedNetwork()
        a = network.bind("hostA", 1000)
        b = network.bind("hostB", 2000)
        a.send(b"hello", b.address)
        network.run()
        datagram = b.receive()
        assert datagram is not None
        assert datagram.payload == b"hello"
        assert datagram.source == a.address

    def test_double_bind_rejected(self):
        network = SimulatedNetwork()
        network.bind("h", 1)
        with pytest.raises(NetworkError):
            network.bind("h", 1)

    def test_ephemeral_ports_unique(self):
        network = SimulatedNetwork()
        ports = {network.bind("h").address[1] for _ in range(100)}
        assert len(ports) == 100

    def test_random_port_endpoint_is_ephemeral(self):
        network = SimulatedNetwork()
        endpoint = network.random_port_endpoint("h")
        assert endpoint.address[1] >= 49152

    def test_closed_endpoint_cannot_send(self):
        network = SimulatedNetwork()
        a = network.bind("h", 1)
        a.close()
        with pytest.raises(NetworkError):
            a.send(b"x", ("h", 2))

    def test_port_reusable_after_close(self):
        network = SimulatedNetwork()
        a = network.bind("h", 1)
        a.close()
        network.bind("h", 1)  # must not raise


class TestDelivery:
    def test_handler_invoked_synchronously(self):
        network = SimulatedNetwork()
        server = network.bind("server", 80)
        client = network.bind("client", 1234)
        received = []

        def echo(datagram):
            received.append(datagram.payload)
            server.send(b"re:" + datagram.payload, datagram.source)

        server.handler = echo
        client.send(b"ping", server.address)
        network.run()
        assert received == [b"ping"]
        assert client.receive().payload == b"re:ping"

    def test_send_to_unbound_address_is_dropped(self):
        network = SimulatedNetwork()
        a = network.bind("h", 1)
        a.send(b"x", ("nowhere", 9))
        network.run()
        assert network.stats["lost"] == 1

    def test_clock_advances_with_latency(self):
        network = SimulatedNetwork(config=LinkConfig(latency=0.25))
        a = network.bind("h", 1)
        b = network.bind("h", 2)
        a.send(b"x", b.address)
        network.run()
        assert network.clock.now >= 0.25

    def test_runaway_ping_pong_detected(self):
        network = SimulatedNetwork()
        a = network.bind("h", 1)
        b = network.bind("h", 2)
        a.handler = lambda d: a.send(b"x", b.address)
        b.handler = lambda d: b.send(b"x", a.address)
        a.send(b"x", b.address)
        with pytest.raises(NetworkError):
            network.run(max_events=100)


class TestImpairments:
    def test_loss_drops_packets(self):
        network = SimulatedNetwork(seed=1, config=LinkConfig(loss_rate=0.5))
        a = network.bind("h", 1)
        b = network.bind("h", 2)
        for _ in range(200):
            a.send(b"x", b.address)
        network.run()
        delivered = len(b.receive_all())
        assert 50 < delivered < 150  # roughly half, seeded

    def test_duplication(self):
        network = SimulatedNetwork(seed=2, config=LinkConfig(duplicate_rate=0.99))
        a = network.bind("h", 1)
        b = network.bind("h", 2)
        a.send(b"x", b.address)
        network.run()
        assert len(b.receive_all()) == 2

    def test_determinism_with_same_seed(self):
        def run(seed):
            network = SimulatedNetwork(seed=seed, config=LinkConfig(loss_rate=0.3))
            a = network.bind("h", 1)
            b = network.bind("h", 2)
            for i in range(50):
                a.send(bytes([i]), b.address)
            network.run()
            return [d.payload for d in b.receive_all()]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_drop_next_kills_exactly_n_datagrams(self):
        # Deterministic imperative loss, independent of the link config.
        network = SimulatedNetwork()  # perfect link
        a = network.bind("h", 1)
        b = network.bind("h", 2)
        network.drop_next(2)
        for i in range(4):
            a.send(bytes([i]), b.address)
        network.run()
        assert [d.payload for d in b.receive_all()] == [b"\x02", b"\x03"]
        assert network.stats["lost"] == 2
        assert network.stats["sent"] == 4

    def test_drop_next_accumulates_and_rejects_negatives(self):
        network = SimulatedNetwork()
        a = network.bind("h", 1)
        b = network.bind("h", 2)
        network.drop_next()
        network.drop_next()  # repeated calls accumulate
        for i in range(3):
            a.send(bytes([i]), b.address)
        network.run()
        assert [d.payload for d in b.receive_all()] == [b"\x02"]
        with pytest.raises(ValueError):
            network.drop_next(-1)

    def test_jitter_can_reorder(self):
        network = SimulatedNetwork(seed=3, config=LinkConfig(latency=0.01, jitter=0.5))
        a = network.bind("h", 1)
        b = network.bind("h", 2)
        for i in range(30):
            a.send(bytes([i]), b.address)
        network.run()
        payloads = [d.payload for d in b.receive_all()]
        assert payloads != sorted(payloads)


class TestSnapshots:
    def _pair(self):
        network = SimulatedNetwork(seed=4, config=LinkConfig(jitter=0.01))
        return network, network.bind("h", 1), network.bind("h", 2)

    def test_restore_rewinds_counters_clock_and_rng(self):
        network, a, b = self._pair()
        a.send(b"one", b.address)
        network.run()
        b.receive_all()
        jitter, network.config = network.config, PERFECT_LINK  # only this link snapshots
        state = capture(network)
        network.config = jitter
        before = (dict(network.stats), network.clock.now, network._sequence)
        network.drop_next()
        for payload in (b"lost", b"two", b"three"):
            a.send(payload, b.address)
        network.run()
        later = ([d.payload for d in b.receive_all()], network.clock.now)
        restore(network, state)
        assert (dict(network.stats), network.clock.now, network._sequence) == before
        assert network._drop_next == 0
        network.drop_next()
        for payload in (b"lost", b"two", b"three"):
            a.send(payload, b.address)
        network.run()
        # Same jitter draws: same delivery order and the same final clock.
        assert ([d.payload for d in b.receive_all()], network.clock.now) == later

    def test_impaired_link_cannot_snapshot(self):
        network, _, _ = self._pair()
        assert capture(network) is None
        network.config = PERFECT_LINK
        assert capture(network) is not None

    def test_busy_network_cannot_snapshot(self):
        network, a, b = self._pair()
        network.config = PERFECT_LINK
        a.send(b"in flight", b.address)
        assert capture(network) is None
        network.run()
        assert capture(network) is None  # undrained inbox
        b.receive_all()
        assert capture(network) is not None

    def test_unimpaired_link_leaves_the_rng_undrawn(self):
        network = SimulatedNetwork(seed=4)
        a, b = network.bind("h", 1), network.bind("h", 2)
        state = capture(network)
        for i in range(5):
            a.send(bytes([i]), b.address)
        network.run()
        assert len(b.receive_all()) == 5
        rng = list(declared(SimulatedNetwork).state).index("_rng")
        assert capture(network)[rng] is state[rng]
        assert network.clock.now == 0.001  # latency, no jitter


class TestSnapshotRandom:
    def _draw(self, rng):
        return (rng.random(), rng.randrange(256), rng.randint(3, 9), rng.getrandbits(70),
                rng.choice("abc"), rng.randbytes(3), rng.gauss(), rng.gauss())

    def test_draws_match_random(self):
        assert self._draw(SnapshotRandom(7)) == self._draw(random.Random(7))

    def test_state_is_shared_until_drawn(self):
        rng = SnapshotRandom(7)
        state = rng.getstate()
        assert rng.getstate() is state
        first = self._draw(rng)
        assert rng.getstate() is not state
        rng.setstate(state)
        assert rng.getstate() is state
        assert self._draw(rng) == first
        rng.seed(7)
        assert rng.getstate() == state
        assert self._draw(rng) == first

    def test_gauss_spare_value_invalidates_the_state(self):
        rng = SnapshotRandom(3)
        rng.gauss()  # leaves a spare value behind
        state = rng.getstate()
        rng.gauss()  # consumes it without drawing
        assert rng.getstate() != state
        rng.setstate(state)
        reference = random.Random()
        reference.setstate(state)
        assert rng.gauss() == reference.gauss()

    def test_pickles(self):
        rng = SnapshotRandom(9)
        rng.random()
        copy = pickle.loads(pickle.dumps(rng))
        assert type(copy) is SnapshotRandom
        assert copy.getstate() == rng.getstate()
        assert copy.random() == rng.random()
