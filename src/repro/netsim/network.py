"""A simulated datagram network.

Implementations and reference clients exchange payloads through
:class:`SimulatedNetwork`, which models an unreliable UDP-like link: loss,
duplication, latency with jitter, and reordering, all driven by a seeded RNG
and a :class:`~repro.netsim.clock.VirtualClock` so every run is
deterministic.  The network never looks inside a payload: the QUIC and TCP
targets send sealed or checksummed ``bytes``, and the composed stream
transports of :mod:`repro.adapter.layered` send immutable packet values.

The network is event-driven but synchronous: callers enqueue datagrams and
then :meth:`SimulatedNetwork.run` delivers them in timestamp order, invoking
any handler attached to the destination endpoint.  Handlers may send more
datagrams, which are delivered in the same run -- enough to express complete
request/response protocol exchanges without threads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Tuple

from ..core.state import LIST, RNG, VALUE, fixed, fields, nested
from .clock import VirtualClock
from .rng import SnapshotRandom

Address = Tuple[str, int]
#: What a datagram carries: ``bytes`` on the QUIC and TCP targets, an
#: immutable value (a tuple of frames, say) on the composed transports.
Payload = Hashable


class NetworkError(RuntimeError):
    """Raised on binding conflicts or sends from unbound endpoints."""


@dataclass(frozen=True)
class Datagram:
    """One UDP-like datagram in flight or delivered.

    The network neither inspects nor copies ``payload`` (a duplicated
    datagram carries the same object), so a payload must be immutable.
    """

    payload: Payload
    source: Address
    destination: Address
    sent_at: float


@dataclass(order=True)
class _ScheduledDelivery:
    deliver_at: float
    sequence: int
    datagram: Datagram = field(compare=False)


@dataclass(frozen=True)
class LinkConfig:
    """Impairment parameters for the simulated link.

    ``loss_rate`` and ``duplicate_rate`` are probabilities per datagram;
    ``latency`` is the base one-way delay and ``jitter`` the maximum extra
    random delay (which is also what makes reordering possible).
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    latency: float = 0.001
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate out of range: {self.loss_rate}")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError(f"duplicate_rate out of range: {self.duplicate_rate}")
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be non-negative")


PERFECT_LINK = LinkConfig()

EPHEMERAL_PORT_START = 49152
EPHEMERAL_PORT_END = 65535


class Endpoint:
    """A bound network endpoint: an inbox plus a send method.

    An optional ``handler`` is invoked synchronously for each delivered
    datagram (server style); without one, datagrams queue in the inbox for
    explicit :meth:`receive` calls (client style).
    """

    __state__ = fields(inbox=LIST)
    __shared__ = "_network address handler closed"

    def __init__(self, network: "SimulatedNetwork", address: Address) -> None:
        self._network = network
        self.address = address
        self.inbox: list[Datagram] = []
        self.handler: Callable[[Datagram], None] | None = None
        self.closed = False

    def send(self, payload: Payload, destination: Address) -> None:
        """Enqueue a datagram to ``destination``."""
        if self.closed:
            raise NetworkError(f"send on closed endpoint {self.address}")
        self._network.send(self.address, destination, payload)

    def receive(self) -> Datagram | None:
        """Pop the oldest delivered datagram, or None if the inbox is empty."""
        if self.inbox:
            return self.inbox.pop(0)
        return None

    def receive_all(self) -> list[Datagram]:
        """Drain the inbox."""
        drained, self.inbox = self.inbox, []
        return drained

    def close(self) -> None:
        """Unbind from the network; the port becomes reusable."""
        if not self.closed:
            self._network._unbind(self)
            self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Endpoint({self.address}, inbox={len(self.inbox)})"


class SimulatedNetwork:
    """The shared medium connecting every endpoint in a simulation."""

    __state__ = fields("_sequence _drop_next", stats=fixed(VALUE), clock=nested(VirtualClock),
                       _queue=LIST, _endpoints=fixed(nested(Endpoint)), _rng=RNG)
    __shared__ = "config _next_ephemeral"

    def __init__(
        self,
        clock: VirtualClock | None = None,
        seed: int = 0,
        config: LinkConfig | Mapping[str, float] = PERFECT_LINK,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        # A JSON spec carries the link as a mapping of LinkConfig fields.
        self.config = config if isinstance(config, LinkConfig) else LinkConfig(**config)
        self._rng = SnapshotRandom(seed)
        self._endpoints: dict[Address, Endpoint] = {}
        self._queue: list[_ScheduledDelivery] = []
        self._sequence = 0
        self._next_ephemeral = EPHEMERAL_PORT_START
        self._drop_next = 0
        self.stats = {"sent": 0, "delivered": 0, "lost": 0, "duplicated": 0}

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, host: str, port: int | None = None) -> Endpoint:
        """Bind an endpoint; ``port=None`` picks a free ephemeral port."""
        if port is None:
            port = self._allocate_ephemeral(host)
        address = (host, port)
        if address in self._endpoints:
            raise NetworkError(f"address already bound: {address}")
        endpoint = Endpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def random_port_endpoint(self, host: str) -> Endpoint:
        """Bind to a *random* free ephemeral port.

        This models the QUIC-Tracker bug of section 6.2.5, where the retry
        token was re-sent from a brand-new UDP socket on a random port.
        """
        for _ in range(64):
            port = self._rng.randint(EPHEMERAL_PORT_START, EPHEMERAL_PORT_END)
            if (host, port) not in self._endpoints:
                return self.bind(host, port)
        raise NetworkError(f"no free ephemeral port on host {host!r}")

    def _allocate_ephemeral(self, host: str) -> int:
        for _ in range(EPHEMERAL_PORT_END - EPHEMERAL_PORT_START + 1):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_PORT_END:
                self._next_ephemeral = EPHEMERAL_PORT_START
            if (host, port) not in self._endpoints:
                return port
        raise NetworkError(f"ephemeral port range exhausted on host {host!r}")

    def _unbind(self, endpoint: Endpoint) -> None:
        self._endpoints.pop(endpoint.address, None)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def drop_next(self, count: int = 1) -> None:
        """Deterministically drop the next ``count`` datagrams sent.

        Unlike :attr:`LinkConfig.loss_rate` (probabilistic, RNG-driven)
        this is an imperative fault-injection hook: the next ``count``
        calls to :meth:`send` discard their datagram, regardless of link
        configuration.  Scenario probes use it to place a loss at an
        exact point in an exchange -- e.g. killing one QUIC packet of a
        two-request flight to show HTTP/3's lack of head-of-line
        blocking.
        """
        if count < 0:
            raise ValueError(f"drop count must be non-negative: {count}")
        self._drop_next += count

    def send(self, source: Address, destination: Address, payload: Payload) -> None:
        """Apply link impairments and schedule delivery."""
        self.stats["sent"] += 1
        if self._drop_next:
            self._drop_next -= 1
            self.stats["lost"] += 1
            return
        config = self.config
        # An unimpaired link leaves the RNG undrawn, so SUL snapshots share
        # its state.
        impaired = bool(config.loss_rate or config.duplicate_rate or config.jitter)
        if impaired and self._rng.random() < config.loss_rate:
            self.stats["lost"] += 1
            return
        copies = 1
        if impaired and self._rng.random() < config.duplicate_rate:
            copies = 2
            self.stats["duplicated"] += 1
        for _ in range(copies):
            delay = config.latency
            if impaired:
                delay += self._rng.random() * config.jitter
            datagram = Datagram(
                payload=payload,
                source=source,
                destination=destination,
                sent_at=self.clock.now,
            )
            self._sequence += 1
            heapq.heappush(
                self._queue,
                _ScheduledDelivery(self.clock.now + delay, self._sequence, datagram),
            )

    def step(self) -> bool:
        """Deliver the next scheduled datagram; False when nothing pending."""
        if not self._queue:
            return False
        scheduled = heapq.heappop(self._queue)
        self.clock.advance_to(scheduled.deliver_at)
        endpoint = self._endpoints.get(scheduled.datagram.destination)
        if endpoint is None or endpoint.closed:
            # Destination vanished -- datagram silently dropped, like UDP.
            self.stats["lost"] += 1
            return True
        self.stats["delivered"] += 1
        if endpoint.handler is not None:
            endpoint.handler(scheduled.datagram)
        else:
            endpoint.inbox.append(scheduled.datagram)
        return True

    def run(self, max_events: int = 100_000) -> int:
        """Deliver everything pending (including handler-triggered sends)."""
        delivered = 0
        while self.step():
            delivered += 1
            if delivered >= max_events:
                raise NetworkError(
                    f"network did not quiesce within {max_events} events; "
                    "likely a ping-pong loop between handlers"
                )
        return delivered

    @property
    def pending(self) -> int:
        """Datagrams scheduled but not yet delivered."""
        return len(self._queue)

    def _refuses_snapshot(self) -> bool:  # unless quiescent on an unimpaired link
        busy = self._queue or any(e.inbox for e in self._endpoints.values())
        return bool(busy) or self.config != PERFECT_LINK
