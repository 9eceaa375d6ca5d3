"""The HTTP/3-over-QUIC-streams SUL: the first *composed* target.

Unlike the three monolithic adapters before it, the HTTP/3 target is
declared with :func:`~repro.adapter.layered.compose`: a
:class:`~repro.adapter.layered.QuicStreamTransport` carries the streams,
and :class:`H3AppLayer` holds the protocol logic -- concretizing abstract
symbols through :class:`~repro.h3.H3Client`, serving them with
:class:`~repro.h3.H3Server`, and abstracting the per-stream responses
into :class:`~repro.core.alphabet.H3Output` multisets.

Registered targets:

* ``http3`` -- the conformant server;
* ``http3-buggy`` -- the seeded ``goaway_teardown_bug`` quirk (the
  server answers a client GOAWAY correctly but then tears the
  connection down instead of draining).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from ..core.alphabet import (
    AbstractSymbol,
    H3_EMPTY_OUTPUT,
    H3Output,
    H3Symbol,
    h3_alphabet,
)
from ..h3 import (
    H3Action,
    H3Client,
    H3ClientConfig,
    H3Server,
    H3ServerConfig,
)
from ..registry import SUL_REGISTRY
from .layered import (
    AppLayer,
    LayeredSUL,
    QuicStreamTransport,
    StreamEvent,
    Transport,
    compose,
)


def _action_to_event(action: H3Action) -> StreamEvent:
    if action.reset:
        return StreamEvent(
            stream_id=action.stream_id, kind="reset", error_code=action.error_code
        )
    return StreamEvent(
        stream_id=action.stream_id, kind="data", data=action.data, fin=action.fin
    )


class H3AppLayer(AppLayer):
    """HTTP/3 protocol logic riding any stream-capable transport."""

    name = "http3"

    def __init__(
        self,
        transport: Transport,
        seed: int = 8,
        server_config: H3ServerConfig | None = None,
        client_config: H3ClientConfig | None = None,
    ) -> None:
        self.alphabet = h3_alphabet()
        self.transport = transport
        self.server = H3Server(config=server_config, seed=seed + 1)
        self.client = H3Client(config=client_config, seed=seed + 2)
        transport.set_server(self._serve)

    # -- server side -----------------------------------------------------
    def _serve(self, event: StreamEvent) -> list[StreamEvent]:
        if event.kind == "reset":
            actions = self.server.handle_reset(event.stream_id, event.error_code)
        else:
            actions = self.server.handle_data(event.stream_id, event.data, event.fin)
        return [_action_to_event(action) for action in actions]

    # -- SUL protocol ----------------------------------------------------
    def reset(self) -> None:
        self.server.reset()
        self.client.reset()

    def step(self, symbol: AbstractSymbol):
        if not isinstance(symbol, H3Symbol):
            raise TypeError(f"HTTP/3 adapter got non-HTTP/3 symbol: {symbol}")
        actions, in_params = self.client.build(
            symbol.kind, getattr(symbol, "fin", False)
        )
        for action in actions:
            if action.reset:
                self.transport.reset_stream(action.stream_id, action.error_code)
            else:
                self.transport.send(action.stream_id, action.data, fin=action.fin)
        events = self.transport.exchange()
        output = self.abstract_events(events)
        out_params = {"err": self.server.last_error}
        return output, in_params, out_params

    def snapshot(self) -> tuple:
        return self.server.snapshot(), self.client.snapshot()

    def restore(self, state: tuple) -> None:
        server, client = state
        self.server.restore(server)
        self.client.restore(client)

    # -- abstraction -----------------------------------------------------
    def abstract_events(self, events: list[StreamEvent]) -> H3Output:
        """Render transport events as the per-stream frame multiset."""
        sequences: dict[int, list[H3Symbol]] = {}
        finished: set[int] = set()
        for event in events:
            sequence = sequences.setdefault(event.stream_id, [])
            if event.kind == "reset":
                sequence.append(H3Symbol.make("RST"))
                continue
            frames = self.client.decode_stream_data(event.stream_id, event.data)
            sequence.extend(H3Symbol.make(frame.kind) for frame in frames)
            if event.fin:
                finished.add(event.stream_id)
        streams = []
        for stream_id in sorted(sequences):
            sequence = sequences[stream_id]
            if not sequence:
                continue  # type-only or still-buffered partial data
            if stream_id in finished:
                sequence[-1] = H3Symbol.make(sequence[-1].kind, fin=True)
            streams.append(sequence)
        if not streams:
            return H3_EMPTY_OUTPUT
        return H3Output.make(streams)


def build_h3_app(
    transport: Transport,
    seed: int = 8,
    goaway_teardown_bug: bool = False,
    server_config: H3ServerConfig | Mapping | None = None,
) -> H3AppLayer:
    """The HTTP/3 app layer for :func:`compose`.

    ``server_config`` accepts an :class:`H3ServerConfig` or a plain dict
    of its fields (JSON specs); ``goaway_teardown_bug`` toggles the
    seeded quirk without spelling out a config.
    """
    if isinstance(server_config, Mapping):
        server_config = H3ServerConfig(**server_config)
    if server_config is None:
        server_config = H3ServerConfig(goaway_teardown_bug=goaway_teardown_bug)
    elif goaway_teardown_bug:
        server_config = replace(server_config, goaway_teardown_bug=True)
    return H3AppLayer(transport, seed=seed, server_config=server_config)


#: ``http3``: H3 app composed over QUIC-style independent streams.
build_http3_sul = compose(QuicStreamTransport, build_h3_app, name="http3")
SUL_REGISTRY.register("http3", build_http3_sul)


@SUL_REGISTRY.register("http3-buggy")
def build_http3_buggy_sul(**params) -> LayeredSUL:
    """The HTTP/3 target with the seeded GOAWAY-teardown bug."""
    return build_http3_sul(goaway_teardown_bug=True, **params)
