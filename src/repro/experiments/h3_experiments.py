"""HTTP/3 experiment drivers: the fourth closed-box workload.

HTTP/3 is the first target expressed with the layered-adapter API: the
same :class:`~repro.h3.server.H3Server` logic rides
:class:`~repro.adapter.layered.QuicStreamTransport` via
:func:`~repro.adapter.layered.compose`, and everything above the adapter
(learner, oracles, executors, store) is untouched -- the paper's
protocol-agnosticism claim exercised one layer deeper, on a protocol
that is itself defined as riding another protocol's streams.

The conformant server learns as a 10-state machine (control-stream
setup, request-open/trailer tracking, GOAWAY drain, and the error
states); seeding the :attr:`~repro.h3.server.H3ServerConfig
.goaway_teardown_bug` tears connections down instead of draining, which
collapses the drain-side states and yields 7.

The scenario probes exercise what only the QUIC substrate can do:
independent request streams under deterministic loss (no head-of-line
blocking, contrasted against HTTP/2 over the reliable pipe),
connection-ID routed address migration, and 0-RTT session resumption.
"""

from __future__ import annotations

from ..spec import ComponentSpec, ExperimentSpec
from .base import Experiment

#: The conformant server's learned model (see module docstring).
EXPECTED_H3_STATES = 10
EXPECTED_H3_TRANSITIONS = 70
#: The ``goaway_teardown_bug`` server's model: the drain states collapse.
EXPECTED_H3_BUGGY_STATES = 7


def learn_http3(
    seed: int = 8,
    learner: str = "ttt",
    extra_states: int = 1,
    workers: int = 1,
    goaway_teardown_bug: bool = False,
) -> Experiment:
    """Learn the in-process HTTP/3 server over the 7-symbol frame alphabet.

    ``goaway_teardown_bug`` seeds the RFC 9114 section 5.2 violation
    (connection torn down instead of drained after a client GOAWAY);
    ``workers > 1`` fans membership-query batches across a pool of
    identically-seeded composed stacks (same model, parallel execution).
    """
    target_params: dict = {"seed": seed}
    if goaway_teardown_bug:
        target_params["goaway_teardown_bug"] = True
    return Experiment.run(
        ExperimentSpec(
            target="http3",
            target_params=target_params,
            learner=learner,
            equivalence=[ComponentSpec("wmethod", {"extra_states": extra_states})],
            workers=workers,
            name="http3-buggy" if goaway_teardown_bug else "http3",
        )
    )


def run_http3_request(model) -> list[tuple[str, str]]:
    """Drive a learned model through SETTINGS setup + one full request."""
    from ..core.alphabet import parse_h3_symbol

    settings = parse_h3_symbol("SETTINGS")
    request = parse_h3_symbol("HEADERS[FIN]")
    outputs = model.run((settings, request))
    return [
        (str(settings), str(outputs[0])),
        (str(request), str(outputs[1])),
    ]


# ---------------------------------------------------------------------------
# Scenario probes: what only the QUIC substrate can do
# ---------------------------------------------------------------------------

def _queue_two_h3_requests(sul) -> None:
    """Queue two independent HEADERS[FIN] requests without exchanging."""
    for _ in range(2):
        actions, _ = sul.client.build("HEADERS", True)
        for action in actions:
            sul.transport.send(action.stream_id, action.data, fin=action.fin)


def hol_blocking_probe(seed: int = 8) -> dict:
    """Head-of-line blocking: HTTP/3 vs HTTP/2 under one dropped datagram.

    Both stacks pipeline two requests into a single two-datagram flight
    and lose the *first* datagram (:meth:`~repro.netsim.network
    .SimulatedNetwork.drop_next`).  Over QUIC streams each request rides
    its own packet, so the surviving second request is answered in the
    same exchange -- loss on one stream never stalls another.  Over the
    reliable byte pipe the surviving segment sits behind the gap until
    retransmission: in-order delivery answers *neither* request in the
    first exchange.  Both recover fully on the next exchange.

    Returns first-exchange and post-recovery answered-request counts for
    each stack.
    """
    from ..core.alphabet import parse_h3_symbol
    from ..http2.frames import FrameType
    from ..registry import SUL_REGISTRY, load_builtins

    load_builtins()
    result: dict = {}

    # -- HTTP/3 over independent QUIC streams ---------------------------
    h3 = SUL_REGISTRY.create("http3", seed=seed)
    try:
        h3.transport.reset()
        h3.app.reset()
        h3.app.step(parse_h3_symbol("SETTINGS"))  # configure the connection
        _queue_two_h3_requests(h3)
        h3.transport.network.drop_next(1)  # kill the first request's packet
        first = {
            e.stream_id
            for e in h3.transport.exchange()
            if e.kind == "data" and e.stream_id % 4 == 0
        }
        recovered = {
            e.stream_id
            for e in h3.transport.exchange()  # retransmits the lost packet
            if e.kind == "data" and e.stream_id % 4 == 0
        }
        result["h3_first_exchange_answered"] = len(first)
        result["h3_after_recovery_answered"] = len(first | recovered)
    finally:
        h3.close()

    # -- HTTP/2 over the reliable ordered pipe --------------------------
    h2 = SUL_REGISTRY.create("http2", seed=seed)
    try:
        h2.transport.reset()
        h2.app.reset()
        h2.client.exchange("SETTINGS")  # connection preface + handshake
        for _ in range(2):
            frame = h2.client.build_frame(
                "HEADERS", ("END_HEADERS", "END_STREAM")
            )
            h2.client._note_sent(frame)
            h2.transport.send(0, frame.encode())
        h2.transport.network.drop_next(1)  # kill the first request's segment

        def answered(events) -> int:
            responses = []
            for event in events:
                responses.extend(h2.client._frames.feed(event.data))
            return sum(
                1 for f in responses if f.frame_type == FrameType.HEADERS
            )

        first_count = answered(h2.transport.exchange(max_rounds=1))
        recovered_count = answered(h2.transport.exchange())
        result["h2_first_exchange_answered"] = first_count
        result["h2_after_recovery_answered"] = first_count + recovered_count
    finally:
        h2.close()
    return result


def migration_probe(seed: int = 8) -> dict:
    """Connection-ID routed migration: requests survive an address change.

    The client completes one request, rebinds to a brand-new UDP port
    mid-session (:meth:`~repro.adapter.layered.QuicStreamTransport
    .migrate`), and issues a second request.  Because the server routes
    on the connection ID and replies to each datagram's source address,
    the second request is answered identically -- no new handshake.
    """
    from ..core.alphabet import parse_h3_symbol
    from ..registry import SUL_REGISTRY, load_builtins

    load_builtins()
    sul = SUL_REGISTRY.create("http3", seed=seed)
    try:
        sul.transport.reset()
        sul.app.reset()
        sul.app.step(parse_h3_symbol("SETTINGS"))
        request = parse_h3_symbol("HEADERS[FIN]")
        before, _, _ = sul.app.step(request)
        port_before = sul.transport._endpoint.address[1]
        sul.transport.migrate()
        port_after = sul.transport._endpoint.address[1]
        after, _, _ = sul.app.step(request)
        return {
            "response_before": str(before),
            "response_after": str(after),
            "answered_after_migration": str(after) == str(before) != "{}",
            "port_changed": port_after != port_before,
            "migrations": sul.transport.stats["migrations"],
            "handshake_rounds": sul.transport.stats["handshake_rounds"],
        }
    finally:
        sul.close()


def resumption_probe(seed: int = 8) -> dict:
    """0-RTT session resumption: the second connection skips the handshake.

    With ``resumption=True`` the transport keeps the NEW_TOKEN session
    ticket across :meth:`reset`.  The first connection pays the CRYPTO
    handshake round; the second sends the ticket alongside early
    application data in its very first flight, so the request round *is*
    the connection's first round.
    """
    from ..core.alphabet import parse_h3_symbol
    from ..registry import SUL_REGISTRY, load_builtins

    load_builtins()
    sul = SUL_REGISTRY.create("http3", seed=seed, resumption=True)
    try:
        settings = parse_h3_symbol("SETTINGS")
        request = parse_h3_symbol("HEADERS[FIN]")

        def one_connection() -> tuple[str, int]:
            sul.transport.reset()
            sul.app.reset()
            sul.app.step(settings)
            output, _, _ = sul.app.step(request)
            return str(output), sul.transport.last_connection_rounds

        first_response, first_rounds = one_connection()
        second_response, second_rounds = one_connection()
        return {
            "first_response": first_response,
            "second_response": second_response,
            "first_connection_rounds": first_rounds,
            "second_connection_rounds": second_rounds,
            "zero_rtt": second_rounds < first_rounds,
            "handshake_rounds": sul.transport.stats["handshake_rounds"],
        }
    finally:
        sul.close()
