"""The QUIC property suite (paper section 6.2.2).

The paper checks learned models against "a subset of the properties from
IETF's Draft 29", e.g. *an endpoint must not send data on a stream at or
beyond the final size* and handshake-ordering rules.  This module
packages the checkable subset as :class:`~repro.analysis.property_api
.Property` trace monitors and registers them as the ``quic`` suite, so
``repro properties quic-google`` and property campaigns discover them by
target name.

The suite deliberately includes one *design probe* (close-frame
bundling, tagged :data:`~repro.analysis.property_api.TAG_PROBE`): it
differs by design decision between implementations, illustrating the
paper's point that a difference is "not necessarily a bug, it can also
signal different design decisions".
"""

from __future__ import annotations

from ..registry import register_properties
from .product import HOLDS, VIOLATED, monitor
from .property_api import Property


@monitor(initial=False)
def handshake_done_only_after_finished(finished, inp, out):
    """The server may signal HANDSHAKE_DONE only after the client's
    Finished (a HANDSHAKE[ACK,CRYPTO] input) -- RFC 9001 section 4.1.2.

    State: whether the client's Finished was sent; the first
    HANDSHAKE_DONE settles the verdict.
    """
    finished = finished or "HANDSHAKE(?,?)[ACK,CRYPTO]" in str(inp)
    if "HANDSHAKE_DONE" in str(out):
        return HOLDS if finished else VIOLATED
    return finished


@monitor(initial=False)
def no_server_flight_without_hello(hello, inp, out):
    """CRYPTO responses require a ClientHello first (INITIAL[CRYPTO]).

    State: whether the ClientHello was sent; the first CRYPTO response
    settles the verdict.
    """
    hello = hello or "INITIAL(?,?)[CRYPTO]" in str(inp)
    if "[ACK,CRYPTO]" in str(out):
        return HOLDS if hello else VIOLATED
    return hello


@monitor(initial=False)
def close_is_terminal_for_data(closed, inp, out):
    """After the server closes, it never starts *new* application data.

    Close retransmissions may still bundle the close frame itself; this
    property flags outputs that carry STREAM data *without* the close.

    State: whether the server has sent CONNECTION_CLOSE.
    """
    output = str(out)
    if closed:
        if "STREAM" in output and "CONNECTION_CLOSE" not in output:
            return VIOLATED
        return closed
    return "CONNECTION_CLOSE" in output


#: The client sent HANDSHAKE_DONE and no close has answered it (yet).
_UNANSWERED = "unanswered"


@monitor(initial=False, ok=lambda state: state != _UNANSWERED)
def client_done_draws_close(handshake_done, inp, out):
    """A client-sent HANDSHAKE_DONE after the handshake must be answered
    with a connection error (it is a server-only frame, RFC 9000 19.20).

    Only 1-RTT (SHORT) packets are held to this: Initial/Handshake-space
    packets may legitimately be dropped once their keys are discarded.
    The handshake is complete when the *server* signalled HANDSHAKE_DONE;
    the first client HANDSHAKE_DONE after that is answered when a
    CONNECTION_CLOSE appears anywhere in the trace -- before it (the
    connection was already closed, so silence is fine), with it, or any
    time later.

    State: whether the server sent HANDSHAKE_DONE, then unanswered.
    """
    if "CONNECTION_CLOSE" in str(out):
        return HOLDS
    if handshake_done == _UNANSWERED:
        return handshake_done
    text = str(inp)
    if handshake_done and text.startswith("SHORT") and "HANDSHAKE_DONE]" in text:
        return _UNANSWERED
    return handshake_done or "HANDSHAKE_DONE" in str(out)


@monitor(initial=False)
def single_packet_close(state, inp, out):
    """Design-decision probe: closes are single packets (Quiche style).

    Google bundles closes across encryption levels, so this property holds
    for the Quiche-like model and fails for the Google-like one -- a
    difference, not a bug.
    """
    text = str(out)
    if "CONNECTION_CLOSE" in text and text.count("],") >= 1:
        return VIOLATED
    return state


STANDARD_PROPERTIES: tuple[Property, ...] = (
    Property.trace(
        name="handshake-done-after-finished",
        description="HANDSHAKE_DONE only after the client's Finished",
        predicate=handshake_done_only_after_finished,
    ),
    Property.trace(
        name="no-flight-without-hello",
        description="server CRYPTO flights require a ClientHello",
        predicate=no_server_flight_without_hello,
    ),
    Property.trace(
        name="close-terminal-for-data",
        description="no fresh stream data after CONNECTION_CLOSE",
        predicate=close_is_terminal_for_data,
    ),
    Property.trace(
        name="client-done-draws-close",
        description="client-sent HANDSHAKE_DONE is a protocol violation",
        predicate=client_done_draws_close,
    ),
)

DESIGN_PROBES: tuple[Property, ...] = (
    Property.trace(
        name="single-packet-close",
        description="closes are single packets (differs by implementation)",
        predicate=single_packet_close,
        tags=("probe",),
    ),
)


@register_properties("quic")
def quic_properties() -> tuple[Property, ...]:
    """The registered ``quic`` suite: standard checks plus the probe."""
    return STANDARD_PROPERTIES + DESIGN_PROBES
