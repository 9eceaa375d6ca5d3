"""The TCP property suite (paper section 6.1, RFC 793 / RFC 5961).

TCP was Prognosis's validation workload; this suite states the
behaviours the paper's section-6.1 model exhibits as checkable
:class:`~repro.analysis.property_api.Property` entries, registered as
the ``tcp`` suite (covering ``tcp``, ``tcp-handshake`` and
``tcp-no-challenge-ack`` via the family stem):

* ``challenge-ack-rate-limited`` -- the RFC 5961 mitigation Linux ships:
  an in-window SYN on an established connection draws a challenge ACK,
  but an immediate second SYN is silently dropped (the rate limiter has
  no credit left).  The ``tcp-no-challenge-ack`` ablation answers every
  SYN, so this property *distinguishes the two stacks* -- the
  model-level observable of the challenge-ACK rate limit.
* ``rst-terminal`` -- once the connection is synchronized (the server
  sent SYN+ACK), a client RST kills it: nothing but silence follows.
* ``data-needs-handshake`` -- the server never acknowledges payload
  before completing the handshake; data on an unsynchronized connection
  draws a reset, not an ACK.
"""

from __future__ import annotations

from ..registry import register_properties
from .product import HOLDS, VIOLATED, monitor
from .property_api import Property


def _is_syn(symbol) -> bool:
    return str(symbol) == "SYN(?,?,0)"


def _is_plain_ack(symbol) -> bool:
    return str(symbol) == "ACK(?,?,0)"


def _is_nil(symbol) -> bool:
    return str(symbol) == "NIL"


@monitor(initial=(False, False))
def challenge_ack_is_rate_limited(state, inp, out):
    """A challenge ACK consumes the credit: the very next SYN is dropped.

    RFC 5961 section 4.2 with Linux's ``tcp_challenge_ack_limit``
    behaviour: on an established (pre-FIN) connection, a SYN answered
    with a plain ACK (the challenge) leaves no credit, so a SYN on the
    next step must draw silence.  Receiving data replenishes the credit,
    which is why only *consecutive* SYNs are constrained.  Once a FIN
    crossed the wire (either direction) the close sequence has started
    and challenge ACKs are unthrottled.

    State: (challenge ACK on the previous step, FIN seen).
    """
    challenged, fin_seen = state
    if challenged and _is_syn(inp) and not _is_nil(out):
        return VIOLATED
    if fin_seen:
        return HOLDS  # the limiter is off duty for good
    challenge = _is_syn(inp) and _is_plain_ack(out)
    return challenge, "FIN" in str(inp) or "FIN" in str(out)


@monitor(initial=False)
def rst_is_terminal(synchronized, inp, out):
    """A client RST on a synchronized connection is final: only silence
    follows (RFC 793: a reset destroys the connection).

    Pre-handshake RSTs are out of scope -- a listener ignores them and
    must still accept a later SYN -- so the check arms once the server
    has sent its SYN+ACK.

    State: whether the server has sent SYN+ACK, then ``"reset"``.
    """
    if synchronized == "reset":
        return "reset" if _is_nil(out) else VIOLATED
    synchronized = synchronized or "SYN" in str(out)
    if synchronized and "RST" in str(inp):
        return "reset" if _is_nil(out) else VIOLATED
    return synchronized


@monitor(initial=False)
def data_needs_handshake(syn_ack_sent, inp, out):
    """The server never ACKs payload before the handshake completed.

    A data segment hitting a listener is answered with a reset (or
    dropped), never acknowledged: an ACK of data implies the server sent
    SYN+ACK earlier in the trace.

    State: whether the server has sent SYN+ACK.
    """
    if "SYN" in str(out):
        return HOLDS
    if str(inp).endswith(",1)") and _is_plain_ack(out):
        return VIOLATED
    return False


TCP_PROPERTIES: tuple[Property, ...] = (
    Property.trace(
        name="challenge-ack-rate-limited",
        description="a second consecutive in-window SYN is silently dropped",
        predicate=challenge_ack_is_rate_limited,
    ),
    Property.trace(
        name="rst-terminal",
        description="a client RST on a synchronized connection is final",
        predicate=rst_is_terminal,
    ),
    Property.trace(
        name="data-needs-handshake",
        description="payload is never ACKed before the handshake completes",
        predicate=data_needs_handshake,
    ),
)


@register_properties("tcp")
def tcp_properties() -> tuple[Property, ...]:
    """The registered ``tcp`` suite (covers every ``tcp-*`` target)."""
    return TCP_PROPERTIES
