"""The HTTP/2 property suite (RFC 9113 framing rules).

The HTTP/2 counterpart of :mod:`repro.analysis.quic_properties`: RFC
-level rules packaged as :class:`~repro.analysis.property_api.Property`
checks and registered as the ``http2`` suite (covering ``http2`` and
``http2-buggy`` via the family stem).  The trace properties are the
response-framing and termination rules every conformant server satisfies
plus ``rst-after-response-tolerated``, the property that flags the
seeded :attr:`~repro.http2.server.HTTP2ServerConfig.rst_on_closed_bug`
quirk (section 5.1: RST_STREAM in the closed state MUST be ignored).

Stream-id monotonicity (section 5.1.1: a client's stream identifiers are
strictly increasing odd numbers) lives below the abstraction --
identifiers are ``?``-free in abstract symbols -- so it is an
oracle-kind property checked against the Oracle Table's concrete
parameters instead of the model.
"""

from __future__ import annotations

from ..core.oracle_table import OracleTable
from ..core.trace import IOTrace
from ..registry import register_properties
from .product import HOLDS, VIOLATED, monitor
from .property_api import Property


def _has_goaway(inp, out) -> bool:
    return "GOAWAY" in str(inp) or "GOAWAY" in str(out)


@monitor(initial=False)
def no_data_before_headers(state, inp, out):
    """A server never sends response DATA before response HEADERS --
    HTTP/2 responses start with a header block (RFC 9113 section 8.1).

    Once a response carried HEADERS the property holds for good.
    """
    text = str(out)
    data_at = text.find("DATA")
    if data_at != -1:
        headers_at = text.find("HEADERS")
        if headers_at == -1 or headers_at > data_at:
            return VIOLATED
    return HOLDS if "HEADERS" in text else state


@monitor(initial=False)
def goaway_is_terminal(closed, inp, out):
    """After the server sends GOAWAY it goes silent: no later response
    carries any frame (RFC 9113 section 6.8 connection shutdown).

    State: whether the server has sent GOAWAY.
    """
    if closed:
        return True if str(out) == "NIL" else VIOLATED
    return "GOAWAY" in str(out)


@monitor(initial=False)
def settings_always_acked(state, inp, out):
    """Every SETTINGS frame on a live connection is acknowledged
    (RFC 9113 section 6.5.3).

    Once either side sent GOAWAY the property holds for good.
    """
    if str(inp).startswith("SETTINGS") and "SETTINGS[ACK]" not in str(out):
        return VIOLATED
    return HOLDS if _has_goaway(inp, out) else state


@monitor(initial=False)
def rst_after_response_tolerated(response_seen, inp, out):
    """RST_STREAM arriving for an already-answered stream must be ignored,
    not escalated to GOAWAY (RFC 9113 section 5.1, closed state).

    A response was delivered when some earlier output carried DATA; the
    check skips positions where the connection already shut down.  The
    ``rst_on_closed_bug`` server violates this at depth 3.

    State: whether some response carried DATA.
    """
    if response_seen and str(inp).startswith("RST_STREAM"):
        if "GOAWAY" in str(out):
            return VIOLATED
    if _has_goaway(inp, out):
        return HOLDS
    return response_seen or "DATA" in str(out)


# ---------------------------------------------------------------------------
# Below-abstraction check: stream-id monotonicity over concrete params
# ---------------------------------------------------------------------------

def stream_id_violations(oracle_table: OracleTable) -> list[tuple[IOTrace, int]]:
    """Entries whose HEADERS-opening stream ids fail to strictly increase.

    RFC 9113 section 5.1.1: stream identifiers used by a client are odd
    and strictly increasing.  Stream ids never reach abstract symbols, so
    the check reads the Oracle Table's concrete input parameters: for each
    recorded query, the ``sid`` of every HEADERS frame that opened a new
    stream must be odd and larger than all ids opened before it.  Returns
    ``(abstract trace, offending step index)`` pairs; empty means the
    property holds over everything observed.
    """
    violations: list[tuple[IOTrace, int]] = []
    for entry in oracle_table:
        highest = 0
        for index, step in enumerate(entry.steps):
            if not str(step.input_symbol).startswith("HEADERS"):
                continue
            sid = step.input_params.get("sid", 0)
            if sid == highest:
                continue  # trailers on the currently open stream
            if sid < highest or sid % 2 == 0:
                violations.append((entry.abstract, index))
                break
            highest = sid
    return violations


def check_stream_id_monotonicity(oracle_table: OracleTable) -> bool:
    """True when every recorded query used odd, increasing stream ids."""
    return not stream_id_violations(oracle_table)


STANDARD_PROPERTIES: tuple[Property, ...] = (
    Property.trace(
        name="no-data-before-headers",
        description="response DATA only after response HEADERS",
        predicate=no_data_before_headers,
    ),
    Property.trace(
        name="goaway-terminal",
        description="no frames follow a server GOAWAY",
        predicate=goaway_is_terminal,
    ),
    Property.trace(
        name="settings-acked",
        description="SETTINGS on a live connection draws SETTINGS[ACK]",
        predicate=settings_always_acked,
    ),
    Property.trace(
        name="rst-after-response-tolerated",
        description="RST_STREAM on a closed stream is ignored, not GOAWAY",
        predicate=rst_after_response_tolerated,
    ),
    Property.oracle(
        name="stream-ids-monotonic",
        description="client stream ids are odd and strictly increasing",
        check=stream_id_violations,
    ),
)


@register_properties("http2")
def http2_properties() -> tuple[Property, ...]:
    """The registered ``http2`` suite (covers ``http2-buggy`` by stem)."""
    return STANDARD_PROPERTIES
