"""The HTTP/3 property suite (RFC 9114 framing and shutdown rules).

Registered as the ``http3`` suite (covering ``http3`` and
``http3-buggy`` via the family stem).  The headline check is
``goaway-drain-rejects-new``: RFC 9114 section 5.2 requires a server
that acknowledged a client's GOAWAY to keep *answering* -- rejecting new
requests with H3_REQUEST_REJECTED resets so the client can retry them
elsewhere.  The seeded
:attr:`~repro.h3.server.H3ServerConfig.goaway_teardown_bug` server sends
the same GOAWAY but then tears the connection down, so new requests
disappear into silence -- exactly what this property flags.

Request-stream-id monotonicity (RFC 9000 section 2.1: client
bidirectional streams are 0, 4, 8, ... in order of creation) lives below
the abstraction and is checked against the Oracle Table's concrete
parameters, like the HTTP/2 stream-id check.
"""

from __future__ import annotations

from ..core.oracle_table import OracleTable
from ..core.trace import IOTrace
from ..registry import register_properties
from .product import HOLDS, VIOLATED, monitor
from .property_api import Property


def _output_streams(output: object) -> list[list[str]]:
    """Split a rendered H3 output ``{HEADERS+DATA[FIN],RST}`` into
    per-stream frame-kind sequences (FIN markers stripped)."""
    text = str(output).strip()
    if not (text.startswith("{") and text.endswith("}")):
        return []
    body = text[1:-1]
    if not body:
        return []
    return [
        [frame.replace("[FIN]", "") for frame in item.split("+")]
        for item in body.split(",")
    ]


@monitor(initial=False)
def data_after_headers_per_stream(state, inp, out):
    """Within each response stream, DATA never precedes HEADERS -- an
    HTTP/3 response starts with a header section (RFC 9114 section 4.1).

    Each response is judged on its own; the state never changes.
    """
    for stream in _output_streams(out):
        if "DATA" in stream and "HEADERS" in stream:
            if stream.index("DATA") < stream.index("HEADERS"):
                return VIOLATED
        elif "DATA" in stream:
            return VIOLATED  # DATA with no HEADERS at all
    return state


@monitor(initial=False)
def settings_draws_settings(goaway_seen, inp, out):
    """The first client SETTINGS on a live connection opens the server's
    control stream, whose first frame is its own SETTINGS (section 6.2.1).

    State: whether some response carried GOAWAY (the connection already
    erred or drained, so the first SETTINGS is exempt).
    """
    if str(inp) == "SETTINGS":
        return HOLDS if goaway_seen or "SETTINGS" in str(out) else VIOLATED
    return goaway_seen or "GOAWAY" in str(out)


@monitor(initial=False)
def second_settings_is_error(settings_seen, inp, out):
    """A second SETTINGS frame on the control stream is a connection
    error (H3_FRAME_UNEXPECTED, section 7.2.4): the server must answer
    with GOAWAY, not ignore it.

    State: whether the client sent SETTINGS; a response carrying GOAWAY
    ends the check.
    """
    if str(inp) == "SETTINGS":
        if settings_seen:
            return HOLDS if "GOAWAY" in str(out) else VIOLATED
        settings_seen = True
    return HOLDS if "GOAWAY" in str(out) else settings_seen


@monitor(initial=(False, False, False))
def goaway_drain_rejects_new(state, inp, out):
    """After a graceful shutdown handshake the server must still answer.

    Section 5.2: once the server has responded to the client's GOAWAY it
    drains -- completing open requests and *rejecting* new ones with a
    reset -- rather than going silent.  A post-drain HEADERS that opens a
    *new* request stream must therefore draw a non-empty response
    (``{RST}``); trailers continuing a pre-drain stream may legitimately
    stay silent until their FIN, so the monitor mirrors the client's
    deterministic stream targeting to tell the two apart.  The
    ``goaway_teardown_bug`` server violates this at depth 3:
    ``SETTINGS, GOAWAY, HEADERS[FIN]`` answers ``{}`` instead of
    ``{RST}``.

    State: (drained, configured, a request stream is open).
    """
    drained, configured, open_request = state
    text = str(inp)
    output = str(out)
    if text == "GOAWAY" and "GOAWAY" in output and configured:
        # Only a GOAWAY on a *configured* connection starts a drain;
        # GOAWAY-before-SETTINGS is the H3_MISSING_SETTINGS error.
        drained = True
    elif drained:
        if text.startswith("HEADERS") and not open_request and output == "{}":
            return VIOLATED
        if "GOAWAY" in output:
            # A post-drain *connection error* (e.g. a second SETTINGS):
            # the connection is closed outright now, so subsequent
            # silence is legitimate.
            return HOLDS
    # Mirror the client's stream targeting: HEADERS/DATA without FIN
    # leave a request stream open, FIN or CANCEL close it.
    if text == "SETTINGS":
        configured = True
    elif text.startswith(("HEADERS", "DATA")):
        open_request = "[FIN]" not in text
    elif text == "CANCEL":
        open_request = False
    return drained, configured, open_request


# ---------------------------------------------------------------------------
# Below-abstraction check: request-stream-id discipline over concrete params
# ---------------------------------------------------------------------------

def request_stream_id_violations(
    oracle_table: OracleTable,
) -> list[tuple[IOTrace, int]]:
    """Entries whose request-stream ids break the QUIC numbering rules.

    RFC 9000 section 2.1: client-initiated bidirectional streams carry
    ids ``0, 4, 8, ...`` and are created in increasing order.  For each
    recorded query, every request-frame input (HEADERS/DATA/CANCEL) must
    target either an already-used stream (trailers, body, cancellation)
    or a fresh id that is a multiple of 4 and larger than every id used
    before.  Returns ``(abstract trace, offending step index)`` pairs.
    """
    violations: list[tuple[IOTrace, int]] = []
    for entry in oracle_table:
        seen: set[int] = set()
        highest = -4
        for index, step in enumerate(entry.steps):
            kind = str(step.input_symbol)
            if not kind.startswith(("HEADERS", "DATA", "CANCEL")):
                continue
            sid = step.input_params.get("sid", 0)
            if sid in seen:
                continue  # the still-open request stream
            if sid % 4 != 0 or sid <= highest:
                violations.append((entry.abstract, index))
                break
            highest = sid
            seen.add(sid)
    return violations


def check_request_stream_ids(oracle_table: OracleTable) -> bool:
    """True when every recorded query used well-ordered request streams."""
    return not request_stream_id_violations(oracle_table)


STANDARD_PROPERTIES: tuple[Property, ...] = (
    Property.trace(
        name="data-after-headers-per-stream",
        description="response DATA only after HEADERS on each stream",
        predicate=data_after_headers_per_stream,
    ),
    Property.trace(
        name="settings-draws-settings",
        description="client SETTINGS opens the server control stream",
        predicate=settings_draws_settings,
    ),
    Property.trace(
        name="second-settings-errors",
        description="a second SETTINGS is a connection error (GOAWAY)",
        predicate=second_settings_is_error,
    ),
    Property.trace(
        name="goaway-drain-rejects-new",
        description="post-GOAWAY requests are rejected, not ignored",
        predicate=goaway_drain_rejects_new,
    ),
    Property.oracle(
        name="request-stream-ids-ordered",
        description="request streams are 0,4,8,... in creation order",
        check=request_stream_id_violations,
    ),
)


@register_properties("http3")
def h3_properties() -> tuple[Property, ...]:
    """The registered ``http3`` suite (covers ``http3-buggy`` by stem)."""
    return STANDARD_PROPERTIES
