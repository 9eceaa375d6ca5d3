"""The trace predicates the protocol suites shipped before they became
monitors, kept verbatim as slow references.

``tests/test_analysis_product.py`` checks every suite monitor against
the predicate of the same name here, on random traces over the target's
real labels.  Each predicate re-reads the whole trace, which is what
made checking them on every model trace expensive.
"""

from __future__ import annotations

from repro.core.trace import IOTrace


# --- tcp --------------------------------------------------


def _is_syn(symbol) -> bool:
    return str(symbol) == "SYN(?,?,0)"


def _is_plain_ack(symbol) -> bool:
    return str(symbol) == "ACK(?,?,0)"


def _is_nil(symbol) -> bool:
    return str(symbol) == "NIL"


def _fin_seen(trace: IOTrace, upto: int) -> bool:
    """True when a FIN crossed the wire (either direction) before ``upto``.

    The rate limiter only guards ESTABLISHED; once the close sequence
    starts (LAST_ACK and friends), challenge ACKs are unthrottled.
    """
    return any(
        "FIN" in str(trace.inputs[i]) or "FIN" in str(trace.outputs[i])
        for i in range(upto)
    )


def challenge_ack_is_rate_limited(trace: IOTrace) -> bool:
    """A challenge ACK consumes the credit: the very next SYN is dropped.

    RFC 5961 section 4.2 with Linux's ``tcp_challenge_ack_limit``
    behaviour: on an established (pre-FIN) connection, a SYN answered
    with a plain ACK (the challenge) leaves no credit, so a SYN on the
    next step must draw silence.  Receiving data replenishes the credit,
    which is why only *consecutive* SYNs are constrained.
    """
    for i in range(len(trace) - 1):
        if not (_is_syn(trace.inputs[i]) and _is_plain_ack(trace.outputs[i])):
            continue
        if _fin_seen(trace, i):
            continue  # close sequence started; the limiter is off duty
        if _is_syn(trace.inputs[i + 1]) and not _is_nil(trace.outputs[i + 1]):
            return False
    return True


def rst_is_terminal(trace: IOTrace) -> bool:
    """A client RST on a synchronized connection is final: only silence
    follows (RFC 793: a reset destroys the connection).

    Pre-handshake RSTs are out of scope -- a listener ignores them and
    must still accept a later SYN -- so the check arms once the server
    has sent its SYN+ACK.
    """
    synchronized = False
    for i in range(len(trace)):
        if "SYN" in str(trace.outputs[i]):
            synchronized = True
        if synchronized and "RST" in str(trace.inputs[i]):
            return all(_is_nil(o) for o in trace.outputs[i:])
    return True


def data_needs_handshake(trace: IOTrace) -> bool:
    """The server never ACKs payload before the handshake completed.

    A data segment hitting a listener is answered with a reset (or
    dropped), never acknowledged: an ACK of data implies the server sent
    SYN+ACK earlier in the trace.
    """
    syn_ack_sent = False
    for i in range(len(trace)):
        if "SYN" in str(trace.outputs[i]):
            syn_ack_sent = True
        carries_payload = str(trace.inputs[i]).endswith(",1)")
        if carries_payload and not syn_ack_sent:
            if _is_plain_ack(trace.outputs[i]):
                return False
    return True


# --- http2 --------------------------------------------------


def _goaway_before(trace: IOTrace, index: int) -> bool:
    """True if the connection was shut down before step ``index``."""
    return any(
        "GOAWAY" in str(trace.inputs[i]) or "GOAWAY" in str(trace.outputs[i])
        for i in range(index)
    )


def no_data_before_headers(trace: IOTrace) -> bool:
    """A server never sends response DATA before response HEADERS --
    HTTP/2 responses start with a header block (RFC 9113 section 8.1)."""
    seen_headers = False
    for output in trace.outputs:
        text = str(output)
        data_at = text.find("DATA")
        if data_at != -1 and not seen_headers:
            headers_at = text.find("HEADERS")
            if headers_at == -1 or headers_at > data_at:
                return False
        if "HEADERS" in text:
            seen_headers = True
    return True


def goaway_is_terminal(trace: IOTrace) -> bool:
    """After the server sends GOAWAY it goes silent: no later response
    carries any frame (RFC 9113 section 6.8 connection shutdown)."""
    for i, output in enumerate(trace.outputs):
        if "GOAWAY" in str(output):
            return all(str(o) == "NIL" for o in trace.outputs[i + 1 :])
    return True


def settings_always_acked(trace: IOTrace) -> bool:
    """Every SETTINGS frame on a live connection is acknowledged
    (RFC 9113 section 6.5.3)."""
    for i, symbol in enumerate(trace.inputs):
        if str(symbol).startswith("SETTINGS") and not _goaway_before(trace, i):
            if "SETTINGS[ACK]" not in str(trace.outputs[i]):
                return False
    return True


def rst_after_response_tolerated(trace: IOTrace) -> bool:
    """RST_STREAM arriving for an already-answered stream must be ignored,
    not escalated to GOAWAY (RFC 9113 section 5.1, closed state).

    A response was delivered when some earlier output carried DATA; the
    check skips positions where the connection already shut down.  The
    ``rst_on_closed_bug`` server violates this at depth 3.
    """
    for i, symbol in enumerate(trace.inputs):
        if not str(symbol).startswith("RST_STREAM"):
            continue
        response_seen = any("DATA" in str(o) for o in trace.outputs[:i])
        if response_seen and not _goaway_before(trace, i):
            if "GOAWAY" in str(trace.outputs[i]):
                return False
    return True


# --- h3 --------------------------------------------------


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


def _server_goaway_before(trace: IOTrace, index: int) -> bool:
    """True when some response before step ``index`` carried GOAWAY."""
    return any("GOAWAY" in str(trace.outputs[i]) for i in range(index))


def data_after_headers_per_stream(trace: IOTrace) -> bool:
    """Within each response stream, DATA never precedes HEADERS -- an
    HTTP/3 response starts with a header section (RFC 9114 section 4.1)."""
    for output in trace.outputs:
        for stream in _output_streams(output):
            if "DATA" in stream and "HEADERS" in stream:
                if stream.index("DATA") < stream.index("HEADERS"):
                    return False
            elif "DATA" in stream:
                return False  # DATA with no HEADERS at all
    return True


def settings_draws_settings(trace: IOTrace) -> bool:
    """The first client SETTINGS on a live connection opens the server's
    control stream, whose first frame is its own SETTINGS (section 6.2.1)."""
    for i, symbol in enumerate(trace.inputs):
        if str(symbol) == "SETTINGS":
            if _server_goaway_before(trace, i):
                return True  # connection already erred or drained
            return "SETTINGS" in str(trace.outputs[i])
    return True


def second_settings_is_error(trace: IOTrace) -> bool:
    """A second SETTINGS frame on the control stream is a connection
    error (H3_FRAME_UNEXPECTED, section 7.2.4): the server must answer
    with GOAWAY, not ignore it."""
    seen_settings = False
    for i, symbol in enumerate(trace.inputs):
        if str(symbol) != "SETTINGS":
            continue
        if seen_settings and not _server_goaway_before(trace, i):
            return "GOAWAY" in str(trace.outputs[i])
        seen_settings = True
    return True


def goaway_drain_rejects_new(trace: IOTrace) -> bool:
    """After a graceful shutdown handshake the server must still answer.

    Section 5.2: once the server has responded to the client's GOAWAY it
    drains -- completing open requests and *rejecting* new ones with a
    reset -- rather than going silent.  A post-drain HEADERS that opens a
    *new* request stream must therefore draw a non-empty response
    (``{RST}``); trailers continuing a pre-drain stream may legitimately
    stay silent until their FIN, so the predicate mirrors the client's
    deterministic stream targeting to tell the two apart.  The
    ``goaway_teardown_bug`` server violates this at depth 3:
    ``SETTINGS, GOAWAY, HEADERS[FIN]`` answers ``{}`` instead of
    ``{RST}``.
    """
    drained = False
    configured = False
    open_request = False
    for i, symbol in enumerate(trace.inputs):
        text = str(symbol)
        output = str(trace.outputs[i])
        if text == "GOAWAY" and "GOAWAY" in output and configured:
            # Only a GOAWAY on a *configured* connection starts a drain;
            # GOAWAY-before-SETTINGS is the H3_MISSING_SETTINGS error.
            drained = True
        elif drained:
            if text.startswith("HEADERS") and not open_request:
                if output == "{}":
                    return False
            if "GOAWAY" in output:
                # A post-drain *connection error* (e.g. a second
                # SETTINGS): the connection is closed outright now, so
                # subsequent silence is legitimate.
                return True
        # Mirror the client's stream targeting: HEADERS/DATA without FIN
        # leave a request stream open, FIN or CANCEL close it.
        if text == "SETTINGS":
            configured = True
        elif text.startswith(("HEADERS", "DATA")):
            open_request = "[FIN]" not in text
        elif text == "CANCEL":
            open_request = False
    return True


# --- quic --------------------------------------------------


def _outputs_with(trace: IOTrace, fragment: str) -> list[int]:
    return [i for i, o in enumerate(trace.outputs) if fragment in str(o)]


def _inputs_with(trace: IOTrace, fragment: str) -> list[int]:
    return [i for i, s in enumerate(trace.inputs) if fragment in str(s)]


def handshake_done_only_after_finished(trace: IOTrace) -> bool:
    """The server may signal HANDSHAKE_DONE only after the client's
    Finished (a HANDSHAKE[ACK,CRYPTO] input) -- RFC 9001 section 4.1.2."""
    done_positions = [
        i
        for i in _outputs_with(trace, "HANDSHAKE_DONE")
        # only 1-RTT HANDSHAKE_DONE outputs, not echoes of our input
    ]
    if not done_positions:
        return True
    finished_positions = _inputs_with(trace, "HANDSHAKE(?,?)[ACK,CRYPTO]")
    if not finished_positions:
        return False
    return min(done_positions) >= min(finished_positions)


def no_server_flight_without_hello(trace: IOTrace) -> bool:
    """CRYPTO responses require a ClientHello first (INITIAL[CRYPTO])."""
    crypto_positions = _outputs_with(trace, "[ACK,CRYPTO]")
    if not crypto_positions:
        return True
    hello_positions = _inputs_with(trace, "INITIAL(?,?)[CRYPTO]")
    if not hello_positions:
        return False
    return min(crypto_positions) >= min(hello_positions)


def close_is_terminal_for_data(trace: IOTrace) -> bool:
    """After the server closes, it never starts *new* application data.

    Close retransmissions may still bundle the close frame itself; this
    property flags outputs that carry STREAM data *without* the close.
    """
    close_positions = _outputs_with(trace, "CONNECTION_CLOSE")
    if not close_positions:
        return True
    first_close = min(close_positions)
    for i in range(first_close + 1, len(trace)):
        output = str(trace.outputs[i])
        if "STREAM" in output and "CONNECTION_CLOSE" not in output:
            return False
    return True


def client_done_draws_close(trace: IOTrace) -> bool:
    """A client-sent HANDSHAKE_DONE after the handshake must be answered
    with a connection error (it is a server-only frame, RFC 9000 19.20).

    Only 1-RTT (SHORT) packets are held to this: Initial/Handshake-space
    packets may legitimately be dropped once their keys are discarded.
    """
    # The handshake is complete when the *server* signalled HANDSHAKE_DONE.
    finished = _outputs_with(trace, "HANDSHAKE_DONE")
    if not finished:
        return True  # handshake never completed; nothing to check
    start = min(finished)
    for i in range(start + 1, len(trace)):
        text = str(trace.inputs[i])
        if text.startswith("SHORT") and "HANDSHAKE_DONE]" in text:
            # Either the violation is answered with a close now, or the
            # connection was already closed earlier (silence is then fine).
            closed_before = any(
                "CONNECTION_CLOSE" in str(o) for o in trace.outputs[:i]
            )
            closed_after = any(
                "CONNECTION_CLOSE" in str(o) for o in trace.outputs[i:]
            )
            return closed_before or closed_after
    return True


def single_packet_close(trace: IOTrace) -> bool:
    """Design-decision probe: closes are single packets (Quiche style).

    Google bundles closes across encryption levels, so this property holds
    for the Quiche-like model and fails for the Google-like one -- a
    difference, not a bug.
    """
    for output in trace.outputs:
        text = str(output)
        if "CONNECTION_CLOSE" in text and text.count("],") >= 1:
            return False
    return True
