"""HTTP/2 workload: the learned connection-handshake + request model.

The third closed-box target.  The conformant in-process server learns as
a minimal 5-state machine over the 7-symbol frame alphabet; the
benchmark drives the learned model through the SETTINGS handshake and a
complete request, the exchange every HTTP/2 connection starts with.
"""

from conftest import report

from repro.experiments import (
    EXPECTED_HTTP2_STATES,
    EXPECTED_HTTP2_TRANSITIONS,
    learn_http2,
    run_http2_handshake,
)


def test_http2_handshake_model():
    experiment = learn_http2()
    model = experiment.model
    exchange = run_http2_handshake(model)
    report(
        "HTTP/2 handshake + request",
        [
            ("states", EXPECTED_HTTP2_STATES, model.num_states),
            ("transitions", EXPECTED_HTTP2_TRANSITIONS, model.num_transitions),
            ("SETTINGS response", "SETTINGS[]+SETTINGS[ACK]", exchange[0][1]),
            (
                "request response",
                "HEADERS[END_HEADERS]+DATA[END_STREAM]",
                exchange[1][1],
            ),
            ("model is minimal", True, model.minimize().num_states == model.num_states),
            ("membership queries", "(small)", experiment.report.sul_queries),
        ],
    )
    experiment.close()
    assert model.num_states == EXPECTED_HTTP2_STATES
    assert model.num_transitions == EXPECTED_HTTP2_TRANSITIONS
    assert exchange[0] == ("SETTINGS[]", "SETTINGS[]+SETTINGS[ACK]")
    assert exchange[1] == (
        "HEADERS[END_HEADERS,END_STREAM]",
        "HEADERS[END_HEADERS]+DATA[END_STREAM]",
    )
