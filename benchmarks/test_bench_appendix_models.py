"""E10 -- Appendix A: full learned machines (structure + DOT export)."""

from conftest import report

from repro.analysis.diff import behavioural_summary
from repro.analysis.visualize import to_dot
from repro.core.alphabet import parse_quic_symbol


def test_appendix_a1_tcp_structure(tcp_full):
    model = tcp_full.model
    dot = to_dot(model)
    report(
        "E10 Appendix A.1 TCP",
        [
            ("states", 6, model.num_states),
            ("DOT edges", 42, dot.count("->") - 1),  # minus the start edge
        ],
    )
    assert dot.count("->") - 1 == model.num_transitions


def test_appendix_a2_google_structure(quic_google):
    model = quic_google.model
    dot = to_dot(model)
    assert model.num_states == 12
    assert "digraph" in dot
    # Key appendix behaviours: HANDSHAKE_DONE from the client draws a close.
    hhd = parse_quic_symbol("HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]")
    summary = behavioural_summary(model)
    assert any("CONNECTION_CLOSE" in str(o) for o in summary[hhd])
    report(
        "E10 Appendix A.2 Google",
        [
            ("states", 12, model.num_states),
            ("close on client HANDSHAKE_DONE", "yes", "yes"),
        ],
    )


def test_appendix_a3_quiche_structure(quic_quiche):
    model = quic_quiche.model
    dot = to_dot(model)
    assert model.num_states == 8
    assert "digraph" in dot
    # Quiche closes with a single handshake-space packet during handshake.
    ch = parse_quic_symbol("INITIAL(?,?)[CRYPTO]")
    hhd = parse_quic_symbol("HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]")
    outputs = model.run((ch, hhd))
    assert str(outputs[1]) == "{HANDSHAKE(?,?)[CONNECTION_CLOSE]}"
    report(
        "E10 Appendix A.3 Quiche",
        [
            ("states", 8, model.num_states),
            ("close output", "{HANDSHAKE[CONNECTION_CLOSE]}", str(outputs[1])),
        ],
    )
