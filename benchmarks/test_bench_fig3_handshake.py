"""E1 -- Figure 3(b): the learned TCP 3-way-handshake model."""

from conftest import report

from repro.experiments import learn_tcp_handshake, run_handshake


def test_fig3b_handshake_model():
    experiment = learn_tcp_handshake()
    model = experiment.model
    exchange = run_handshake(model)
    report(
        "E1 Fig3b TCP handshake",
        [
            ("SYN response", "ACK+SYN(?,?,0)", exchange[0][1]),
            ("ACK response", "NIL", exchange[1][1]),
            ("model is minimal", True, model.minimize().num_states == model.num_states),
            ("membership queries", "(small)", experiment.report.sul_queries),
        ],
    )
    assert exchange[0] == ("SYN(?,?,0)", "ACK+SYN(?,?,0)")
    assert exchange[1] == ("ACK(?,?,0)", "NIL")
