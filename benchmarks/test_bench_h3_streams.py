"""HTTP/3 workload: the composed QUIC-stream stack and its scenarios.

The fourth closed-box target, and the first declared through the
layered-adapter API (`compose(QuicStreamTransport, build_h3_app)`).
Beyond the learned-model shape, this benchmark measures what only the
QUIC substrate can do -- no head-of-line blocking across request
streams under deterministic loss (contrasted against HTTP/2 over the
reliable pipe), connection-ID routed migration, and 0-RTT resumption.
"""

from conftest import report

from repro.experiments import (
    EXPECTED_H3_BUGGY_STATES,
    EXPECTED_H3_STATES,
    EXPECTED_H3_TRANSITIONS,
    hol_blocking_probe,
    learn_http3,
    migration_probe,
    resumption_probe,
    run_http3_request,
)


def test_http3_learned_models():
    conformant = learn_http3()
    buggy = learn_http3(goaway_teardown_bug=True)
    exchange = run_http3_request(conformant.model)
    report(
        "HTTP/3 learned models",
        [
            ("states", EXPECTED_H3_STATES, conformant.model.num_states),
            (
                "transitions",
                EXPECTED_H3_TRANSITIONS,
                conformant.model.num_transitions,
            ),
            ("buggy states", EXPECTED_H3_BUGGY_STATES, buggy.model.num_states),
            ("SETTINGS response", "{SETTINGS}", exchange[0][1]),
            ("request response", "{HEADERS+DATA[FIN]}", exchange[1][1]),
            (
                "model is minimal",
                True,
                conformant.model.minimize().num_states
                == conformant.model.num_states,
            ),
            ("membership queries", "(small)", conformant.report.sul_queries),
        ],
    )
    conformant.close()
    buggy.close()
    assert conformant.model.num_states == EXPECTED_H3_STATES
    assert conformant.model.num_transitions == EXPECTED_H3_TRANSITIONS
    assert buggy.model.num_states == EXPECTED_H3_BUGGY_STATES
    assert exchange[0] == ("SETTINGS", "{SETTINGS}")
    assert exchange[1] == ("HEADERS[FIN]", "{HEADERS+DATA[FIN]}")


def test_h3_stream_scenarios():
    """The QUIC-substrate scenarios: HOL blocking, migration, 0-RTT."""
    hol = hol_blocking_probe()
    migration = migration_probe()
    resumption = resumption_probe()
    report(
        "HTTP/3 stream scenarios",
        [
            ("h3 answered under loss", 1, hol["h3_first_exchange_answered"]),
            ("h2 answered under loss", 0, hol["h2_first_exchange_answered"]),
            ("h3 after recovery", 2, hol["h3_after_recovery_answered"]),
            ("h2 after recovery", 2, hol["h2_after_recovery_answered"]),
            (
                "answered after migration",
                True,
                migration["answered_after_migration"],
            ),
            ("handshakes across migration", 1, migration["handshake_rounds"]),
            (
                "connection rounds (full vs 0-RTT)",
                "3 vs 2",
                f"{resumption['first_connection_rounds']} vs "
                f"{resumption['second_connection_rounds']}",
            ),
        ],
    )
    # No head-of-line blocking: H3 answers the surviving stream in the
    # lossy exchange; HTTP/2's ordered pipe answers neither.
    assert hol["h3_first_exchange_answered"] == 1
    assert hol["h2_first_exchange_answered"] == 0
    assert (
        hol["h3_after_recovery_answered"]
        == hol["h2_after_recovery_answered"]
        == 2
    )
    assert migration["answered_after_migration"]
    assert migration["port_changed"]
    assert migration["handshake_rounds"] == 1
    assert resumption["zero_rtt"]
    assert resumption["handshake_rounds"] == 1
