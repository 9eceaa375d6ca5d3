"""E8 -- Issue 3: the reference client's RETRY-from-wrong-port bug."""

from conftest import report

from repro.experiments import issue3_retry_port


def test_issue3_retry_port_bug():
    result = issue3_retry_port()
    report(
        "E8 Issue3 retry port bug",
        [
            ("buggy client can establish", "no", "yes" if result.buggy_establishes else "no"),
            ("fixed client can establish", "yes", "yes" if result.fixed_establishes else "no"),
            ("models equivalent", "no", "yes" if result.diff.equivalent else "no"),
            ("buggy model states", "(collapsed)", result.buggy.model.num_states),
            ("fixed model states", "(full)", result.fixed.model.num_states),
        ],
    )
    # With the bug, address validation fails and the model transitions to a
    # state where connection establishment is impossible.
    assert not result.buggy_establishes
    assert result.fixed_establishes
    assert not result.diff.equivalent
    assert result.buggy.model.num_states < result.fixed.model.num_states
