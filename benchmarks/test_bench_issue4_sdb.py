"""E9 -- Issue 4 / Appendix B.1: the constant-zero STREAM_DATA_BLOCKED."""

from conftest import report

from repro.experiments import issue4_stream_data_blocked


def test_issue4_constant_zero_field():
    result = issue4_stream_data_blocked()
    report(
        "E9 Issue4 STREAM_DATA_BLOCKED",
        [
            ("buggy max_stream_data", "constant 0", f"constant {result.buggy_constant}"),
            (
                "fixed max_stream_data",
                "state-dependent",
                "state-dependent"
                if result.fixed_constant is None
                else f"constant {result.fixed_constant}",
            ),
        ],
    )
    assert result.buggy_constant == 0
    assert result.fixed_constant is None
    # The synthesized buggy machine reproduces its training traces.
    traces = result.buggy_synthesis.training_traces
    assert any(result.buggy_synthesis.machine.consistent_with(t) for t in traces)
