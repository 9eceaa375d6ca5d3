"""E6 -- Issue 1: RFC imprecision on post-RETRY packet-number resets."""

from conftest import report

from repro.experiments import issue1_retry_divergence


def test_issue1_model_size_divergence():
    result = issue1_retry_divergence()
    strict_states, lenient_states = result.sizes
    report(
        "E6 Issue1 RETRY divergence",
        [
            ("models differ", "yes", "yes" if not result.diff.equivalent else "no"),
            ("strict (aborts) model states", "(small)", strict_states),
            ("lenient (continues) model states", "(full)", lenient_states),
            ("size gap", "vastly different", result.diff.size_gap),
        ],
    )
    # The paper noticed "vastly different sizes"; the strict implementation
    # aborts the connection so its model collapses.
    assert not result.diff.equivalent
    assert strict_states < lenient_states
    assert result.diff.size_gap >= 3
    assert result.diff.witnesses, "expected concrete divergence witnesses"
