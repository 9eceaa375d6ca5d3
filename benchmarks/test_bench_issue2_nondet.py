"""E7 -- Issue 2: mvfst's nondeterministic stateless resets (~82%)."""

from conftest import report

from repro.experiments import issue2_nondeterminism


def test_issue2_nondeterministic_resets():
    result = issue2_nondeterminism(samples=200)
    report(
        "E7 Issue2 mvfst nondeterminism",
        [
            ("learning aborts", "yes", "yes"),
            ("RESET response rate", "0.82", f"{result.reset_rate:.2f}"),
            ("back-off present", "no (DoS risk)", "no"),
        ],
    )
    # The paper measured 82%; with 200 seeded samples we accept +-10pp.
    assert 0.72 <= result.reset_rate <= 0.92
    assert result.error.frequency_of_most_common() < 0.95
