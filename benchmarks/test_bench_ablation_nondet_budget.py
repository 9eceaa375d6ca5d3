"""A3 -- Ablation: nondeterminism-check repeat budget vs detection.

The check re-executes queries a minimum number of times (section 5).  With
one repeat the mvfst bug can slip through a single query; with three or
more the flaky closed state is caught almost surely.
"""

from conftest import report

from repro.core.alphabet import parse_quic_symbol
from repro.experiments import make_quic_sul
from repro.learn.nondeterminism import (
    MajorityVoteOracle,
    NondeterminismError,
    NondeterminismPolicy,
)
from repro.learn.teacher import SULMembershipOracle

TRIGGER = (
    parse_quic_symbol("INITIAL(?,?)[CRYPTO]"),
    parse_quic_symbol("HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"),
    parse_quic_symbol("SHORT(?,?)[ACK,HANDSHAKE_DONE]"),
)


def detection_rate(min_repeats: int, trials: int = 30) -> float:
    detected = 0
    for trial in range(trials):
        sul = make_quic_sul("mvfst", seed=1000 + trial)
        oracle = MajorityVoteOracle(
            SULMembershipOracle(sul),
            NondeterminismPolicy(
                min_repeats=min_repeats,
                max_repeats=max(min_repeats, 6),
                certainty=0.99,
            ),
        )
        try:
            oracle.query(TRIGGER)
        except NondeterminismError:
            detected += 1
    return detected / trials


def test_ablation_nondet_budget():
    """Per-query detection follows 1 - (p^k + (1-p)^k) for k repeats.

    With p = 0.82 that is 0 / ~0.30 / ~0.44 for k = 1 / 2 / 3.  A learning
    run issues thousands of queries through the flaky state, so overall
    detection is ~certain for any k >= 2 (bench E4 demonstrates the abort).
    """
    rates = {repeats: detection_rate(repeats) for repeats in (1, 2, 3)}
    theory = {
        k: 1 - (0.82**k + 0.18**k) for k in (1, 2, 3)
    }
    report(
        "A3 nondeterminism budget",
        [
            ("detection @1 repeat", f"{theory[1]:.2f}", f"{rates[1]:.2f}"),
            ("detection @2 repeats", f"~{theory[2]:.2f}", f"{rates[2]:.2f}"),
            ("detection @3 repeats", f"~{theory[3]:.2f}", f"{rates[3]:.2f}"),
        ],
    )
    assert rates[1] == 0.0  # a single execution cannot expose nondeterminism
    assert rates[2] > 0.05
    assert rates[3] >= 0.2
    assert rates[3] >= rates[1]
    assert abs(rates[3] - theory[3]) < 0.3  # sampling noise bound
