"""A4 -- Ablation: abstraction granularity (section 5, reason 1).

An abstract symbol that under-specifies its concrete packet lets the
adapter concretize arbitrarily; if the implementation reacts differently
to the variants, the same abstract query returns different answers and
learning must abort.  Refining the abstraction restores determinism --
the user-facing workflow the paper describes for nondeterminism reason (1).
"""

from conftest import report

from repro.experiments import learn_quic
from repro.learn.nondeterminism import NondeterminismError, NondeterminismPolicy
from repro.quic.impls.tracker import TrackerConfig


def test_ablation_abstraction_granularity():
    policy = NondeterminismPolicy(min_repeats=3, max_repeats=8, certainty=0.95)
    try:
        learn_quic(
            "quiche",
            tracker_config=TrackerConfig(ambiguous_stream_abstraction=True),
            nondeterminism_policy=policy,
        )
        coarse_failed = False
    except NondeterminismError:
        coarse_failed = True
    refined = learn_quic(
        "quiche",
        tracker_config=TrackerConfig(ambiguous_stream_abstraction=False),
        nondeterminism_policy=policy,
    )
    report(
        "A4 abstraction granularity",
        [
            ("coarse abstraction learnable", "no", "no" if coarse_failed else "yes"),
            ("refined abstraction learnable", "yes", "yes"),
            ("refined model states", 8, refined.model.num_states),
        ],
    )
    assert coarse_failed
    assert refined.model.num_states == 8
