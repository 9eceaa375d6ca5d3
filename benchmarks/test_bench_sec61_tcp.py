"""E3 -- Section 6.1: the full TCP model (6 states, 42 transitions)."""

from conftest import report

from repro.experiments import (
    PAPER_TCP_QUERIES,
    PAPER_TCP_STATES,
    PAPER_TCP_TRANSITIONS,
    learn_tcp_full,
)


def test_sec61_tcp_model():
    experiment = learn_tcp_full()
    model = experiment.model
    rep = experiment.report
    report(
        "E3 Sec6.1 TCP",
        [
            ("states", PAPER_TCP_STATES, model.num_states),
            ("transitions", PAPER_TCP_TRANSITIONS, model.num_transitions),
            ("membership queries (SUL)", PAPER_TCP_QUERIES, rep.sul_queries),
            ("learner queries (incl. cached)", "-", rep.oracle_queries),
            ("cache hit rate", "-", f"{rep.cache_hit_rate:.0%}"),
        ],
    )
    assert model.num_states == PAPER_TCP_STATES
    assert model.num_transitions == PAPER_TCP_TRANSITIONS
    assert model.minimize().num_states == model.num_states
    # Same order of magnitude as the paper's query count.
    assert 100 <= rep.sul_queries <= 50_000
