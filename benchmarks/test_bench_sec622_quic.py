"""E4 -- Section 6.2.2: learned QUIC models and the mvfst failure."""

import pytest
from conftest import report

from repro.experiments import (
    PAPER_GOOGLE_QUERIES,
    PAPER_GOOGLE_STATES,
    PAPER_GOOGLE_TRANSITIONS,
    PAPER_QUICHE_QUERIES,
    PAPER_QUICHE_STATES,
    PAPER_QUICHE_TRANSITIONS,
    learn_quic,
)
from repro.learn.nondeterminism import NondeterminismError


def test_sec622_google_model(quic_google):
    model = quic_google.model
    rep = quic_google.report
    report(
        "E4 Sec6.2.2 Google QUIC",
        [
            ("states", PAPER_GOOGLE_STATES, model.num_states),
            ("transitions", PAPER_GOOGLE_TRANSITIONS, model.num_transitions),
            ("queries (SUL)", PAPER_GOOGLE_QUERIES, rep.sul_queries),
            ("cache hit rate", "-", f"{rep.cache_hit_rate:.0%}"),
        ],
    )
    assert model.num_states == PAPER_GOOGLE_STATES
    assert model.num_transitions == PAPER_GOOGLE_TRANSITIONS


def test_sec622_quiche_model(quic_quiche):
    model = quic_quiche.model
    rep = quic_quiche.report
    report(
        "E4 Sec6.2.2 Quiche QUIC",
        [
            ("states", PAPER_QUICHE_STATES, model.num_states),
            ("transitions", PAPER_QUICHE_TRANSITIONS, model.num_transitions),
            ("queries (SUL)", PAPER_QUICHE_QUERIES, rep.sul_queries),
            ("cache hit rate", "-", f"{rep.cache_hit_rate:.0%}"),
        ],
    )
    assert model.num_states == PAPER_QUICHE_STATES
    assert model.num_transitions == PAPER_QUICHE_TRANSITIONS


def test_sec622_ranking_holds(quic_google, quic_quiche):
    """Google's model is bigger and costs more queries, as in the paper."""
    assert quic_google.model.num_states > quic_quiche.model.num_states
    assert quic_google.report.sul_queries > quic_quiche.report.sul_queries


def test_sec622_mvfst_fails_deterministic_learning():
    with pytest.raises(NondeterminismError) as excinfo:
        learn_quic("mvfst")
    error = excinfo.value
    report(
        "E4 Sec6.2.2 mvfst",
        [
            ("learnable deterministically", "no", "no"),
            (
                "most-common response share",
                "~0.82",
                f"{error.frequency_of_most_common():.2f}",
            ),
        ],
    )
    assert "STATELESS_RESET" in str(error) or "{}" in str(error)
