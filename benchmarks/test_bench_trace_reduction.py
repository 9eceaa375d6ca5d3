"""E5 -- Section 6.2.2: trace-space reduction statistics."""

from conftest import report

from repro.core.trace import count_words
from repro.experiments import (
    PAPER_GOOGLE_MODEL_TRACES,
    PAPER_QUICHE_MODEL_TRACES,
    PAPER_TOTAL_TRACES,
    quic_trace_reduction,
)


def test_raw_trace_count_is_exact():
    total = count_words(7, 10)
    report(
        "E5 raw trace count",
        [("traces of length <=10 (7 symbols)", PAPER_TOTAL_TRACES, total)],
    )
    assert total == PAPER_TOTAL_TRACES


def test_model_trace_reduction_google(quic_google):
    reduction = quic_trace_reduction(quic_google)
    report(
        "E5 Google reduction",
        [
            ("total traces", PAPER_TOTAL_TRACES, reduction.total_traces),
            ("model traces", PAPER_GOOGLE_MODEL_TRACES, reduction.model_traces),
            ("reduction factor", "~272,000x", f"{reduction.reduction_factor:,.0f}x"),
        ],
    )
    assert reduction.total_traces == PAPER_TOTAL_TRACES
    # Same order of magnitude as the paper's 1,210.
    assert 100 <= reduction.model_traces <= 12_100


def test_model_trace_reduction_quiche(quic_quiche):
    reduction = quic_trace_reduction(quic_quiche)
    report(
        "E5 Quiche reduction",
        [
            ("model traces", PAPER_QUICHE_MODEL_TRACES, reduction.model_traces),
            ("reduction factor", "~461,000x", f"{reduction.reduction_factor:,.0f}x"),
        ],
    )
    assert 70 <= reduction.model_traces <= 7_150


def test_reduction_ranking(quic_google, quic_quiche):
    """The bigger model needs more traces, exactly like 1210 vs 715."""
    google = quic_trace_reduction(quic_google)
    quiche = quic_trace_reduction(quic_quiche)
    assert google.model_traces > quiche.model_traces
