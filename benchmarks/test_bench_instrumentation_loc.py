"""E11 -- Section 3.2: instrumentation cost in lines of code."""

from conftest import report

from repro.experiments import loc_report
from repro.experiments.loc_report import (
    PAPER_QUIC_INSTRUMENTATION_LOC,
    PAPER_QUIC_REFERENCE_LOC,
    PAPER_TCP_INSTRUMENTATION_LOC,
    PAPER_TCP_MAPPER_LOC,
)


def test_instrumentation_loc():
    measured = loc_report()
    report(
        "E11 instrumentation LoC",
        [
            ("TCP instrumentation", PAPER_TCP_INSTRUMENTATION_LOC, measured.tcp_instrumentation),
            ("prior-work TCP mapper", PAPER_TCP_MAPPER_LOC, "(not needed)"),
            ("QUIC instrumentation", PAPER_QUIC_INSTRUMENTATION_LOC, measured.quic_instrumentation),
            ("QUIC reference impl", PAPER_QUIC_REFERENCE_LOC, measured.quic_reference),
        ],
    )
    # The shape claim: instrumentation is a small fraction of the reference
    # implementation, and far below the prior-work mapper.
    assert measured.tcp_instrumentation < PAPER_TCP_MAPPER_LOC / 2
    assert measured.quic_instrumentation < measured.quic_reference
    assert measured.tcp_instrumentation < measured.quic_instrumentation
