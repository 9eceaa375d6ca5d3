"""Tests for the HTTP/2 property suite against learned models."""

import pytest

from repro.analysis.http2_properties import (
    STANDARD_PROPERTIES,
    check_stream_id_monotonicity,
    stream_id_violations,
)
from repro.analysis.property_api import Verdict
from repro.campaign import evaluate_spec_properties
from repro.core.oracle_table import OracleTable
from repro.core.alphabet import parse_http2_symbol
from repro.experiments import learn_http2
from repro.registry import resolve_property_suite
from repro.spec import PropertiesSpec


@pytest.fixture(scope="module")
def conformant():
    experiment = learn_http2()
    yield experiment
    experiment.close()


@pytest.fixture(scope="module")
def buggy():
    experiment = learn_http2(rst_on_closed_bug=True)
    yield experiment
    experiment.close()


def run_suite(experiment, depth=5):
    """The suite exactly as campaigns run it: model checks plus the
    oracle-table check over the learning run's observations."""
    spec = experiment.prognosis.spec.clone(
        properties=PropertiesSpec(depth=depth, include_probes=True)
    )
    return evaluate_spec_properties(
        spec, experiment.model, oracle_table=experiment.prognosis.sul.oracle_table
    )


class TestSuiteDefinition:
    def test_registered_for_both_servers_by_stem(self):
        assert resolve_property_suite("http2") == STANDARD_PROPERTIES
        assert resolve_property_suite("http2-buggy") == STANDARD_PROPERTIES

    def test_stream_id_check_is_oracle_kind(self):
        kinds = {p.name: p.kind for p in STANDARD_PROPERTIES}
        assert kinds["stream-ids-monotonic"] == "oracle"


class TestConformantServer:
    def test_all_properties_hold(self, conformant):
        report = run_suite(conformant, depth=5)
        assert all(v.holds for v in report), report.render()

    def test_render_lists_every_property(self, conformant):
        report = run_suite(conformant, depth=3)
        rendered = report.render()
        for prop in STANDARD_PROPERTIES:
            assert prop.name in rendered
        assert "VIOLATED" not in rendered

    def test_stream_ids_monotonic(self, conformant):
        oracle_table = conformant.prognosis.sul.oracle_table
        assert len(oracle_table) > 0
        assert check_stream_id_monotonicity(oracle_table)

    def test_oracle_check_skipped_without_table(self, conformant):
        from repro.analysis.property_api import check_properties

        report = check_properties(conformant.model, STANDARD_PROPERTIES)
        assert report.verdict("stream-ids-monotonic").verdict == Verdict.SKIPPED


class TestBuggyServer:
    def test_quirk_flagged_by_rst_property(self, buggy):
        """Acceptance: the seeded quirk is caught by a named property,
        now with a ddmin-minimized witness."""
        report = run_suite(buggy)
        violated = report.verdict("rst-after-response-tolerated")
        assert violated.verdict == Verdict.VIOLATED
        assert violated.minimized
        witness = violated.witness.render()
        assert "RST_STREAM[]/GOAWAY[]" in witness
        # Minimal repro: open a stream, get the response, reset it.
        assert len(violated.witness) <= 3

    def test_other_properties_still_hold(self, buggy):
        report = run_suite(buggy)
        holding = {v.property.name for v in report if v.holds}
        assert holding == {
            "no-data-before-headers",
            "goaway-terminal",
            "settings-acked",
            "stream-ids-monotonic",
        }

    def test_render_marks_violation_with_witness(self, buggy):
        rendered = run_suite(buggy).render()
        assert "VIOLATED" in rendered
        assert "witness:" in rendered


class TestStreamIdCheck:
    def word(self, *labels):
        return tuple(parse_http2_symbol(label) for label in labels)

    def record(self, table, sids):
        inputs = self.word(*(["HEADERS[END_HEADERS,END_STREAM]"] * len(sids)))
        outputs = self.word(*(["HEADERS[END_HEADERS]"] * len(sids)))
        table.record(
            inputs,
            outputs,
            [{"sid": sid} for sid in sids],
            [{} for _ in sids],
        )

    def test_decreasing_ids_flagged(self):
        table = OracleTable()
        self.record(table, [3, 1])
        violations = stream_id_violations(table)
        assert len(violations) == 1
        assert violations[0][1] == 1  # the offending step index

    def test_even_ids_flagged(self):
        table = OracleTable()
        self.record(table, [2])
        assert not check_stream_id_monotonicity(table)

    def test_repeated_id_means_trailers(self):
        table = OracleTable()
        self.record(table, [1, 1, 3])
        assert check_stream_id_monotonicity(table)
