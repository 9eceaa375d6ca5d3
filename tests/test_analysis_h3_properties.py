"""Tests for the HTTP/3 property suite against learned models."""

import pytest

from repro.analysis.h3_properties import (
    STANDARD_PROPERTIES,
    check_request_stream_ids,
    data_after_headers_per_stream,
    goaway_drain_rejects_new,
    request_stream_id_violations,
)
from repro.analysis.property_api import Verdict
from repro.campaign import evaluate_spec_properties
from repro.core.alphabet import parse_h3_output, parse_h3_symbol
from repro.core.oracle_table import OracleTable
from repro.core.trace import IOTrace
from repro.experiments import learn_http3
from repro.registry import resolve_property_suite
from repro.spec import PropertiesSpec


@pytest.fixture(scope="module")
def conformant():
    experiment = learn_http3()
    yield experiment
    experiment.close()


@pytest.fixture(scope="module")
def buggy():
    experiment = learn_http3(goaway_teardown_bug=True)
    yield experiment
    experiment.close()


def run_suite(experiment, depth=4):
    spec = experiment.prognosis.spec.clone(
        properties=PropertiesSpec(depth=depth, include_probes=True)
    )
    return evaluate_spec_properties(
        spec, experiment.model, oracle_table=experiment.prognosis.sul.oracle_table
    )


def trace(*steps):
    """Build an abstract IOTrace from ``"HEADERS[FIN]/{RST}"`` steps."""
    inputs = []
    outputs = []
    for step in steps:
        text_in, text_out = step.split("/")
        inputs.append(parse_h3_symbol(text_in))
        outputs.append(parse_h3_output(text_out))
    return IOTrace(tuple(inputs), tuple(outputs))


class TestSuiteDefinition:
    def test_registered_for_both_servers_by_stem(self):
        assert resolve_property_suite("http3") == STANDARD_PROPERTIES
        assert resolve_property_suite("http3-buggy") == STANDARD_PROPERTIES

    def test_stream_id_check_is_oracle_kind(self):
        kinds = {p.name: p.kind for p in STANDARD_PROPERTIES}
        assert kinds["request-stream-ids-ordered"] == "oracle"


class TestConformantServer:
    def test_all_properties_hold(self, conformant):
        report = run_suite(conformant)
        assert all(v.holds for v in report), report.render()

    def test_request_stream_ids_ordered(self, conformant):
        oracle_table = conformant.prognosis.sul.oracle_table
        assert len(oracle_table) > 0
        assert check_request_stream_ids(oracle_table)

    def test_oracle_check_skipped_without_table(self, conformant):
        from repro.analysis.property_api import check_properties

        report = check_properties(conformant.model, STANDARD_PROPERTIES)
        verdict = report.verdict("request-stream-ids-ordered")
        assert verdict.verdict == Verdict.SKIPPED


class TestBuggyServer:
    def test_quirk_flagged_by_drain_property(self, buggy):
        """Acceptance: the GOAWAY-teardown quirk is caught by a named
        property with a ddmin-minimized 3-symbol witness."""
        report = run_suite(buggy)
        violated = report.verdict("goaway-drain-rejects-new")
        assert violated.verdict == Verdict.VIOLATED
        assert violated.minimized
        assert len(violated.witness) <= 3
        assert "HEADERS[FIN]/{}" in violated.witness.render()

    def test_other_properties_still_hold(self, buggy):
        report = run_suite(buggy)
        holding = {v.property.name for v in report if v.holds}
        assert holding == {
            "data-after-headers-per-stream",
            "settings-draws-settings",
            "second-settings-errors",
            "request-stream-ids-ordered",
        }


class TestDrainPredicate:
    """The abstract drain tracking, step by step."""

    def test_new_request_after_drain_must_be_answered(self):
        assert not goaway_drain_rejects_new(
            trace("SETTINGS/{SETTINGS}", "GOAWAY/{GOAWAY}", "HEADERS[FIN]/{}")
        )
        assert goaway_drain_rejects_new(
            trace("SETTINGS/{SETTINGS}", "GOAWAY/{GOAWAY}", "HEADERS[FIN]/{RST}")
        )

    def test_trailers_on_open_stream_may_stay_silent(self):
        # HEADERS without FIN leaves the request stream open; a later
        # HEADERS continues *that* stream, so silence is legitimate.
        assert goaway_drain_rejects_new(
            trace(
                "SETTINGS/{SETTINGS}",
                "HEADERS/{}",
                "GOAWAY/{GOAWAY}",
                "HEADERS/{}",
            )
        )

    def test_cancel_closes_the_open_stream(self):
        # After CANCEL the next HEADERS opens a *new* stream and must
        # draw a response.
        assert not goaway_drain_rejects_new(
            trace(
                "SETTINGS/{SETTINGS}",
                "HEADERS/{}",
                "CANCEL/{RST}",
                "GOAWAY/{GOAWAY}",
                "HEADERS/{}",
            )
        )

    def test_goaway_before_settings_is_not_a_drain(self):
        # GOAWAY on an unconfigured connection is H3_MISSING_SETTINGS,
        # not a graceful drain; later silence is out of scope.
        assert goaway_drain_rejects_new(
            trace("GOAWAY/{GOAWAY}", "HEADERS[FIN]/{}")
        )

    def test_post_drain_connection_error_stops_the_check(self):
        # A second SETTINGS after the drain is a connection error; the
        # connection is gone, so subsequent silence is legitimate.
        assert goaway_drain_rejects_new(
            trace(
                "SETTINGS/{SETTINGS}",
                "GOAWAY/{GOAWAY}",
                "SETTINGS/{GOAWAY}",
                "HEADERS[FIN]/{}",
            )
        )


class TestResponseShapePredicate:
    def test_data_before_headers_flagged(self):
        assert not data_after_headers_per_stream(
            trace("HEADERS[FIN]/{DATA+HEADERS[FIN]}")
        )

    def test_data_without_headers_flagged(self):
        assert not data_after_headers_per_stream(trace("HEADERS[FIN]/{DATA}"))

    def test_per_stream_isolation(self):
        # HEADERS then DATA on each stream is fine even interleaved.
        assert data_after_headers_per_stream(
            trace("HEADERS[FIN]/{HEADERS+DATA[FIN],RST}")
        )


class TestRequestStreamIdCheck:
    def word(self, count):
        return tuple(
            parse_h3_symbol("HEADERS[FIN]") for _ in range(count)
        )

    def record(self, table, sids):
        outputs = tuple(
            parse_h3_output("{HEADERS+DATA[FIN]}") for _ in sids
        )
        table.record(
            self.word(len(sids)),
            outputs,
            [{"sid": sid} for sid in sids],
            [{} for _ in sids],
        )

    def test_decreasing_ids_flagged(self):
        table = OracleTable()
        self.record(table, [4, 0])
        violations = request_stream_id_violations(table)
        assert len(violations) == 1
        assert violations[0][1] == 1  # the offending step index

    def test_non_multiple_of_four_flagged(self):
        table = OracleTable()
        self.record(table, [2])
        assert not check_request_stream_ids(table)

    def test_repeated_id_means_the_open_stream(self):
        table = OracleTable()
        self.record(table, [0, 0, 4])
        assert check_request_stream_ids(table)
