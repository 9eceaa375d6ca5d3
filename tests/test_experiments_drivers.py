"""Fast sanity tests for the experiment drivers and their paper constants."""

from repro.core.trace import count_words
from repro.experiments import (
    PAPER_GOOGLE_STATES,
    PAPER_GOOGLE_TRANSITIONS,
    PAPER_QUICHE_STATES,
    PAPER_QUICHE_TRANSITIONS,
    PAPER_TCP_STATES,
    PAPER_TCP_TRANSITIONS,
    PAPER_TOTAL_TRACES,
    loc_report,
)
from repro.experiments.tcp_experiments import handshake_expectation


class TestPaperConstants:
    def test_transition_counts_are_states_times_alphabet(self):
        assert PAPER_TCP_TRANSITIONS == PAPER_TCP_STATES * 7
        assert PAPER_GOOGLE_TRANSITIONS == PAPER_GOOGLE_STATES * 7
        assert PAPER_QUICHE_TRANSITIONS == PAPER_QUICHE_STATES * 7

    def test_total_traces_formula(self):
        assert PAPER_TOTAL_TRACES == count_words(7, 10)

    def test_handshake_expectation_shape(self):
        expectation = handshake_expectation()
        assert expectation[0] == ("SYN(?,?,0)", "ACK+SYN(?,?,0)")
        assert expectation[1] == ("ACK(?,?,0)", "NIL")


class TestPropertyDrivers:
    """Property runs go through the one member resolver and the campaign
    runner; ``evaluate_spec_properties`` is the one-model path."""

    def test_check_target_properties_toy(self):
        from repro.campaign import evaluate_spec_properties
        from repro.experiments import Experiment
        from repro.spec import ExperimentSpec, PropertiesSpec

        spec = ExperimentSpec(
            target="toy", name="toy",
            properties=PropertiesSpec(depth=4, include_probes=True),
        )
        with Experiment.run(spec) as experiment:
            report = evaluate_spec_properties(
                spec, experiment.model,
                oracle_table=experiment.prognosis.sul.oracle_table,
            )
        assert report.ok
        assert report.verdict("ack-is-ignored").holds

    def test_property_sweep_attaches_reports(self, tmp_path):
        from repro.campaign import Campaign, member_specs
        from repro.spec import ExperimentSpec, PropertiesSpec

        base = ExperimentSpec(target="toy", properties=PropertiesSpec(depth=3))
        results = Campaign(
            member_specs(["toy"], base=base), workers=2, output_dir=tmp_path
        ).run()
        assert len(results) == 1
        assert results[0].properties is not None
        assert results[0].properties.ok
        assert (tmp_path / "000-toy" / "properties.json").exists()


class TestLocReport:
    def test_counts_are_positive_and_ordered(self):
        measured = loc_report()
        assert 0 < measured.adapter_framework < measured.quic_reference
        assert 0 < measured.tcp_instrumentation < measured.quic_instrumentation
        assert measured.quic_instrumentation < measured.quic_reference

    def test_render_mentions_paper_numbers(self):
        text = loc_report().render()
        assert "2700" in text
        assert "10000" in text
