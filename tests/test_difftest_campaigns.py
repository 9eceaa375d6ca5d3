"""Acceptance tests for the differential conformance campaigns.

These drive the real protocol workloads end to end:

* the three-implementation QUIC matrix (google x mvfst x quiche) with
  mvfst's nondeterminism recorded as ``error`` cells and every
  off-diagonal divergence carrying a minimized, replay-validated witness;
* the HTTP/2 pair, where the RST_STREAM-on-closed-stream quirk must be
  flagged with a witness no longer than the shortest difference an
  exhaustive product-machine search finds.
"""

import pytest

from repro.adapter.quic_adapter import build_quic_sul
from repro.analysis.difftest import (
    VERDICT_DIVERGE,
    VERDICT_ERROR,
    VERDICT_SELF,
)
from repro.analysis.equivalence import find_difference
from repro.campaign import DiffCampaign, run_difftest
from repro.registry import SUL_REGISTRY, load_builtins
from repro.spec import ExperimentSpec


@pytest.fixture(scope="module")
def quic_matrix():
    """google x mvfst x quiche; mvfst aborts with nondeterminism (Issue 2),
    so its row and column carry ``error`` verdicts."""
    return run_difftest("quic")


@pytest.fixture(scope="module")
def http2_matrix():
    """Conformant vs RST_STREAM-on-closed-stream HTTP/2 servers."""
    return run_difftest("http2")


class TestQUICFamilyMatrix:
    def test_family_discovery_names_three_implementations(self):
        load_builtins()
        assert SUL_REGISTRY.families()["quic"] == (
            "quic-google",
            "quic-mvfst",
            "quic-quiche",
        )

    def test_matrix_is_three_by_three(self, quic_matrix):
        matrix = quic_matrix.matrix
        assert matrix.targets == ["quic-google", "quic-mvfst", "quic-quiche"]
        assert len(matrix.cells) == 9

    def test_mvfst_row_and_column_are_errors(self, quic_matrix):
        matrix = quic_matrix.matrix
        for other in matrix.targets:
            assert matrix.cell("quic-mvfst", other).verdict == VERDICT_ERROR
            assert matrix.cell(other, "quic-mvfst").verdict == VERDICT_ERROR
        assert "quic-mvfst" in matrix.cell("quic-google", "quic-mvfst").error

    def test_diagonal_is_self_conformant(self, quic_matrix):
        matrix = quic_matrix.matrix
        for name in ("quic-google", "quic-quiche"):
            assert matrix.cell(name, name).verdict == VERDICT_SELF

    def test_google_vs_quiche_diverges_both_ways(self, quic_matrix):
        matrix = quic_matrix.matrix
        assert matrix.cell("quic-google", "quic-quiche").verdict == VERDICT_DIVERGE
        assert matrix.cell("quic-quiche", "quic-google").verdict == VERDICT_DIVERGE

    def test_divergences_carry_minimized_replayable_witnesses(self, quic_matrix):
        """Every off-diagonal divergence's witness, replayed against both
        implementations, reproduces the differing outputs."""
        divergent = quic_matrix.matrix.divergent_pairs()
        assert divergent
        for cell in divergent:
            assert cell.witness is not None
            assert cell.witness_validated
            row_sul = build_quic_sul(cell.row.removeprefix("quic-"))
            col_sul = build_quic_sul(cell.col.removeprefix("quic-"))
            try:
                row_outputs = tuple(row_sul.query(cell.witness))
                col_outputs = tuple(col_sul.query(cell.witness))
            finally:
                row_sul.close()
                col_sul.close()
            assert row_outputs == cell.witness_row_outputs
            assert col_outputs == cell.witness_col_outputs
            assert row_outputs != col_outputs

    def test_witnesses_are_shortest(self, quic_matrix):
        """No witness is longer than the exhaustive product-machine search's
        shortest difference between the two learned models."""
        models = {run.spec.name: run.model for run in quic_matrix.runs if run.ok}
        for cell in quic_matrix.matrix.divergent_pairs():
            shortest = find_difference(models[cell.row], models[cell.col])
            assert shortest is not None
            assert len(cell.witness) <= len(shortest)

    def test_model_diff_artifacts_for_learned_pairs(self, quic_matrix):
        assert ("quic-google", "quic-quiche") in quic_matrix.diffs
        diff = quic_matrix.diffs[("quic-google", "quic-quiche")]
        assert not diff.equivalent
        assert diff.size_gap == 4  # 12 vs 8 states (paper section 6.2.2)

    def test_summary_counts(self, quic_matrix):
        assert "2/3 models learned" in quic_matrix.summary()


class TestHTTP2QuirkMatrix:
    def test_quirk_flagged_with_shortest_witness(self, http2_matrix):
        """The RST_STREAM-on-closed quirk divergence carries a witness no
        longer than the one exhaustive search over the learned product
        machine finds."""
        cell = http2_matrix.matrix.cell("http2", "http2-buggy")
        assert cell.verdict == VERDICT_DIVERGE
        assert cell.witness is not None
        assert cell.witness_validated
        models = {run.spec.name: run.model for run in http2_matrix.runs}
        exhaustive = find_difference(models["http2"], models["http2-buggy"])
        assert exhaustive is not None
        assert len(cell.witness) <= len(exhaustive)

    def test_witness_exercises_rst_stream(self, http2_matrix):
        cell = http2_matrix.matrix.cell("http2", "http2-buggy")
        assert any("RST_STREAM" in str(symbol) for symbol in cell.witness)

    def test_diagonals_self_conformant(self, http2_matrix):
        assert http2_matrix.matrix.cell("http2", "http2").verdict == VERDICT_SELF
        assert (
            http2_matrix.matrix.cell("http2-buggy", "http2-buggy").verdict
            == VERDICT_SELF
        )

    def test_size_gap_visible_in_diff(self, http2_matrix):
        diff = http2_matrix.diffs[("http2", "http2-buggy")]
        assert diff.states_a == 5
        assert diff.states_b == 4

    def test_member_property_suites_run_alongside_cross_replay(
        self, http2_matrix
    ):
        """Each family member's registered suite produces verdicts: the
        conformant server satisfies everything, the buggy one violates
        ``rst-after-response-tolerated`` with a minimized witness."""
        reports = {
            run.spec.name: run.properties for run in http2_matrix.runs
        }
        assert reports["http2"] is not None and reports["http2"].ok
        buggy = reports["http2-buggy"]
        verdict = buggy.verdict("rst-after-response-tolerated")
        assert verdict.violated
        assert verdict.minimized
        assert not buggy.ok
        assert "http2-buggy properties:" in http2_matrix.render()
        assert "1 members violate properties" in http2_matrix.summary()


class TestHTTP3QuirkMatrix:
    @pytest.fixture(scope="class")
    def http3_matrix(self):
        """Conformant vs GOAWAY-teardown HTTP/3 servers, composed over QUIC."""
        return run_difftest("http3", base=ExperimentSpec(target="http3", seed=8))

    def test_goaway_teardown_flagged_with_minimized_witness(
        self, http3_matrix
    ):
        """Acceptance: `repro difftest http3` pins the seeded quirk to
        the 3-symbol drain witness."""
        cell = http3_matrix.matrix.cell("http3", "http3-buggy")
        assert cell.verdict == VERDICT_DIVERGE
        assert cell.witness is not None
        assert cell.witness_validated
        assert [str(s) for s in cell.witness] == [
            "SETTINGS",
            "GOAWAY",
            "HEADERS[FIN]",
        ]
        models = {run.spec.name: run.model for run in http3_matrix.runs}
        exhaustive = find_difference(models["http3"], models["http3-buggy"])
        assert exhaustive is not None
        assert len(cell.witness) <= len(exhaustive)

    def test_size_gap_visible_in_diff(self, http3_matrix):
        diff = http3_matrix.diffs[("http3", "http3-buggy")]
        assert diff.states_a == 10
        assert diff.states_b == 7

    def test_member_property_suites_run_alongside_cross_replay(
        self, http3_matrix
    ):
        reports = {
            run.spec.name: run.properties for run in http3_matrix.runs
        }
        assert reports["http3"] is not None and reports["http3"].ok
        buggy = reports["http3-buggy"]
        verdict = buggy.verdict("goaway-drain-rejects-new")
        assert verdict.violated
        assert verdict.minimized
        assert "1 members violate properties" in http3_matrix.summary()


class TestTCPAblationMatrix:
    def test_challenge_ack_ablation_diverges(self):
        """Same target key, different target_params: disabling the
        challenge-ACK rate limiter is a visible behavioural difference."""
        specs = [
            ExperimentSpec(target="tcp", name="tcp"),
            ExperimentSpec(
                target="tcp",
                target_params={"challenge_ack_rate_limit": False},
                name="tcp-no-challenge-ack-limit",
            ),
        ]
        result = DiffCampaign(specs).run()
        matrix = result.matrix
        assert matrix.targets == ["tcp", "tcp-no-challenge-ack-limit"]
        cell = matrix.cell("tcp", "tcp-no-challenge-ack-limit")
        assert cell.verdict == VERDICT_DIVERGE
        assert cell.witness_validated
        diff = result.diffs[("tcp", "tcp-no-challenge-ack-limit")]
        assert diff.states_a == 6  # rate limiter adds a state
        assert diff.states_b == 5
        # The TCP suite runs per member and pins the ablation to the
        # named property (same finding, property-level evidence).
        reports = {run.spec.name: run.properties for run in result.runs}
        assert reports["tcp"].verdict("challenge-ack-rate-limited").holds
        ablation = reports["tcp-no-challenge-ack-limit"]
        assert ablation.verdict("challenge-ack-rate-limited").violated
