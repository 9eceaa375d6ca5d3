"""Tests for the differential-testing primitives and DiffCampaign.

Everything here drives registered toy machines (plus deliberate mutants),
so the full matrix machinery -- concurrent learning, suite generation,
batched cross-replay, ddmin witness reduction, artifacts -- is exercised
in well under a second per test.
"""

import json

import pytest

from repro.adapter.mealy_sul import MealySUL, toy_machine
from repro.adapter.pool import SULPool
from repro.analysis.difftest import (
    VERDICT_AGREE,
    VERDICT_DIVERGE,
    VERDICT_ERROR,
    VERDICT_INCOMPATIBLE,
    VERDICT_SELF,
    CrossVerdict,
    minimize_witness,
)
from repro.analysis.equivalence import find_difference
from repro.analysis.testgen import generate_test_suite
from repro.campaign import DiffCampaign, member_specs, run_difftest
from repro.core.alphabet import Alphabet
from repro.core.mealy import MealyMachine
from repro.learn.cache import CachedMembershipOracle
from repro.learn.teacher import SULMembershipOracle, chunks, replay
from repro.registry import SUL_REGISTRY
from repro.spec import ExperimentSpec, SpecError


def mutate(machine, state, symbol, new_output, name="toy-mutant"):
    table = {
        (t.source, t.input): (t.target, t.output) for t in machine.transitions()
    }
    target, _ = table[(state, symbol)]
    table[(state, symbol)] = (target, new_output)
    return MealyMachine(machine.initial_state, machine.input_alphabet, table, name)


def toy_mutant_machine() -> MealyMachine:
    """The toy machine except the established state RSTs an ACK."""
    base = toy_machine()
    syn, ack = base.input_alphabet.symbols
    rst = base.step("s1", syn)[1]
    return mutate(base, "s1", ack, rst)


@pytest.fixture
def toy_mutant_target():
    SUL_REGISTRY.register(
        "toy-mutant", lambda: MealySUL(toy_mutant_machine(), name="toy-mutant")
    )
    yield "toy-mutant"
    SUL_REGISTRY.unregister("toy-mutant")


@pytest.fixture
def toy_narrow_target():
    """A toy variant over a *different* (single-symbol) input alphabet."""
    base = toy_machine()
    syn, _ = base.input_alphabet.symbols
    nil = base.step("s0", base.input_alphabet.symbols[1])[1]
    machine = MealyMachine(
        "s0",
        Alphabet.of([syn]),
        {("s0", syn): ("s0", nil)},
        "toy-narrow",
    )
    SUL_REGISTRY.register(
        "toy-narrow", lambda: MealySUL(machine, name="toy-narrow")
    )
    yield "toy-narrow"
    SUL_REGISTRY.unregister("toy-narrow")


# ---------------------------------------------------------------------------
# minimize_witness (ddmin)
# ---------------------------------------------------------------------------

class TestMinimizeWitness:
    def test_reduces_to_the_failing_core(self):
        word = tuple(range(12))

        def disagrees(candidate):
            return 3 in candidate and 7 in candidate

        assert sorted(minimize_witness(word, disagrees)) == [3, 7]

    def test_preserves_symbol_order(self):
        word = ("a", "x", "b", "y", "c")

        def disagrees(candidate):
            return "x" in candidate and "y" in candidate

        assert minimize_witness(word, disagrees) == ("x", "y")

    def test_result_is_one_minimal(self):
        word = tuple(range(20))

        def disagrees(candidate):
            return {2, 11, 17} <= set(candidate)

        witness = minimize_witness(word, disagrees)
        assert disagrees(witness)
        for index in range(len(witness)):
            assert not disagrees(witness[:index] + witness[index + 1 :])

    def test_single_symbol_word_returned_as_is(self):
        assert minimize_witness(("a",), lambda w: "a" in w) == ("a",)

    def test_rejects_non_disagreeing_word(self):
        with pytest.raises(ValueError):
            minimize_witness(("a", "b"), lambda w: False)

    def test_candidates_are_memoized(self):
        seen = []

        def disagrees(candidate):
            seen.append(candidate)
            return 1 in candidate

        minimize_witness(tuple(range(8)), disagrees)
        assert len(seen) == len(set(seen)), "a candidate was re-evaluated"

    def test_budget_exhaustion_still_disagrees(self):
        word = tuple(range(64))

        def disagrees(candidate):
            return {5, 40, 63} <= set(candidate)

        witness = minimize_witness(word, disagrees, max_tests=3)
        assert disagrees(witness)


# ---------------------------------------------------------------------------
# Cross-replay (one suite replayed on another implementation)
# ---------------------------------------------------------------------------

def oracle_over(machine: MealyMachine) -> CachedMembershipOracle:
    return CachedMembershipOracle(SULMembershipOracle(MealySUL(machine)))


def mutant_sul() -> MealySUL:
    return MealySUL(toy_mutant_machine(), name="toy-mutant")


class TestCrossReplay:
    def test_identical_machines_agree(self):
        reference = toy_machine()
        suite = reference.w_method_suite()
        found = replay(reference, oracle_over(reference), chunks(suite, 64))
        assert found.conforms
        assert found.sent == len(suite)

    def test_mutant_divergences_found_in_suite_order(self):
        reference = toy_machine()
        mutant = toy_mutant_machine()
        suite = reference.w_method_suite()
        divergences = replay(reference, oracle_over(mutant), chunks(suite, 64)).divergences
        assert divergences
        positions = [suite.index(d.word) for d in divergences]
        assert positions == sorted(positions)
        for divergence in divergences:
            assert tuple(reference.run(divergence.word)) == divergence.expected
            assert tuple(mutant.run(divergence.word)) == divergence.actual

    def test_batching_does_not_change_findings(self):
        reference = toy_machine()
        mutant = toy_mutant_machine()
        suite = reference.w_method_suite()
        one = replay(reference, oracle_over(mutant), chunks(suite, 1))
        big = replay(reference, oracle_over(mutant), chunks(suite, 500))
        assert one == big

    def test_max_divergences_caps(self):
        reference = toy_machine()
        mutant = toy_mutant_machine()
        suite = reference.w_method_suite()
        capped = replay(reference, oracle_over(mutant), [suite], stop_after=2)
        assert len(capped.divergences) == 2

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_pooled_replay_equals_serial(self, backend):
        """One replay of a mutant finds the same divergences and sends the
        same words on every pool backend."""
        reference = toy_machine()
        suite = generate_test_suite(reference, "random", num_random=60, seed=5)
        serial = replay(reference, mutant_sul(), chunks(suite, 16))
        assert serial.divergences
        pool = SULPool(mutant_sul, workers=2, backend=backend)
        try:
            pooled = replay(reference, pool, chunks(suite, 16))
        finally:
            pool.close()
        assert pooled.sent == serial.sent == len(suite)
        assert pooled.divergences == serial.divergences


# ---------------------------------------------------------------------------
# DiffCampaign
# ---------------------------------------------------------------------------

class TestDiffCampaign:
    def test_two_by_two_matrix(self, toy_mutant_target):
        result = run_difftest(["toy", toy_mutant_target])
        matrix = result.matrix
        assert matrix.targets == ["toy", "toy-mutant"]
        assert matrix.cell("toy", "toy").verdict == VERDICT_SELF
        assert matrix.cell("toy-mutant", "toy-mutant").verdict == VERDICT_SELF
        assert matrix.cell("toy", "toy-mutant").verdict == VERDICT_DIVERGE
        assert matrix.cell("toy-mutant", "toy").verdict == VERDICT_DIVERGE
        assert len(matrix.divergent_pairs()) == 2

    def test_witness_is_minimized_and_validated(self, toy_mutant_target):
        result = run_difftest(["toy", toy_mutant_target])
        cell = result.matrix.cell("toy", "toy-mutant")
        assert cell.witness is not None
        assert cell.witness_validated
        # As short as the exhaustive product-machine search's witness.
        models = {run.spec.name: run.model for run in result.runs}
        shortest = find_difference(models["toy"], models["toy-mutant"])
        assert len(cell.witness) == len(shortest)
        # Replaying the witness on both implementations reproduces the
        # differing outputs.
        assert (
            tuple(MealySUL(toy_machine()).query(cell.witness))
            == cell.witness_row_outputs
        )
        assert (
            tuple(MealySUL(toy_mutant_machine()).query(cell.witness))
            == cell.witness_col_outputs
        )
        assert cell.witness_row_outputs != cell.witness_col_outputs

    def test_equivalent_targets_agree(self):
        specs = [
            ExperimentSpec(target="toy", name="toy-a"),
            ExperimentSpec(target="toy", name="toy-b"),
        ]
        result = DiffCampaign(specs).run()
        assert result.matrix.cell("toy-a", "toy-b").verdict == VERDICT_AGREE
        assert result.matrix.cell("toy-b", "toy-a").verdict == VERDICT_AGREE
        assert result.matrix.divergent_pairs() == []
        assert result.diffs[("toy-a", "toy-b")].equivalent

    def test_failed_learning_yields_error_cells(self, toy_mutant_target):
        specs = [
            ExperimentSpec(target="toy", name="toy"),
            ExperimentSpec(target="nonexistent-target", name="broken"),
        ]
        result = DiffCampaign(specs).run()
        assert not result.runs[1].ok
        assert result.matrix.cell("toy", "broken").verdict == VERDICT_ERROR
        assert result.matrix.cell("broken", "toy").verdict == VERDICT_ERROR
        assert result.matrix.cell("broken", "broken").verdict == VERDICT_ERROR
        assert "broken" in result.matrix.cell("toy", "broken").error
        # The healthy diagonal is unaffected.
        assert result.matrix.cell("toy", "toy").verdict == VERDICT_SELF

    def test_alphabet_mismatch_yields_incompatible(self, toy_narrow_target):
        result = run_difftest(["toy", toy_narrow_target])
        assert (
            result.matrix.cell("toy", "toy-narrow").verdict
            == VERDICT_INCOMPATIBLE
        )
        assert (
            result.matrix.cell("toy-narrow", "toy").verdict
            == VERDICT_INCOMPATIBLE
        )
        assert ("toy", "toy-narrow") not in result.diffs

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecError):
            DiffCampaign([ExperimentSpec(target="toy"), ExperimentSpec(target="toy")])

    def test_unknown_family_rejected(self):
        with pytest.raises(SpecError):
            member_specs("no-such-family")

    def test_family_expansion_uses_registry(self, toy_mutant_target):
        campaign = DiffCampaign(member_specs("toy"))
        names = [spec.display_name() for spec in campaign.specs]
        assert names == ["toy", "toy-mutant"]

    def test_pooled_matches_serial(self, toy_mutant_target):
        serial = run_difftest(["toy", toy_mutant_target], workers=1)
        pooled = run_difftest(["toy", toy_mutant_target], workers=4)
        for key, cell in serial.matrix.cells.items():
            other = pooled.matrix.cells[key]
            assert cell.verdict == other.verdict
            assert cell.witness == other.witness
            assert cell.suite_size == other.suite_size

    def test_suite_kinds_merge_and_dedup(self, toy_mutant_target):
        merged = run_difftest(
            ["toy", toy_mutant_target],
            kinds=("transition-cover", "wmethod", "random"),
        )
        wmethod_only = run_difftest(["toy", toy_mutant_target])
        cell = merged.matrix.cell("toy", "toy-mutant")
        base = wmethod_only.matrix.cell("toy", "toy-mutant")
        assert cell.suite_size >= base.suite_size
        suite_words = DiffCampaign(
            member_specs("toy"), kinds=("transition-cover", "transition-cover")
        )._suite(toy_machine())
        assert len(suite_words) == len(set(suite_words))

    def test_random_suites_follow_the_spec_seed(self, toy_mutant_target):
        machine = toy_machine()
        campaign = DiffCampaign(member_specs("toy"), kinds=("random",))
        assert campaign._suite(machine, seed=1) != campaign._suite(machine, seed=2)
        assert campaign._suite(machine, seed=1) == campaign._suite(machine, seed=1)

    def test_artifact_write_failure_keeps_the_result(
        self, toy_mutant_target, monkeypatch, tmp_path
    ):
        def boom(self, result):
            raise OSError("disk full")

        monkeypatch.setattr(DiffCampaign, "_write_artifacts", boom)
        result = run_difftest(
            ["toy", toy_mutant_target], output_dir=tmp_path / "difftest"
        )
        assert result.artifact_dir is None
        assert "disk full" in result.artifact_error
        assert result.matrix.cell("toy", "toy-mutant").verdict == VERDICT_DIVERGE

    def test_artifacts_written(self, toy_mutant_target, tmp_path):
        out = tmp_path / "difftest"
        result = run_difftest(["toy", toy_mutant_target], output_dir=out)
        assert result.artifact_dir == str(out)
        matrix = json.loads((out / "matrix.json").read_text())
        assert matrix["matrix"]["targets"] == ["toy", "toy-mutant"]
        assert "suite \\ subject" in (out / "matrix.txt").read_text()
        diff = json.loads((out / "diff-toy-vs-toy-mutant.json").read_text())
        assert diff["equivalent"] is False
        assert diff["witnesses"]
        assert (out / "runs" / "000-toy" / "model.json").exists()

    def test_render_mentions_every_target(self, toy_mutant_target):
        result = run_difftest(["toy", toy_mutant_target])
        text = result.render()
        assert "toy-mutant" in text
        assert "DIVERGE" in text
        assert "witness" in text


class TestWitnessValidation:
    def test_learner_artifact_downgrades_to_error(self):
        """A 'divergence' both implementations disagree with the model on
        (but agree with each other) is a learner artifact, not a finding:
        the cell must become an error, never DIVERGE."""
        campaign = DiffCampaign([ExperimentSpec(target="toy")])
        machine = toy_machine()
        syn, ack = machine.input_alphabet.symbols
        wrong_model = mutate(machine, "s1", ack, machine.step("s1", syn)[1], "wrong")
        cell = CrossVerdict(row="a", col="b", verdict=VERDICT_DIVERGE)
        campaign._attach_witness(
            cell,
            [(syn, ack)],  # wrong_model predicts RST here; both SULs say NIL
            wrong_model,
            machine,
            oracle_over(machine),
            oracle_over(machine),
        )
        assert cell.verdict == VERDICT_ERROR
        assert cell.witness is None
        assert "learner/cache artifact" in cell.error


class TestCrossVerdictSerialization:
    def test_to_dict_round_trips_strings(self):
        cell = CrossVerdict(
            row="a",
            col="b",
            verdict=VERDICT_DIVERGE,
            suite_size=10,
            divergence_count=2,
            witness=("x", "y"),
            witness_row_outputs=("1", "2"),
            witness_col_outputs=("1", "3"),
            witness_validated=True,
        )
        data = cell.to_dict()
        assert data["witness"] == ["x", "y"]
        assert data["verdict"] == VERDICT_DIVERGE
        assert json.dumps(data)

    def test_label_shapes(self):
        assert "DIVERGE" in CrossVerdict("a", "b", VERDICT_DIVERGE, witness=("x",)).label()
        assert CrossVerdict("a", "b", VERDICT_ERROR).label() == "ERROR"
        assert CrossVerdict("a", "a", VERDICT_SELF).label() == "self"
        assert CrossVerdict("a", "b", VERDICT_AGREE).label() == "agree"
        assert CrossVerdict("a", "b", VERDICT_INCOMPATIBLE).label() == "INCOMPAT"
