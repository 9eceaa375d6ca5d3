"""Tests for the L* and TTT learners, incl. property-based ground truth."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter.mealy_sul import MealySUL
from repro.analysis.equivalence import equivalent
from repro.core.alphabet import Alphabet, TCPSymbol
from repro.core.mealy import MealyMachine
from repro.learn.cache import CachedMembershipOracle
from repro.learn.counterexample import rivest_schapire
from repro.learn.equivalence import (
    ChainedEquivalenceOracle,
    FixedWordsEquivalenceOracle,
    PerfectEquivalenceOracle,
    RandomWordEquivalenceOracle,
    WMethodEquivalenceOracle,
)
from repro.learn.lstar import LStarLearner
from repro.learn.observation_table import ObservationTable
from repro.learn.teacher import SULMembershipOracle
from repro.learn.ttt import TTTLearner

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["SYN", "ACK"])
NIL = TCPSymbol(label="NIL")
RST = TCPSymbol(label="RST(?,?,0)")



class TestObservationTable:
    def test_initial_table_not_closed_for_toy(self, toy_machine, cached_oracle_for):
        oracle = cached_oracle_for(toy_machine)
        table = ObservationTable(toy_machine.input_alphabet, oracle)
        assert table.find_unclosed() is not None

    def test_hypothesis_after_stabilize(self, toy_machine, cached_oracle_for):
        oracle = cached_oracle_for(toy_machine)
        table = ObservationTable(toy_machine.input_alphabet, oracle)
        LStarLearner._stabilize(table)
        hypothesis = table.to_hypothesis()
        assert hypothesis.num_states >= 1


class TestLStar:
    def test_learns_toy_machine_exactly(self, toy_machine, cached_oracle_for):
        oracle = cached_oracle_for(toy_machine)
        learner = LStarLearner(oracle, WMethodEquivalenceOracle(oracle, 1))
        result = learner.learn()
        assert result.model.num_states == 3
        assert equivalent(result.model, toy_machine)


class TestTTT:
    def test_learns_toy_machine_exactly(self, toy_machine, cached_oracle_for):
        oracle = cached_oracle_for(toy_machine)
        learner = TTTLearner(oracle, WMethodEquivalenceOracle(oracle, 1))
        result = learner.learn()
        assert result.model.num_states == 3
        assert equivalent(result.model, toy_machine)

    def test_ttt_uses_fewer_sul_queries_than_lstar(self, toy_machine):
        ttt_sul = MealySUL(toy_machine)
        ttt_oracle = CachedMembershipOracle(SULMembershipOracle(ttt_sul))
        TTTLearner(ttt_oracle, WMethodEquivalenceOracle(ttt_oracle, 1)).learn()

        lstar_sul = MealySUL(toy_machine)
        lstar_oracle = CachedMembershipOracle(SULMembershipOracle(lstar_sul))
        LStarLearner(lstar_oracle, WMethodEquivalenceOracle(lstar_oracle, 1)).learn()

        assert ttt_sul.stats.queries <= lstar_sul.stats.queries


class TestRivestSchapire:
    def test_decomposition_points_at_divergence(self, toy_machine, ab_alphabet, cached_oracle_for):
        syn, ack = ab_alphabet.symbols
        # A wrong hypothesis: single state echoing NIL for everything.
        transitions = {
            ("q", syn): ("q", NIL),
            ("q", ack): ("q", NIL),
        }
        hypothesis = MealyMachine("q", ab_alphabet, transitions, "wrong")
        oracle = cached_oracle_for(toy_machine)
        cex = (syn,)
        decomposition = rivest_schapire(
            oracle, hypothesis, cex, access_of={"q": ()}
        )
        assert decomposition.prefix == ()
        assert decomposition.symbol == syn

    def test_non_counterexample_rejected(self, toy_machine, cached_oracle_for):
        oracle = cached_oracle_for(toy_machine)
        with pytest.raises(ValueError):
            rivest_schapire(oracle, toy_machine, (SYN,))


class TestEquivalenceOracles:
    def test_wmethod_finds_difference(self, toy_machine, ab_alphabet, cached_oracle_for):
        syn, ack = ab_alphabet.symbols
        oracle = cached_oracle_for(toy_machine)
        # Hypothesis that never leaves s0.
        transitions = {
            ("q", syn): ("q", SYNACK),
            ("q", ack): ("q", NIL),
        }
        hypothesis = MealyMachine("q", ab_alphabet, transitions)
        cex = WMethodEquivalenceOracle(oracle, 1).find_counterexample(hypothesis)
        assert cex is not None
        assert oracle.query(cex) != hypothesis.run(cex)

    def test_wmethod_passes_equivalent(self, toy_machine, cached_oracle_for):
        oracle = cached_oracle_for(toy_machine)
        assert WMethodEquivalenceOracle(oracle, 1).find_counterexample(
            toy_machine
        ) is None

    def test_counterexamples_are_minimal(self, toy_machine, ab_alphabet, cached_oracle_for):
        syn, ack = ab_alphabet.symbols
        oracle = cached_oracle_for(toy_machine)
        transitions = {
            ("q", syn): ("q", SYNACK),
            ("q", ack): ("q", NIL),
        }
        hypothesis = MealyMachine("q", ab_alphabet, transitions)
        cex = RandomWordEquivalenceOracle(oracle, num_words=200, seed=1).find_counterexample(
            hypothesis
        )
        assert cex is not None
        # Shrunk: every proper prefix agrees.
        prefix = cex[:-1]
        assert oracle.query(prefix) == hypothesis.run(prefix)

    def test_random_batches_are_drawn_lazily(self, toy_machine, ab_alphabet, cached_oracle_for):
        """A counterexample in the first batch costs one batch of draws:
        a batch is drawn only after the previous one was checked."""
        syn, ack = ab_alphabet.symbols
        oracle = cached_oracle_for(toy_machine)
        hypothesis = MealyMachine(
            "q", ab_alphabet, {("q", syn): ("q", NIL), ("q", ack): ("q", NIL)}
        )
        eq = RandomWordEquivalenceOracle(oracle, num_words=320, seed=3, batch_size=32)
        twin = RandomWordEquivalenceOracle(oracle, num_words=320, seed=3, batch_size=32)
        first_batch = next(twin._batches())
        assert any(oracle.query(word) != hypothesis.run(word) for word in first_batch)
        assert eq.find_counterexample(hypothesis) is not None
        assert eq.words_submitted == 32
        assert eq.rng.getstate() == twin.rng.getstate()

    def test_fixed_words_oracle(self, toy_machine, ab_alphabet, cached_oracle_for):
        syn, ack = ab_alphabet.symbols
        oracle = cached_oracle_for(toy_machine)
        eq = FixedWordsEquivalenceOracle(oracle, [(syn, ack)])
        assert eq.find_counterexample(toy_machine) is None

    def test_chained_oracle_falls_through(self, toy_machine, cached_oracle_for):
        oracle = cached_oracle_for(toy_machine)
        chained = ChainedEquivalenceOracle(
            [
                RandomWordEquivalenceOracle(oracle, num_words=5, seed=2),
                WMethodEquivalenceOracle(oracle, 1),
            ]
        )
        assert chained.find_counterexample(toy_machine) is None


# ---------------------------------------------------------------------------
# Property-based: TTT with a perfect oracle recovers any random machine
# ---------------------------------------------------------------------------

_SYMS = [SYN, ACK]
_OUTS = [SYNACK, NIL, RST]


@st.composite
def random_machine(draw):
    num_states = draw(st.integers(min_value=1, max_value=7))
    alphabet = Alphabet.of(_SYMS)
    table = {}
    for state in range(num_states):
        for symbol in _SYMS:
            target = draw(st.integers(min_value=0, max_value=num_states - 1))
            output = draw(st.sampled_from(_OUTS))
            table[(state, symbol)] = (target, output)
    return MealyMachine(0, alphabet, table, "random")


@given(random_machine())
@settings(max_examples=40, deadline=None)
def test_ttt_recovers_random_machines(cached_oracle_for, machine):
    oracle = cached_oracle_for(machine)
    learner = TTTLearner(oracle, PerfectEquivalenceOracle(machine))
    result = learner.learn()
    assert equivalent(result.model, machine)
    assert result.model.num_states == machine.minimize().num_states


@given(random_machine())
@settings(max_examples=25, deadline=None)
def test_lstar_recovers_random_machines(cached_oracle_for, machine):
    oracle = cached_oracle_for(machine)
    learner = LStarLearner(oracle, PerfectEquivalenceOracle(machine))
    result = learner.learn()
    assert equivalent(result.model, machine)
