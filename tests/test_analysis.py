"""Tests for the analysis module: equivalence, diff, statistics, visualize."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import equivalence as equivalence_module
from repro.analysis.diff import behavioural_summary, diff_models
from repro.analysis.equivalence import (
    AlphabetMismatchError,
    bisimulation_classes,
    difference_witness,
    equivalent,
    find_difference,
)
from repro.analysis.statistics import trace_reduction
from repro.analysis.visualize import side_by_side, summary, to_dot, transition_table
from repro.core.alphabet import Alphabet, TCPSymbol, quic_alphabet
from repro.core.mealy import MealyMachine

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["SYN", "ACK"])
NIL = TCPSymbol(label="NIL")


def mutate_output(machine, state, symbol, new_output):
    table = {
        (t.source, t.input): (t.target, t.output) for t in machine.transitions()
    }
    target, _ = table[(state, symbol)]
    table[(state, symbol)] = (target, new_output)
    return MealyMachine(machine.initial_state, machine.input_alphabet, table, "mutant")


_SYMBOLS = (SYN, ACK)
_ALPHABET = Alphabet.of(list(_SYMBOLS))


@st.composite
def small_machine(draw):
    """A machine of 1-3 states over ``_ALPHABET`` with two outputs."""
    count = draw(st.integers(min_value=1, max_value=3))
    table = {
        (state, symbol): (
            draw(st.integers(min_value=0, max_value=count - 1)),
            draw(st.sampled_from([SYNACK, NIL])),
        )
        for state in range(count)
        for symbol in _SYMBOLS
    }
    return MealyMachine(0, _ALPHABET, table, "small")


class TestEquivalence:
    def test_machine_equivalent_to_itself(self, toy_machine):
        assert equivalent(toy_machine, toy_machine)

    def test_minimized_equivalent_to_original(self, redundant_machine):
        assert equivalent(redundant_machine, redundant_machine.minimize())

    def test_difference_found_and_is_shortest(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        mutant = mutate_output(toy_machine, "s1", ack, SYNACK)
        word = find_difference(toy_machine, mutant)
        assert word is not None
        assert len(word) == 2  # need syn then ack to reach the mutation
        assert toy_machine.run(word) != mutant.run(word)

    def test_alphabet_mismatch_rejected(self, toy_machine):
        other_alphabet = Alphabet.of([SYN])
        other = MealyMachine("q", other_alphabet, {("q", SYN): ("q", NIL)})
        with pytest.raises(AlphabetMismatchError):
            find_difference(toy_machine, other)

    def test_witness_contains_both_traces(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        mutant = mutate_output(toy_machine, "s0", syn, NIL)
        witness = difference_witness(toy_machine, mutant)
        assert witness is not None
        assert witness.trace_a.outputs != witness.trace_b.outputs
        assert "input word" in witness.render()

    def test_bisimulation_classes(self, redundant_machine):
        classes = bisimulation_classes(redundant_machine)
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 1, 2]  # s0 and s0b collapse


@given(small_machine(), small_machine())
@settings(max_examples=80, deadline=None)
def test_find_difference_is_the_first_diverging_word(a, b):
    """The witness is the first diverging word in (length, alphabet) order,
    and None exactly when no word up to length |A|*|B| diverges (a longer
    shortest witness would revisit a state pair)."""
    words = (
        word
        for length in range(1, a.num_states * b.num_states + 1)
        for word in itertools.product(_SYMBOLS, repeat=length)
    )
    first = next((word for word in words if a.run(word) != b.run(word)), None)
    assert find_difference(a, b) == first


class TestDiff:
    def test_diff_reports_sizes(self, toy_machine, redundant_machine):
        diff = diff_models(toy_machine, redundant_machine)
        assert diff.states_a == 3
        assert diff.states_b == 4
        assert diff.size_gap == 1
        assert diff.equivalent  # behaviourally equal despite size gap

    def test_diff_collects_witnesses(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        mutant = mutate_output(toy_machine, "s1", ack, SYNACK)
        diff = diff_models(toy_machine, mutant, max_witnesses=3)
        assert not diff.equivalent
        assert 1 <= len(diff.witnesses) <= 3
        assert "divergence" in diff.render()

    def test_diff_searches_the_product_once(self, toy_machine, ab_alphabet, monkeypatch):
        syn, ack = ab_alphabet.symbols
        mutant = mutate_output(toy_machine, "s1", ack, SYNACK)
        calls = []
        search = equivalence_module.shortest_path

        def counted(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(equivalence_module, "shortest_path", counted)
        diff = diff_models(toy_machine, mutant)
        assert len(calls) == 1
        assert diff.witnesses[0].word == find_difference(toy_machine, mutant)

    def test_behavioural_summary_constant_output_detection(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        summary_map = behavioural_summary(toy_machine)
        assert summary_map[ack] == {NIL}  # ack only ever yields NIL


class TestStatistics:
    def test_trace_reduction_totals(self, toy_machine):
        reduction = trace_reduction(toy_machine, max_length=10)
        assert reduction.alphabet_size == 2
        assert reduction.total_traces == sum(2**k for k in range(1, 11))
        assert reduction.model_traces > 0
        assert reduction.reduction_factor > 1
        assert "reduction" in reduction.render()

    def test_paper_scale_reduction(self):
        # 7-symbol alphabet: the paper's 329,554,456 figure.
        alphabet = quic_alphabet()
        machine = MealyMachine(
            "q",
            alphabet,
            {("q", s): ("q", NIL) for s in alphabet},
            "trivial",
        )
        reduction = trace_reduction(machine, max_length=10)
        assert reduction.total_traces == 329_554_456


class TestVisualize:
    def test_transition_table_renders_all_states(self, toy_machine):
        text = transition_table(toy_machine)
        for state in toy_machine.states:
            assert str(state) in text

    def test_side_by_side_marks_differences(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        mutant = mutate_output(toy_machine, "s0", syn, NIL)
        text = side_by_side(toy_machine, mutant)
        assert "*" in text

    def test_summary(self, toy_machine):
        assert "3 states" in summary(toy_machine)

    def test_to_dot(self, toy_machine):
        assert to_dot(toy_machine).startswith("digraph")
