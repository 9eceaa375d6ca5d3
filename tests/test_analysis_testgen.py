"""Tests for model-based test generation and differential testing."""


from repro.adapter.mealy_sul import MealySUL
from repro.analysis.testgen import generate_test_suite
from repro.core.alphabet import Alphabet, parse_tcp_symbol
from repro.core.mealy import MealyMachine
from repro.learn.teacher import replay


def mutate(machine, state, symbol, new_output):
    table = {
        (t.source, t.input): (t.target, t.output) for t in machine.transitions()
    }
    target, _ = table[(state, symbol)]
    table[(state, symbol)] = (target, new_output)
    return MealyMachine(machine.initial_state, machine.input_alphabet, table, "mutant")


class TestSuiteGeneration:
    def test_transition_cover_size(self, toy_machine):
        suite = generate_test_suite(toy_machine, "transition-cover")
        assert len(suite) == toy_machine.num_transitions

    def test_wmethod_suite_nonempty(self, toy_machine):
        suite = generate_test_suite(toy_machine, "wmethod")
        assert suite
        assert all(isinstance(w, tuple) for w in suite)

    def test_random_suite_is_seeded(self, toy_machine):
        a = generate_test_suite(toy_machine, "random", seed=1)
        b = generate_test_suite(toy_machine, "random", seed=1)
        c = generate_test_suite(toy_machine, "random", seed=2)
        assert a == b
        assert a != c


class TestSuiteEdgeCases:
    @staticmethod
    def empty_alphabet_machine() -> MealyMachine:
        return MealyMachine("s0", Alphabet.of([]), {}, name="mute")

    @staticmethod
    def single_state_machine() -> MealyMachine:
        symbol = parse_tcp_symbol("SYN(?,?,0)")
        nil = parse_tcp_symbol("NIL")
        return MealyMachine(
            "s0",
            Alphabet.of([symbol]),
            {("s0", symbol): ("s0", nil)},
            name="echo",
        )

    def test_empty_alphabet_yields_empty_suites(self):
        machine = self.empty_alphabet_machine()
        for kind in ("transition-cover", "wmethod", "random"):
            assert generate_test_suite(machine, kind) == []

    def test_single_state_transition_cover(self):
        machine = self.single_state_machine()
        suite = generate_test_suite(machine, "transition-cover")
        assert len(suite) == 1
        assert len(suite[0]) == 1

    def test_single_state_wmethod_nonempty_and_distinct(self):
        machine = self.single_state_machine()
        suite = generate_test_suite(machine, "wmethod")
        assert suite
        assert () not in suite
        assert len(suite) == len(set(suite))

    def test_extra_states_grow_the_wmethod_suite(self, toy_machine):
        sizes = [
            len(generate_test_suite(toy_machine, "wmethod", extra_states=k))
            for k in range(3)
        ]
        assert sizes[0] < sizes[1] < sizes[2]
        # Growth follows the middle sections Sigma^<=k: every word of the
        # smaller suite is still covered by some word of the larger one.
        smaller = set(generate_test_suite(toy_machine, "wmethod", extra_states=0))
        larger = set(generate_test_suite(toy_machine, "wmethod", extra_states=1))
        assert smaller <= larger

    def test_random_kind_seed_stability_across_parameters(self, toy_machine):
        base = generate_test_suite(
            toy_machine, "random", num_random=40, max_length=6, seed=9
        )
        again = generate_test_suite(
            toy_machine, "random", num_random=40, max_length=6, seed=9
        )
        assert base == again
        assert len(base) == 40
        assert all(1 <= len(word) <= 6 for word in base)
        assert all(
            symbol in toy_machine.input_alphabet
            for word in base
            for symbol in word
        )


class TestDifferentialTesting:
    def test_conforming_sul_passes(self, toy_machine):
        suite = generate_test_suite(toy_machine)
        report = replay(toy_machine, MealySUL(toy_machine), [suite])
        assert report.sent == len(suite)
        assert report.conforms
        assert report.divergence_rate == 0.0

    def test_mutant_is_caught(self, toy_machine, ab_alphabet, out_symbols):
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        mutant = mutate(toy_machine, "s1", ack, synack)
        report = replay(
            toy_machine, MealySUL(mutant), [generate_test_suite(toy_machine)]
        )
        assert not report.conforms
        divergence = report.divergences[0]
        assert divergence.expected != divergence.actual
        assert divergence.expected[divergence.first] != divergence.actual[divergence.first]
        assert divergence.prefix == divergence.word[: divergence.first + 1]
        assert "model predicted" in divergence.render()

    def test_max_divergences_caps_collection(self, toy_machine, ab_alphabet, out_symbols):
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        mutant = mutate(toy_machine, "s0", ack, synack)
        suite = generate_test_suite(toy_machine, "random", num_random=50, seed=4)
        report = replay(toy_machine, MealySUL(mutant), [suite], stop_after=2)
        assert len(report.divergences) == 2

    def test_report_rendering(self, toy_machine, ab_alphabet, out_symbols):
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        mutant = mutate(toy_machine, "s0", ack, synack)
        report = replay(
            toy_machine, MealySUL(mutant), [generate_test_suite(toy_machine)]
        )
        text = report.render()
        assert "divergences" in text
