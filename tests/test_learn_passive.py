"""Tests for passive learning and active-learning bootstrap (section 8)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter.mealy_sul import MealySUL
from repro.core.alphabet import Alphabet, TCPSymbol, parse_tcp_symbol
from repro.core.mealy import MealyMachine
from repro.core.trace import IOTrace
from repro.framework import Prognosis
from repro.learn.cache import CachedMembershipOracle, CacheInconsistencyError
from repro.learn.passive import (
    TraceConflictError,
    rpni_mealy,
    seed_cache_from_traces,
)
from repro.learn.teacher import SULMembershipOracle
from repro.spec import ExperimentSpec

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["ACK", "SYN"])
NIL = parse_tcp_symbol("NIL")
RST = parse_tcp_symbol("RST(?,?,0)")
AB = Alphabet.of([SYN, ACK])


def logged_traces(machine, num=60, max_len=8, seed=5):
    """Random-walk logs from a reference machine."""
    rng = random.Random(seed)
    symbols = list(machine.input_alphabet)
    traces = []
    for _ in range(num):
        word = tuple(
            rng.choice(symbols) for _ in range(rng.randint(1, max_len))
        )
        traces.append(IOTrace(word, machine.run(word)))
    return traces


class TestPrefixTree:
    def test_conflicting_log_rejected(self, toy_machine, ab_alphabet, out_symbols):
        syn, _ = ab_alphabet.symbols
        synack, nil = out_symbols
        good = IOTrace((syn,), (synack,))
        bad = IOTrace((syn,), (nil,))
        with pytest.raises(ValueError):
            rpni_mealy([good, bad], ab_alphabet)


class TestRPNI:
    def test_learns_toy_machine_from_logs(self, toy_machine, ab_alphabet):
        traces = logged_traces(toy_machine, num=80)
        learned = rpni_mealy(traces, ab_alphabet)
        # Rich logs should collapse to (about) the true state count.
        assert learned.num_states <= 2 * toy_machine.num_states
        test_words = [t.inputs for t in logged_traces(toy_machine, num=40, seed=9)]
        assert learned.accuracy(toy_machine, test_words) >= 0.9

    def test_prediction_matches_logs_exactly(self, toy_machine, ab_alphabet):
        traces = logged_traces(toy_machine, num=30)
        learned = rpni_mealy(traces, ab_alphabet)
        for trace in traces:
            predicted = learned.predict(trace.inputs)
            assert predicted == trace.outputs

    def test_unknown_words_predict_none_or_correct(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        traces = [IOTrace((syn,), toy_machine.run((syn,)))]
        learned = rpni_mealy(traces, ab_alphabet)
        long_word = (syn, ack, ack, syn, syn, ack)
        predicted = learned.predict(long_word)
        assert predicted is None or predicted == toy_machine.run(long_word)

    def test_to_complete_fills_gaps(self, toy_machine, ab_alphabet, out_symbols):
        _, nil = out_symbols
        traces = logged_traces(toy_machine, num=10, max_len=3)
        learned = rpni_mealy(traces, ab_alphabet)
        complete = learned.to_complete(sink_output=nil)
        # Complete machines answer everything.
        syn, ack = ab_alphabet.symbols
        assert len(complete.run((syn, ack, syn, ack))) == 4


class TestTraceConflictError:
    def test_carries_structured_context(self):
        traces = [
            IOTrace((SYN, ACK), (SYNACK, NIL)),
            IOTrace((SYN, ACK), (SYNACK, RST)),
        ]
        with pytest.raises(TraceConflictError) as excinfo:
            rpni_mealy(traces, AB)
        error = excinfo.value
        assert isinstance(error, ValueError)  # callers catching ValueError keep working
        assert error.prefix == (SYN, ACK)
        assert error.cached == NIL
        assert error.fresh == RST
        assert error.trace_index == 1
        assert "nondeterministic log" in str(error)
        assert "trace #1" in str(error)

    def test_index_optional_for_unnumbered_sources(self):
        error = TraceConflictError((SYN,), SYNACK, NIL)
        assert error.trace_index is None
        assert "trace #" not in str(error)


def random_reference_machine(seed, max_states=4):
    """A random total Mealy machine over the SYN/ACK alphabet."""
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(rng.randint(1, max_states))]
    outputs = (SYNACK, NIL, RST)
    table = {
        (state, symbol): (rng.choice(states), rng.choice(outputs))
        for state in states
        for symbol in (SYN, ACK)
    }
    return MealyMachine("s0", AB, table)


class TestHardenedFold:
    def test_deep_chain_folds_without_recursion_error(self):
        # Regression: try_fold used to recurse per merged state and caught
        # RecursionError as a merge conflict, so one long session made
        # every fold "fail" and the tree came back unmerged (1501 states).
        deep = IOTrace((SYN,) * 1500, (SYNACK,) * 1500)
        learned = rpni_mealy([deep], AB)
        assert learned.num_states == 1
        assert learned.predict((SYN,) * 2000) == (SYNACK,) * 2000

    def test_deep_merge_is_not_misreported_as_conflict(self):
        # Two long compatible sessions must merge, not be rejected.
        traces = [
            IOTrace((SYN,) * 1200, (SYNACK,) * 1200),
            IOTrace((SYN, ACK) * 600, (SYNACK, NIL) * 600),
        ]
        learned = rpni_mealy(traces, AB)
        assert learned.num_states <= 2
        for trace in traces:
            assert learned.predict(trace.inputs) == trace.outputs

    def test_transitions_never_leak_outside_the_machine(self):
        # Regression for the vacuous `target in red or target in edges`
        # filter: every transition target must be a state of the merged
        # machine, across adversarial random corpora.
        for seed in range(40):
            machine = random_reference_machine(seed)
            traces = logged_traces(machine, num=50, max_len=12, seed=seed)
            learned = rpni_mealy(traces, AB)
            states = learned.states
            for (source, _), (target, _) in learned.transitions.items():
                assert source in states
                assert target in states
            # And the machine stays sound on every logged word.
            for trace in traces:
                assert learned.predict(trace.inputs) == trace.outputs

    def test_fold_is_deterministic(self):
        machine = random_reference_machine(7)
        traces = logged_traces(machine, num=60, seed=3)
        first = rpni_mealy(traces, AB)
        second = rpni_mealy(traces, AB)
        assert first.to_dict() == second.to_dict()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_round_trip_recovers_reference_behaviour(self, seed):
        # Traces sampled from a known machine merge back into a partial
        # machine that agrees with the reference on every sampled word.
        machine = random_reference_machine(seed)
        traces = logged_traces(machine, num=40, max_len=10, seed=seed)
        learned = rpni_mealy(traces, AB)
        for trace in traces:
            assert learned.predict(trace.inputs) == machine.run(trace.inputs)
        states = learned.states
        assert all(
            target in states for (_, _), (target, _) in learned.transitions.items()
        )


class TestPartialMachineEdgeCases:
    def test_empty_trace_set(self):
        learned = rpni_mealy([], AB)
        assert learned.num_states == 1
        assert learned.completeness == 0.0
        assert learned.predict((SYN,)) is None
        assert learned.predict(()) == ()
        assert learned.accuracy(random_reference_machine(0), []) == 0.0
        complete = learned.to_complete(sink_output=NIL)
        assert complete.run((SYN, ACK)) == (NIL, NIL)

    def test_single_symbol_alphabet(self):
        alphabet = Alphabet.of([SYN])
        traces = [IOTrace((SYN, SYN, SYN), (SYNACK, SYNACK, SYNACK))]
        learned = rpni_mealy(traces, alphabet)
        assert learned.num_states == 1
        assert learned.completeness == 1.0
        assert learned.undetermined_cells() == []
        reference = MealyMachine(
            "s0", alphabet, {("s0", SYN): ("s0", SYNACK)}
        )
        assert learned.accuracy(reference, [(SYN,), (SYN, SYN)]) == 1.0

    def test_access_words_and_undetermined_cells(self, toy_machine):
        traces = [IOTrace((SYN, ACK), toy_machine.run((SYN, ACK)))]
        learned = rpni_mealy(traces, AB)
        access = learned.access_words()
        assert access[learned.initial_state] == ()
        for state, word in access.items():
            # Each access word actually reaches its state.
            current = learned.initial_state
            for symbol in word:
                current, _ = learned.transitions[(current, symbol)]
            assert current == state
        cells = learned.undetermined_cells()
        determined = sum(
            1
            for state in access
            for symbol in AB
            if (state, symbol) in learned.transitions
        )
        assert determined + len(cells) == len(access) * len(AB)


class TestBootstrap:
    def test_seeding_reduces_sul_queries(self, toy_machine, ab_alphabet):
        # Active learning without logs.
        plain = Prognosis(
            ExperimentSpec(target="toy", name="plain"), sul=MealySUL(toy_machine)
        )
        plain_report = plain.learn()

        # Active learning with the cache seeded from logs.
        boosted = Prognosis(
            ExperimentSpec(target="toy", name="boosted"), sul=MealySUL(toy_machine)
        )
        inserted = seed_cache_from_traces(
            boosted.cache_oracle.cache, logged_traces(toy_machine, num=100)
        )
        assert inserted == 100
        boosted_report = boosted.learn()

        assert boosted_report.model.num_states == plain_report.model.num_states
        assert boosted_report.sul_queries < plain_report.sul_queries

    def test_conflicting_log_detected_at_seed_time(
        self, toy_machine, ab_alphabet, out_symbols
    ):
        syn, _ = ab_alphabet.symbols
        synack, nil = out_symbols
        oracle = CachedMembershipOracle(
            SULMembershipOracle(MealySUL(toy_machine))
        )
        seed_cache_from_traces(oracle.cache, [IOTrace((syn,), (synack,))])
        with pytest.raises(CacheInconsistencyError):
            seed_cache_from_traces(oracle.cache, [IOTrace((syn,), (nil,))])
