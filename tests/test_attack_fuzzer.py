"""Frontier fuzzer: determinism, budget accounting, divergence detection."""

import json

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.attack.fuzzer import fuzz_frontier
from repro.core.alphabet import Alphabet, TCPSymbol, parse_tcp_symbol
from repro.core.mealy import mealy_from_table
from repro.framework import Prognosis
from repro.learn.cache import CachedMembershipOracle
from repro.learn.teacher import SULMembershipOracle
from repro.spec import ExperimentSpec

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["ACK", "SYN"])
NIL = parse_tcp_symbol("NIL")
RST = parse_tcp_symbol("RST(?,?,0)")

ALPHABET = Alphabet.of([SYN, ACK])


def machine(established_syn_output):
    return mealy_from_table(
        "s0",
        ALPHABET,
        [
            ("s0", SYN, SYNACK, "s1"),
            ("s0", ACK, NIL, "s0"),
            ("s1", SYN, established_syn_output, "s1"),
            ("s1", ACK, NIL, "s1"),
        ],
    )


def oracle_over(m) -> CachedMembershipOracle:
    return CachedMembershipOracle(SULMembershipOracle(MealySUL(m)))


class TestBudgetAndFrontier:
    def test_budget_caps_words_sent(self):
        model = machine(RST)
        report = fuzz_frontier(model, oracle_over(model), budget=10, seed=1)
        assert report.words_sent == 10
        assert report.budget == 10
        assert report.frontier_prefixes == model.num_states

    def test_zero_budget_sends_nothing(self):
        model = machine(RST)
        report = fuzz_frontier(model, oracle_over(model), budget=0, seed=1)
        assert report.words_sent == 0
        assert report.ok

    def test_empty_alphabet_sends_nothing(self):
        mute = mealy_from_table("s0", Alphabet.of([]), [])
        report = fuzz_frontier(mute, oracle_over(mute), budget=50, seed=1)
        assert report.words_sent == 0

    def test_small_word_space_exhausts_below_budget(self):
        # 1 state x 1 symbol x max_suffix 1 has exactly one candidate
        # word: the generator must stop, not spin forever.
        one = mealy_from_table("s0", Alphabet.of([SYN]), [("s0", SYN, NIL, "s0")])
        report = fuzz_frontier(
            one, oracle_over(one), budget=50, seed=1, max_suffix=1
        )
        assert report.words_sent == 1


class TestDivergences:
    def test_faithful_sul_yields_no_divergences(self):
        model = machine(RST)
        report = fuzz_frontier(model, oracle_over(model), budget=40, seed=3)
        assert report.ok
        assert report.divergences == []

    def test_lying_model_caught_at_the_frontier(self):
        # The model claims established SYNs draw RST; the live system
        # answers NIL.  Every fuzz word crossing that cell diverges.
        model = machine(RST)
        live = oracle_over(machine(NIL))
        report = fuzz_frontier(model, live, budget=40, seed=3)
        assert not report.ok
        divergence = report.divergences[0]
        assert RST in divergence.expected
        assert RST not in divergence.actual
        assert divergence.trace.outputs == divergence.actual
        assert divergence.to_dict()["actual"] == [str(s) for s in divergence.actual]
        assert "live answered" in divergence.render()


class TestDeterminism:
    def test_same_seed_same_report(self):
        model = machine(RST)
        first = fuzz_frontier(model, oracle_over(model), budget=30, seed=11)
        second = fuzz_frontier(model, oracle_over(model), budget=30, seed=11)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_different_seed_different_words(self):
        model = machine(RST)
        first = fuzz_frontier(model, oracle_over(model), budget=30, seed=1)
        second = fuzz_frontier(model, oracle_over(model), budget=30, seed=2)
        assert json.dumps(first.to_dict()) != json.dumps(second.to_dict())

    @pytest.mark.parametrize(
        "executor,workers", [("serial", 1), ("thread", 2), ("process", 2)]
    )
    def test_identical_across_executors(self, executor, workers):
        """Fixed seed => byte-identical fuzz report on every backend."""
        spec = ExperimentSpec(
            target="tcp",
            seed=7,
            name="tcp",
            workers=workers,
            executor={"kind": executor, "workers": workers},
        )
        with Prognosis.from_spec(spec) as prognosis:
            model = prognosis.learn().model
            blob = json.dumps(
                fuzz_frontier(
                    model, prognosis.oracle, budget=50, seed=7
                ).to_dict(),
                sort_keys=True,
            )
        TestDeterminism._blobs = getattr(TestDeterminism, "_blobs", {})
        TestDeterminism._blobs[executor] = blob
        assert len(set(TestDeterminism._blobs.values())) == 1
