"""Unit tests for traces and word utilities."""

import pytest

from repro.core.alphabet import TCPSymbol, parse_tcp_symbol
from repro.core.trace import (
    EMPTY_TRACE,
    IOTrace,
    all_words,
    common_prefix_length,
    count_words,
    render_word,
)

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
NIL = parse_tcp_symbol("NIL")


class TestIOTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IOTrace((SYN,), ())

    def test_prefixes_are_increasing(self):
        trace = IOTrace((SYN, ACK), (ACK, NIL))
        prefixes = list(trace.prefixes())
        assert [len(p) for p in prefixes] == [1, 2]
        assert prefixes[-1] == trace

    def test_extend(self):
        extended = EMPTY_TRACE.extend(SYN, ACK)
        assert len(extended) == 1
        assert extended.last_output == ACK

    def test_last_output_of_empty_raises(self):
        with pytest.raises(IndexError):
            _ = EMPTY_TRACE.last_output

    def test_render(self):
        trace = IOTrace((SYN,), (ACK,))
        assert "/" in trace.render()
        assert EMPTY_TRACE.render() == "ε"


class TestWordUtilities:
    def test_common_prefix_length(self):
        assert common_prefix_length("abcd", "abxy") == 2
        assert common_prefix_length("", "abc") == 0
        assert common_prefix_length("abc", "abc") == 3

    def test_render_word_empty(self):
        assert render_word(()) == "ε"

    def test_count_words_matches_paper(self):
        # The figure quoted in section 6.2.2.
        assert count_words(7, 10) == 329_554_456

    def test_count_words_small(self):
        assert count_words(2, 3) == 2 + 4 + 8

    def test_all_words_enumerates_exactly(self):
        words = list(all_words([SYN, ACK], 3))
        assert len(words) == count_words(2, 3)
        assert len(set(words)) == len(words)
        assert max(len(w) for w in words) == 3


class _Recorder:
    """A membership oracle over a SUL that records every word it is sent."""

    def __init__(self, sul):
        self.sul = sul
        self.input_alphabet = sul.input_alphabet
        self.words = []

    def query_batch(self, words):
        self.words += [tuple(word) for word in words]
        return self.sul.query_batch(words)


def _drawn_words():
    """The words each random-word call site draws at seed 3 (``SYN ACK``)."""
    from repro.adapter.mealy_sul import MealySUL, toy_machine
    from repro.analysis.properties import random_traces
    from repro.analysis.testgen import generate_test_suite
    from repro.attack.fuzzer import fuzz_frontier
    from repro.learn.bulk import log_sessions
    from repro.learn.equivalence import RandomWordEquivalenceOracle

    model = toy_machine()
    eq = _Recorder(MealySUL(model))
    RandomWordEquivalenceOracle(eq, num_words=4, min_length=2, max_length=5, seed=3) \
        .find_counterexample(model)
    fuzz = _Recorder(MealySUL(model))
    fuzz_frontier(model, fuzz, budget=4, seed=3, max_suffix=3)
    drawn = {
        "equivalence": eq.words,
        "testgen": generate_test_suite(model, "random", num_random=4, max_length=4, seed=3),
        "properties": [t.inputs for t in random_traces(model, 4, 4, seed=3)],
        "bulk": [t.inputs for t in log_sessions(MealySUL(model), 4, max_len=4, seed=3)],
        "fuzzer": fuzz.words,
    }
    return {
        site: [render_word(w).replace("(?,?,0)", "") for w in words]
        for site, words in drawn.items()
    }


def test_random_words_are_drawn_as_before():
    """The pins hold each call site's RNG call order (``randint`` for the
    length, then ``choice`` per symbol), so a seed keeps naming the same
    words."""
    assert _drawn_words() == {
        "equivalence": ["SYN ACK ACK", "SYN ACK", "SYN SYN ACK ACK", "SYN SYN SYN ACK SYN"],
        "testgen": ["SYN ACK", "SYN SYN ACK ACK", "SYN ACK", "ACK SYN SYN SYN"],
        "properties": ["SYN ACK", "SYN SYN ACK ACK", "SYN ACK", "ACK SYN SYN SYN"],
        "bulk": ["SYN ACK", "SYN SYN ACK ACK", "SYN ACK", "ACK SYN SYN SYN"],
        "fuzzer": ["SYN ACK", "SYN ACK ACK SYN SYN", "SYN ACK ACK SYN", "SYN SYN ACK"],
    }
