"""Tests for the query cache and nondeterminism detection layers."""

import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.learn.cache import (
    CacheInconsistencyError,
    CachedMembershipOracle,
    QueryCache,
)
from repro.learn.nondeterminism import (
    MajorityVoteOracle,
    NondeterminismError,
    NondeterminismPolicy,
    estimate_response_distribution,
)
from repro.learn.teacher import SULMembershipOracle


class TestQueryCache:
    def test_lookup_after_insert(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        cache = QueryCache()
        cache.insert((syn, ack), toy_machine.run((syn, ack)))
        assert cache.lookup((syn, ack)) == toy_machine.run((syn, ack))

    def test_prefix_answered(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        cache = QueryCache()
        cache.insert((syn, ack), toy_machine.run((syn, ack)))
        assert cache.lookup((syn,)) == toy_machine.run((syn,))

    def test_extension_misses(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        cache = QueryCache()
        cache.insert((syn,), toy_machine.run((syn,)))
        assert cache.lookup((syn, ack)) is None

    def test_conflict_detected(self, ab_alphabet, out_symbols):
        syn, _ = ab_alphabet.symbols
        synack, nil = out_symbols
        cache = QueryCache()
        cache.insert((syn,), (synack,))
        with pytest.raises(CacheInconsistencyError):
            cache.insert((syn,), (nil,))

    def test_conflict_message_shows_symbol_labels(self):
        """The error names the word and both outputs by their labels, not
        by the dataclass reprs of every symbol."""
        from repro.core.alphabet import parse_quic_output, quic_alphabet

        word = tuple(quic_alphabet().symbols[:5])
        first = [parse_quic_output("{}")] * 5
        second = first[:4] + [parse_quic_output("{STATELESS_RESET(?,?)[]}")]
        cache = QueryCache()
        cache.insert(word, first)
        with pytest.raises(CacheInconsistencyError) as caught:
            cache.insert(word, second)
        message = str(caught.value)
        assert " ".join(symbol.label for symbol in word) in message
        assert "cache says {}, SUL says {STATELESS_RESET(?,?)[]}" in message
        assert "QUICSymbol(" not in message and "QUICOutput(" not in message

    def test_insert_rejects_a_length_mismatch(self, ab_alphabet, out_symbols):
        """A word and outputs of different lengths are no observation;
        zipping them would store a truncated one for a word never asked."""
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        cache = QueryCache()
        with pytest.raises(ValueError, match="2 inputs has 1 outputs"):
            cache.insert((syn, ack), (synack,))
        assert cache.lookup((syn,)) is None
        assert (cache.entries, cache.nodes) == (0, 0)

    def test_clear(self, ab_alphabet, out_symbols):
        syn, _ = ab_alphabet.symbols
        synack, _ = out_symbols
        cache = QueryCache()
        cache.insert((syn,), (synack,))
        cache.clear()
        assert cache.lookup((syn,)) is None
        assert cache.entries == 0

    def test_merge_from_transfers_observations(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        source, destination = QueryCache(), QueryCache()
        source.insert((syn, ack), toy_machine.run((syn, ack)))
        destination.merge_from(source)
        assert destination.lookup((syn, ack)) == toy_machine.run((syn, ack))

    def test_merge_from_raises_on_disagreement(self, ab_alphabet, out_symbols):
        """Two caches answering the same word differently must never merge
        silently -- that is how a store of a changed SUL gets poisoned."""
        syn, _ = ab_alphabet.symbols
        synack, nil = out_symbols
        first, second = QueryCache(), QueryCache()
        first.insert((syn,), (synack,))
        second.insert((syn,), (nil,))
        with pytest.raises(CacheInconsistencyError):
            first.merge_from(second)

    def test_failed_merge_leaves_destination_untouched(
        self, ab_alphabet, out_symbols
    ):
        """The merge is atomic: a conflict anywhere in the source must not
        leave the destination with half the source's words inserted."""
        syn, ack = ab_alphabet.symbols
        synack, nil = out_symbols
        destination = QueryCache()
        destination.insert((syn,), (synack,))
        source = QueryCache()
        source.insert((ack,), (nil,))  # compatible: would be new
        source.insert((syn,), (nil,))  # conflicts with the destination
        with pytest.raises(CacheInconsistencyError):
            destination.merge_from(source)
        assert destination.lookup((ack,)) is None  # nothing leaked in
        assert destination.entries == 1


class TestCachedOracle:
    def test_second_query_is_a_hit(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul = MealySUL(toy_machine)
        oracle = CachedMembershipOracle(SULMembershipOracle(sul))
        oracle.query((syn, ack))
        oracle.query((syn, ack))
        assert oracle.hits == 1
        assert sul.stats.queries == 1

    def test_prefix_hit_avoids_sul(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul = MealySUL(toy_machine)
        oracle = CachedMembershipOracle(SULMembershipOracle(sul))
        oracle.query((syn, ack))
        oracle.query((syn,))
        assert sul.stats.queries == 1
        assert oracle.hit_rate == 0.5


class _ShortAnswers:
    """An inner oracle that drops the last answer of every batch."""

    def __init__(self, inner):
        self.inner = inner
        self.input_alphabet = inner.input_alphabet

    def query_batch(self, words):
        return self.inner.query_batch(words)[:-1]


class TestInnerOracleMisbehaviour:
    def test_unanswered_batch_word_raises(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        inner = _ShortAnswers(SULMembershipOracle(MealySUL(toy_machine)))
        oracle = CachedMembershipOracle(inner)
        with pytest.raises(RuntimeError, match="left .* unanswered"):
            oracle.query_batch([(syn, ack), (ack, ack)])

    def test_unanswered_batch_word_raises_under_optimize(self):
        """The check must survive ``python -O``, which strips asserts."""
        script = textwrap.dedent(
            """
            from repro.adapter.mealy_sul import MealySUL
            from repro.core.alphabet import Alphabet, TCPSymbol
            from repro.core.mealy import mealy_from_table
            from repro.learn.cache import CachedMembershipOracle
            from repro.learn.teacher import SULMembershipOracle

            syn, ack = TCPSymbol.make(["SYN"]), TCPSymbol.make(["ACK"])
            machine = mealy_from_table(
                "s", Alphabet.of([syn, ack]), [("s", syn, ack, "s"), ("s", ack, syn, "s")]
            )

            class Short:
                input_alphabet = machine.input_alphabet
                inner = SULMembershipOracle(MealySUL(machine))

                def query_batch(self, words):
                    return self.inner.query_batch(words)[:-1]

            try:
                print(CachedMembershipOracle(Short()).query_batch([(syn,), (ack,)]))
            except RuntimeError as error:
                print("raised:", error)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert result.stdout.startswith("raised:"), result.stdout

    def test_short_outputs_raise(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols

        class Truncating:
            input_alphabet = toy_machine.input_alphabet

            def query_batch(self, words):
                return [toy_machine.run(word)[:-1] for word in words]

        oracle = CachedMembershipOracle(Truncating())
        with pytest.raises(ValueError, match="2 inputs has 1 outputs"):
            oracle.query_batch([(syn, ack)])
        assert oracle.cache.lookup((syn,)) is None


class TestMajorityVote:
    def test_deterministic_passes_through(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        oracle = MajorityVoteOracle(
            SULMembershipOracle(MealySUL(toy_machine)),
            NondeterminismPolicy(min_repeats=2, max_repeats=4),
        )
        assert oracle.query((syn, ack)) == toy_machine.run((syn, ack))

    def test_nondeterminism_detected(
        self, toy_machine, ab_alphabet, out_symbols, make_flaky_sul
    ):
        syn, ack = ab_alphabet.symbols
        synack, nil = out_symbols
        flaky = make_flaky_sul(toy_machine, flip_symbol=ack, alt_output=synack, period=2)
        oracle = MajorityVoteOracle(
            SULMembershipOracle(flaky),
            NondeterminismPolicy(min_repeats=3, max_repeats=6, certainty=0.95),
        )
        with pytest.raises(NondeterminismError) as excinfo:
            oracle.query((syn, ack))
        assert excinfo.value.frequency_of_most_common() <= 0.95
        assert oracle.nondeterministic_queries == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            NondeterminismPolicy(min_repeats=0)
        with pytest.raises(ValueError):
            NondeterminismPolicy(certainty=0.4)
        with pytest.raises(ValueError):
            NondeterminismPolicy(min_repeats=5, max_repeats=2)

    def test_distribution_estimate(
        self, toy_machine, ab_alphabet, out_symbols, make_flaky_sul
    ):
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        flaky = make_flaky_sul(toy_machine, flip_symbol=ack, alt_output=synack, period=4)
        oracle = SULMembershipOracle(flaky)
        distribution = estimate_response_distribution(oracle, (syn, ack), 40)
        assert isinstance(distribution, Counter)
        assert sum(distribution.values()) == 40
        assert len(distribution) == 2
