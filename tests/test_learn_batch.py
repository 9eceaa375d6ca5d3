"""Tests for the batch-first query pipeline: planner, voting, consistency.

Covers the ``query_batch`` implementations of every oracle layer, the
cache-layer batch planner (dedup, trie hits, prefix collapse), the
stored-word ``entries`` counter, and the nondeterminism-detection paths in
both serial and batched form.
"""

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
)
from repro.learn.teacher import CountingOracle, SULMembershipOracle, mq_suffix_batch


class TestEntriesCounter:
    def test_entries_count_words_not_nodes(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        cache = QueryCache()
        cache.insert((syn, ack, syn), toy_machine.run((syn, ack, syn)))
        # One stored word, three trie nodes.
        assert cache.entries == 1
        assert cache.nodes == 3

    def test_reinsert_does_not_double_count(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        cache = QueryCache()
        cache.insert((syn, ack), toy_machine.run((syn, ack)))
        cache.insert((syn, ack), toy_machine.run((syn, ack)))
        assert cache.entries == 1

    def test_prefix_insert_is_its_own_word(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        cache = QueryCache()
        cache.insert((syn, ack), toy_machine.run((syn, ack)))
        cache.insert((syn,), toy_machine.run((syn,)))
        assert cache.entries == 2
        assert cache.nodes == 2

    def test_clear_resets_both(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        cache = QueryCache()
        cache.insert((syn, ack), toy_machine.run((syn, ack)))
        cache.clear()
        assert cache.entries == 0
        assert cache.nodes == 0


class TestBatchPlanner:
    def _oracle(self, machine):
        sul = MealySUL(machine)
        return sul, CachedMembershipOracle(SULMembershipOracle(sul))

    def test_batch_matches_serial(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (ack, ack), (syn, ack, syn)]
        _, oracle = self._oracle(toy_machine)
        assert oracle.query_batch(words) == [toy_machine.run(w) for w in words]

    def test_dedup_within_batch(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul, oracle = self._oracle(toy_machine)
        outputs = oracle.query_batch([(syn, ack), (syn, ack), (syn, ack)])
        assert outputs == [toy_machine.run((syn, ack))] * 3
        assert sul.stats.queries == 1
        assert oracle.batch_deduped == 2

    def test_prefix_collapse(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul, oracle = self._oracle(toy_machine)
        outputs = oracle.query_batch([(syn,), (syn, ack), (syn, ack, ack)])
        assert outputs == [
            toy_machine.run((syn,)),
            toy_machine.run((syn, ack)),
            toy_machine.run((syn, ack, ack)),
        ]
        # Only the maximal word touched the SUL.
        assert sul.stats.queries == 1
        assert oracle.prefix_collapsed == 2

    def test_collapse_can_be_disabled(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul = MealySUL(toy_machine)
        oracle = CachedMembershipOracle(
            SULMembershipOracle(sul), collapse_prefixes=False
        )
        oracle.query_batch([(syn,), (syn, ack)])
        assert sul.stats.queries == 2
        assert oracle.prefix_collapsed == 0

    def test_trie_hits_skip_the_sul(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul, oracle = self._oracle(toy_machine)
        oracle.query_batch([(syn, ack)])
        before = sul.stats.queries
        outputs = oracle.query_batch([(syn, ack), (syn,)])
        assert outputs == [toy_machine.run((syn, ack)), toy_machine.run((syn,))]
        assert sul.stats.queries == before
        assert oracle.hits >= 2

    def test_hit_rate_accounting(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        _, oracle = self._oracle(toy_machine)
        oracle.query_batch([(syn,), (syn, ack), (syn, ack)])
        # 1 executed (miss), 1 collapsed + 1 dup (hits).
        assert oracle.misses == 1
        assert oracle.hits == 2

    def test_counting_oracle_passthrough(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        counting = CountingOracle(SULMembershipOracle(MealySUL(toy_machine)))
        words = [(syn,), (syn, ack)]
        assert counting.query_batch(words) == [toy_machine.run(w) for w in words]
        assert counting.stats.queries == 2

    def test_mq_suffix_batch(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        _, oracle = self._oracle(toy_machine)
        answers = mq_suffix_batch(oracle, [((syn,), (ack,)), ((), (syn, ack))])
        assert answers[0] == toy_machine.run((syn, ack))[1:]
        assert answers[1] == toy_machine.run((syn, ack))


class TestNondeterminismSerialAndBatched:
    def test_cache_conflict_detected_serial(
        self, toy_machine, ab_alphabet, out_symbols, make_volatile_sul
    ):
        syn, ack = ab_alphabet.symbols
        synack, nil = out_symbols
        volatile = make_volatile_sul(toy_machine, flip_symbol=syn, alt_output=nil)
        oracle = CachedMembershipOracle(SULMembershipOracle(volatile))
        oracle.query((syn,))
        with pytest.raises(CacheInconsistencyError) as excinfo:
            oracle.query((syn, ack))
        assert excinfo.value.cached != excinfo.value.fresh

    def test_cache_conflict_detected_batched(
        self, toy_machine, ab_alphabet, out_symbols, make_volatile_sul
    ):
        syn, ack = ab_alphabet.symbols
        synack, nil = out_symbols
        volatile = make_volatile_sul(toy_machine, flip_symbol=syn, alt_output=nil)
        oracle = CachedMembershipOracle(SULMembershipOracle(volatile))
        oracle.query_batch([(syn,)])
        with pytest.raises(CacheInconsistencyError):
            oracle.query_batch([(syn, ack), (ack,)])

    def test_majority_vote_resolves_flaky_serial(
        self, toy_machine, ab_alphabet, out_symbols, make_flaky_sul
    ):
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        flaky = make_flaky_sul(toy_machine, flip_symbol=ack, alt_output=synack, period=3)
        oracle = MajorityVoteOracle(
            SULMembershipOracle(flaky),
            NondeterminismPolicy(min_repeats=3, max_repeats=10, certainty=0.6),
        )
        assert oracle.query((syn, ack)) == toy_machine.run((syn, ack))
        assert oracle.nondeterministic_queries == 0

    def test_majority_vote_resolves_flaky_batched(
        self, toy_machine, ab_alphabet, out_symbols, make_flaky_sul
    ):
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        flaky = make_flaky_sul(toy_machine, flip_symbol=ack, alt_output=synack, period=3)
        oracle = MajorityVoteOracle(
            SULMembershipOracle(flaky),
            NondeterminismPolicy(min_repeats=3, max_repeats=10, certainty=0.6),
        )
        # One flaky word alongside deterministic ones: the batch resolves
        # the majority answer for all of them.
        answers = oracle.query_batch([(syn, ack), (syn,), (ack,)])
        assert answers == [
            toy_machine.run((syn, ack)),
            toy_machine.run((syn,)),
            toy_machine.run((ack,)),
        ]
        assert oracle.nondeterministic_queries == 0

    def test_majority_vote_raises_batched(
        self, toy_machine, ab_alphabet, out_symbols, make_flaky_sul
    ):
        syn, ack = ab_alphabet.symbols
        synack, _ = out_symbols
        flaky = make_flaky_sul(toy_machine, flip_symbol=ack, alt_output=synack, period=2)
        oracle = MajorityVoteOracle(
            SULMembershipOracle(flaky),
            NondeterminismPolicy(min_repeats=3, max_repeats=6, certainty=0.95),
        )
        with pytest.raises(NondeterminismError) as excinfo:
            oracle.query_batch([(syn,), (syn, ack)])
        assert excinfo.value.frequency_of_most_common() <= 0.95
        assert oracle.nondeterministic_queries == 1

    def test_batched_matches_serial_for_deterministic_sul(
        self, toy_machine, ab_alphabet
    ):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (ack, syn), (syn, ack, syn)]
        serial = MajorityVoteOracle(
            SULMembershipOracle(MealySUL(toy_machine)),
            NondeterminismPolicy(min_repeats=2, max_repeats=4),
        )
        batched = MajorityVoteOracle(
            SULMembershipOracle(MealySUL(toy_machine)),
            NondeterminismPolicy(min_repeats=2, max_repeats=4),
        )
        assert batched.query_batch(words) == [serial.query(w) for w in words]
