"""Tests for the SUL pool: parallel fan-out behind the single-SUL interface."""

from functools import partial
from unittest import mock

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.executor import ExecutorError, ThreadExecutor
from repro.adapter.pool import SULPool, _run_shard, _Shard
from repro.adapter.tcp_adapter import TCPAdapterSUL
from repro.core.alphabet import AbstractSymbol
from repro.learn.teacher import SULMembershipOracle


def _pool_for(machine, workers):
    return SULPool(lambda: MealySUL(machine), workers=workers)


@pytest.fixture(params=["serial", "thread", "process"])
def any_backend(request):
    return request.param


class TestBatchExecutor:
    def test_preserves_order(self):
        executor = ThreadExecutor(workers=4)
        try:
            assert executor.map(lambda x: x * x, list(range(20))) == [
                x * x for x in range(20)
            ]
        finally:
            executor.close()

    def test_single_worker_runs_without_threads(self):
        executor = ThreadExecutor(workers=1)
        assert executor.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert executor._pool is None

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ThreadExecutor(workers=0)


class TestSULPool:
    def test_matches_single_sul(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, syn, syn), (syn, ack, ack)]
        single = MealySUL(toy_machine)
        pool = _pool_for(toy_machine, workers=4)
        assert pool.query_batch(words) == [single.query(w) for w in words]
        pool.close()

    def test_deterministic_result_ordering(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn,) * n + (ack,) for n in range(12)]
        pool = _pool_for(toy_machine, workers=4)
        expected = [toy_machine.run(w) for w in words]
        for _ in range(3):  # repeated batches stay index-aligned
            assert pool.query_batch(words) == expected
        pool.close()

    def test_stats_are_merged_across_workers(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn, ack)] * 10
        pool = _pool_for(toy_machine, workers=3)
        pool.query_batch(words)
        assert pool.stats.queries == 10
        assert pool.stats.resets == 10
        assert pool.stats.steps == 20
        assert sum(pool.per_worker_queries()) == 10
        pool.close()

    def test_oracle_tables_are_merged(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, ack)]
        pool = _pool_for(toy_machine, workers=2)
        pool.query_batch(words)
        for word in words:
            entry = pool.oracle_table.lookup(word)
            assert entry is not None
            assert entry.abstract.outputs == toy_machine.run(word)
        pool.close()

    def test_deterministic_shard_assignment(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=4)
        pool.query_batch([(syn,)] * 8)
        # Shard sizes differ by at most one: a balanced batch loads every
        # worker equally, independent of thread timing.
        assert pool.per_worker_queries() == [2, 2, 2, 2]
        pool.close()

    def test_single_query_routes_through_pool(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=2)
        assert pool.query((syn, ack)) == toy_machine.run((syn, ack))
        assert pool.stats.queries == 1
        pool.close()

    def test_empty_batch(self, toy_machine):
        pool = _pool_for(toy_machine, workers=2)
        assert pool.query_batch([]) == []
        pool.close()

    def test_step_interface_for_random_walks(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=2)
        pool.reset()
        outputs = [pool.step(syn), pool.step(ack)]
        assert tuple(outputs) == toy_machine.run((syn, ack))
        pool.close()

    def test_rejects_zero_workers(self, toy_machine):
        with pytest.raises(ValueError):
            SULPool(lambda: MealySUL(toy_machine), workers=0)

    def test_behind_membership_oracle(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=4)
        oracle = SULMembershipOracle(pool)
        words = [(syn,), (syn, ack)]
        assert oracle.query_batch(words) == [toy_machine.run(w) for w in words]
        assert oracle.stats.queries == 2
        pool.close()


class TestSharding:
    """Shards keep words with a shared prefix together, and in-process
    workers share one transition memo."""

    def test_shards_are_contiguous_runs_of_the_sorted_batch(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(ack, syn), (syn, ack), (ack, ack), (syn, syn), (syn,)]
        pool = _pool_for(toy_machine, workers=2)
        # Sorted by alphabet rank: (syn,) (syn, syn) (syn, ack) | (ack, syn) (ack, ack)
        assert pool._shards(words) == [[4, 3, 1], [0, 2]]
        assert pool._shards(words[:1]) == [[0]]
        pool.close()

    @pytest.mark.parametrize(
        "backend, second_batch_steps",
        [("serial", 2), ("thread", 2), ("process", 6)],
    )
    def test_in_process_workers_share_one_memo(self, backend, second_batch_steps):
        # Worker 0 alone runs the prefix; the next batch sends one
        # extension to each worker.  An in-process worker 1 finds the
        # prefix's transitions in the shared memo and steps only the last
        # symbol; a worker process replays the prefix first.
        pool = SULPool(partial(TCPAdapterSUL, seed=3), workers=2, backend=backend)
        single = TCPAdapterSUL(seed=3)
        symbols = pool.input_alphabet.symbols
        prefix = (symbols[0], symbols[1], symbols[2], symbols[1])
        batches = [[prefix], [prefix + (symbols[0],), prefix + (symbols[3],)]]
        try:
            assert pool.query_batch(batches[0]) == single.query_batch(batches[0])
            before = pool.stats.physical_steps
            assert pool.query_batch(batches[1]) == single.query_batch(batches[1])
            assert pool.stats.physical_steps - before == second_batch_steps
            assert pool.per_worker_queries() == [2, 1]
            for word in batches[1]:
                assert pool.oracle_table.lookup(word) == single.oracle_table.lookup(word)
        finally:
            pool.close()

    def test_shared_memo_stays_bounded(self):
        # The workers' one memo holds SNAPSHOT_CAPACITY states in all.
        pool = SULPool(partial(TCPAdapterSUL, seed=3), workers=2, backend="thread")
        symbols = pool.input_alphabet.symbols
        words = [(symbol,) * 3 for symbol in symbols] + [(symbols[0], symbol) for symbol in symbols]
        with mock.patch("repro.adapter.sul.SNAPSHOT_CAPACITY", 3):
            answers = pool.query_batch(words)
        workers = pool._suls
        assert workers[1]._states is workers[0]._states
        assert len(workers[0]._states) == 3
        assert answers == TCPAdapterSUL(seed=3).query_batch(words)
        pool.close()


class TestSULPoolBackends:
    """Every executor backend answers and accounts like a single SUL.

    The toy-machine factory is a closure: fine for serial/thread, and for
    ``process`` it exercises the documented fork-start-method guarantee
    (Process args are inherited, not pickled).
    """

    def _pool(self, machine, backend, workers=4):
        pool = SULPool(
            lambda: MealySUL(machine), workers=workers, backend=backend
        )
        assert pool.backend == backend
        return pool

    def test_matches_single_sul(self, toy_machine, ab_alphabet, any_backend):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, syn, syn), (syn, ack, ack)]
        single = MealySUL(toy_machine)
        pool = self._pool(toy_machine, any_backend)
        assert pool.query_batch(words) == [single.query(w) for w in words]
        pool.close()

    def test_stats_and_load_balance(self, toy_machine, ab_alphabet, any_backend):
        syn, ack = ab_alphabet.symbols
        pool = self._pool(toy_machine, any_backend)
        pool.query_batch([(syn, ack)] * 8)
        assert pool.stats.queries == 8
        assert pool.stats.resets == 8
        assert pool.stats.steps == 16
        # shard sizes differ by at most one, so a balanced batch loads all equally
        assert pool.per_worker_queries() == [2, 2, 2, 2]
        pool.close()

    def test_oracle_tables_are_merged(self, toy_machine, ab_alphabet, any_backend):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, ack)]
        pool = self._pool(toy_machine, any_backend, workers=2)
        pool.query_batch(words)
        for word in words:
            entry = pool.oracle_table.lookup(word)
            assert entry is not None
            assert entry.abstract.outputs == toy_machine.run(word)
        pool.close()

    def test_repeated_batches_stay_aligned(
        self, toy_machine, ab_alphabet, any_backend
    ):
        syn, ack = ab_alphabet.symbols
        words = [(syn,) * n + (ack,) for n in range(12)]
        pool = self._pool(toy_machine, any_backend)
        expected = [toy_machine.run(w) for w in words]
        for _ in range(3):
            assert pool.query_batch(words) == expected
        pool.close()

    def test_step_interface_runs_on_the_parent(
        self, toy_machine, ab_alphabet, any_backend
    ):
        syn, ack = ab_alphabet.symbols
        pool = self._pool(toy_machine, any_backend, workers=2)
        pool.reset()
        outputs = [pool.step(syn), pool.step(ack)]
        assert tuple(outputs) == toy_machine.run((syn, ack))
        assert pool.stats.steps == 2
        pool.close()

    def test_process_parent_and_worker_stats_accumulate(
        self, toy_machine, ab_alphabet
    ):
        syn, ack = ab_alphabet.symbols
        pool = self._pool(toy_machine, "process", workers=2)
        pool.query_batch([(syn,), (ack,)])
        pool.reset()
        pool.step(syn)
        assert pool.stats.queries == 2
        assert pool.stats.resets == 3  # 2 shipped from workers + 1 parent
        assert pool.stats.steps == 3
        pool.close()


class _UnrecordedSUL(MealySUL):
    """Answers a batch without recording Oracle-Table entries."""

    def query_batch(self, words):
        self.stats.queries += len(words)
        return [self.machine.run(word) for word in words]


class TestShardWireFormat:
    """A shard comes back as its distinct steps and each word's indices
    into them; the parent rebuilds the entries into the pool's table."""

    def test_a_shard_ships_each_step_once_and_clears_the_worker_table(self):
        sul = TCPAdapterSUL(seed=3)
        syn, synack = sul.input_alphabet.symbols[:2]
        words = [(syn,), (syn, synack), (syn,)]
        steps, ids_per_word, delta = _run_shard(sul, _Shard(0, words))
        assert ids_per_word == [(0,), (0, 1), (0,)]
        assert [step.input_symbol for step in steps] == [syn, synack]
        assert delta["queries"] == 3
        assert len(sul.oracle_table) == 0

    def test_words_through_one_step_share_it_in_the_pool_table(self, any_backend):
        pool = SULPool(partial(TCPAdapterSUL, seed=3), workers=2, backend=any_backend)
        single = TCPAdapterSUL(seed=3)
        syn, synack = pool.input_alphabet.symbols[:2]
        # Two shards: (syn,) (syn, synack) | (synack,) (synack, syn)
        words = [(synack, syn), (syn,), (synack,), (syn, synack)]
        try:
            assert pool.query_batch(words) == single.query_batch(words)
            table = pool.oracle_table
            assert [table.lookup(word) for word in words] == [
                single.oracle_table.lookup(word) for word in words
            ]
            assert table.lookup((syn,)).steps[0] is table.lookup((syn, synack)).steps[0]
            assert table.lookup((synack,)).steps[0] is table.lookup((synack, syn)).steps[0]
            assert table.lookup((syn, synack)).steps[1].input_symbol is synack
            assert all(len(sul.oracle_table) == 0 for sul in pool._suls)
        finally:
            pool.close()

    def test_a_sul_that_records_no_entry_still_answers(self, toy_machine, ab_alphabet, any_backend):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, syn, syn), (syn, ack, ack)]
        pool = SULPool(lambda: _UnrecordedSUL(toy_machine), workers=2, backend=any_backend)
        try:
            assert pool.query_batch(words) == [toy_machine.run(word) for word in words]
            assert len(pool.oracle_table) == 0
            assert pool.stats.queries == len(words)
        finally:
            pool.close()

    def test_a_failing_shard_is_named_by_its_words_labels(self, any_backend):
        pool = SULPool(partial(TCPAdapterSUL, seed=3), workers=2, backend=any_backend)
        syn, _, ack = pool.input_alphabet.symbols[:3]
        try:
            with pytest.raises(ExecutorError) as excinfo:
                pool.query_batch([(syn,), (ack, AbstractSymbol("BOGUS"))])
        finally:
            pool.close()
        assert excinfo.value.failures == [
            (1, "shard 1: ACK(?,?,0) BOGUS", "TypeError: TCP adapter got non-TCP symbol: BOGUS")
        ]
