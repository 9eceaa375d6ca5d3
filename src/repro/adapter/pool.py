"""Parallel SUL execution: a pool of identical SUL instances.

Membership queries are independent of each other (each starts with a
reset), so a batch of words can be fanned out across several SUL instances
and executed concurrently.  :class:`SULPool` looks like a single
:class:`~repro.adapter.sul.SUL` to the oracle stack but answers
``query_batch`` by dispatching onto N workers built by a ``sul_factory``.

The pool runs on a pluggable :class:`~repro.adapter.executor
.ExecutorBackend`:

* ``thread`` (default) -- N SUL instances in-process, one shard per pool
  thread.  Scales for queries that wait on I/O (network round-trips,
  subprocess turnarounds, the :class:`~repro.adapter.remote.SocketSUL`
  boundary); pure-Python simulators stay correct but gain little, because
  the GIL serializes them.
* ``process`` -- N worker *processes*, each building its own SUL from the
  (picklable) ``sul_factory`` in the child, so the work truly runs on all
  cores.
* ``serial`` -- a plain loop over the same sharding; the debugging
  reference.

Every backend runs the same shard function: it returns the shard's
distinct concrete steps once, each word as indices into them, and its
:class:`~repro.adapter.sul.SULStats` delta, and the pool rebuilds the
entries in its own Oracle Table in batch order.  The pool's stats are
the sum of the workers' deltas and the parent-side instance's -- so the
accounting the paper tables report (queries, steps, resets), the Oracle
Table and the learned model are identical whether a run was serial,
threaded or process-parallel.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

from ..core.alphabet import AbstractSymbol
from ..core.extended import ConcreteStep
from ..core.trace import Word
from .executor import ProcessExecutor, build_executor
from .sul import SUL, SULStats


def _measured(sul: SUL, fn: Callable, *args) -> tuple[object, dict[str, int]]:
    """``fn(*args)`` and the :class:`SULStats` delta it cost ``sul``."""
    before = sul.stats.snapshot()
    result = fn(*args)
    after = sul.stats.snapshot()
    return result, {key: after[key] - before[key] for key in after}


class _Shard(NamedTuple):
    """One worker's part of a batch, named in errors by its words' labels."""

    index: int
    words: list[Word]

    def __repr__(self) -> str:
        return f"shard {self.index}: " + " | ".join(" ".join(map(str, w)) for w in self.words)


def _run_shard(sul: SUL, shard: _Shard) -> tuple[list[ConcreteStep], list, dict[str, int]]:
    """Run ``shard`` as one batch on a worker's SUL (a trie walk where it
    can snapshot) and clear the worker's Oracle Table.  Returns the
    shard's distinct steps in first-use order (their symbols unpickle to
    the parent's interned ones), each word as a tuple of indices into
    them (a list of its outputs where the SUL recorded no entry) and the
    stats delta.  Module-level, hence picklable.
    """
    answers, delta = _measured(sul, sul.query_batch, shard.words)
    entries = [sul.oracle_table.lookup(word) for word in shard.words]
    sul.oracle_table.clear()
    steps = {id(step): step for entry in entries if entry is not None for step in entry.steps}
    index_of = {key: index for index, key in enumerate(steps)}
    ids_per_word = [
        list(outputs) if entry is None else tuple(index_of[id(step)] for step in entry.steps)
        for outputs, entry in zip(answers, entries)
    ]
    return list(steps.values()), ids_per_word, delta


class SULPool(SUL):
    """N identical SULs behind the single-SUL interface.

    A batch is sharded deterministically: sorted by the words' symbol
    ranks in the alphabet, so words that share a prefix stay together,
    and cut into ``n`` contiguous shards (``n`` = active workers for the
    batch) whose sizes differ by at most one; shard ``k`` runs on worker
    ``k``, on its own thread or process.  In-process workers (``thread``,
    ``serial``) share one transition memo
    (:meth:`~repro.adapter.sul.SUL.share_memo`), so a transition one
    worker took is not stepped again by another; worker processes keep
    their own, since shipping a snapshot costs about as much as a
    simulated step.
    Deterministic assignment matters beyond taste -- for SULs whose RNG
    state persists across resets (mvfst's stateless resets), a
    timing-dependent assignment would make the observed response
    distribution vary between identically-seeded runs.
    Every worker is built by the same ``sul_factory`` and must behave
    identically, so for deterministic SULs the pool's answers do not
    depend on the assignment at all.

    ``backend`` picks the executor (``"thread"``, ``"process"`` or
    ``"serial"``).  The ``process`` backend builds each worker's SUL
    *inside* the worker process (the factory must be picklable -- a
    module-level function, :class:`functools.partial` over one, or a
    :class:`~repro.registry.RegistryFactory`; under the default ``fork``
    start method closures work too) and supports ``timeout_s``: a shard
    exceeding it gets its worker killed, respawned and retried once.
    """

    def __init__(
        self,
        sul_factory: Callable[[], SUL],
        workers: int = 4,
        name: str | None = None,
        backend: str = "thread",
        timeout_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.backend = backend
        if backend == "process":
            # One parent-side instance serves the single-SUL interface
            # (alphabet, reset/step for random walks); the N query-serving
            # instances live in the worker processes.
            suls = [sul_factory()]
            self._executor = ProcessExecutor(
                workers, initializer=sul_factory, timeout_s=timeout_s
            )
            self._run_shard = _run_shard
        else:
            suls = [sul_factory() for _ in range(workers)]
            for sul in suls[1:]:
                sul.share_memo(suls[0])
            self._executor = build_executor(backend, workers)
            self._run_shard = lambda shard: _run_shard(self._suls[shard.index], shard)
        super().__init__(suls[0].input_alphabet, name=name or suls[0].name)
        self._suls = suls
        #: What each worker's shards cost, and what the single-SUL
        #: interface cost the parent-side instance; their sum is the pool's
        #: stats on every backend.
        self._worker_stats = [SULStats() for _ in range(workers)]
        self._parent_stats = SULStats()
        self._rank = {symbol: rank for rank, symbol in enumerate(self.input_alphabet)}

    # -- batched execution -------------------------------------------------
    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        words = [tuple(word) for word in words]
        if not words:
            return []
        parts = self._shards(words)
        shards = [_Shard(index, [words[p] for p in part]) for index, part in enumerate(parts)]
        results: list = [None] * len(words)  # per word: (its shard's steps, its step ids)
        payloads = self._executor.map(self._run_shard, shards)
        for part, (steps, ids_per_word, delta), stats in zip(parts, payloads, self._worker_stats):
            stats.add(delta)
            for position, ids in zip(part, ids_per_word):
                results[position] = steps, ids
        answers = [
            tuple(ids)  # the worker SUL recorded no entry
            if type(ids) is list
            else self.oracle_table.record_steps(word, map(steps.__getitem__, ids)).abstract.outputs
            for word, (steps, ids) in zip(words, results)
        ]
        self._refresh_stats()
        return answers

    def _shards(self, words: list[Word]) -> list[list[int]]:
        """The batch's word positions per shard: sorted by symbol rank,
        then cut into contiguous runs whose sizes differ by at most one."""
        rank, unknown = self._rank, len(self._rank)
        order = sorted(
            range(len(words)),
            key=lambda position: [rank.get(symbol, unknown) for symbol in words[position]],
        )
        shards = min(self.workers, len(words))
        size, extra = divmod(len(words), shards)
        bounds = [index * size + min(index, extra) for index in range(shards + 1)]
        return [order[bounds[index] : bounds[index + 1]] for index in range(shards)]

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        return self.query_batch([word])[0]

    # -- single-instance interface (random walks, distribution sampling) --
    def _on_parent(self, fn: Callable, *args):
        result, delta = _measured(self._suls[0], fn, *args)
        self._parent_stats.add(delta)
        self._refresh_stats()
        return result

    def reset(self) -> None:
        self._on_parent(self._suls[0].reset)

    def step(self, symbol: AbstractSymbol) -> AbstractSymbol:
        return self._on_parent(self._suls[0].step, symbol)

    def _reset_impl(self) -> None:  # pragma: no cover - routed via reset()
        self._suls[0]._reset_impl()

    def _step_impl(
        self, symbol: AbstractSymbol
    ) -> tuple[AbstractSymbol, Mapping[str, int], Mapping[str, int]]:  # pragma: no cover
        return self._suls[0]._step_impl(symbol)

    # -- accounting --------------------------------------------------------
    def _refresh_stats(self) -> None:
        """The pool's stats: the parent-side cost plus every worker's."""
        total = SULStats()
        for part in (self._parent_stats, *self._worker_stats):
            total.add(part.snapshot())
        for key, value in total.snapshot().items():
            setattr(self.stats, key, value)

    def per_worker_queries(self) -> list[int]:
        """Query count per worker (load-balance visibility for benchmarks)."""
        return [stats.queries for stats in self._worker_stats]

    def close(self) -> None:
        self._executor.close()
        for sul in self._suls:
            close = getattr(sul, "close", None)
            if callable(close):
                close()
