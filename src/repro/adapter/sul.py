"""The System Under Learning interface (paper section 3).

A :class:`SUL` packages an implementation and its adapter behind the two
operations active learning needs: *reset* and *step*.  The base class adds
query bookkeeping, Oracle-Table recording (adapter property 4) and
statistics that the benchmarks report (membership queries, resets, symbols
sent).

A SUL that can :meth:`~SUL.snapshot` and :meth:`~SUL.restore` its state
answers a query batch as one depth-first walk over the batch's prefix
trie instead of resetting and replaying every word; the answers, the
Oracle Table and the logical counters are those of per-word replay.  The
walk's snapshots outlive the batch: later batches resume from the saved
post-reset root and pass through saved prefixes without stepping them.

Every simulated target snapshots, into hand-written immutable tuples:
``MealySUL``, the QUIC SULs, ``tcp``, and the layered ``http2`` and
``http3`` (network, transport and app state together).  A snapshot is
refused -- and the batch replays -- on any link but the perfect one,
while datagrams are in flight, for mvfst-style probabilistic stateless
resets, the tracker's ambiguous-abstraction and retry-port flags, a
resuming or migrated QUIC-stream transport, and ``tcp`` with absolute
sequence numbers.  Learning with the default spec at seed 11, tcp runs
1,110 of 2,897 logical steps (2 of 654 resets), http2 1,240 of 3,152 (1
of 777), http3 3,843 of 11,286 (4 of 2,166) and quic-google 4,921 of
17,321 (2 of 3,124).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Sequence

from ..core.alphabet import AbstractSymbol, Alphabet
from ..core.oracle_table import OracleTable
from ..core.trace import Word


@dataclass
class SULStats:
    """Counters the paper reports for each learning run.

    ``queries``, ``steps`` and ``resets`` are logical: what per-word
    reset-and-replay would have cost, whatever way the batch really ran.
    The ``physical_*`` counters are what reached the implementation;
    ``snapshots`` and ``restores`` count the trie walk's state copies, and
    ``skipped_steps`` the steps it passed through saved snapshots instead.
    """

    queries: int = 0
    steps: int = 0
    resets: int = 0
    physical_steps: int = 0
    physical_resets: int = 0
    snapshots: int = 0
    restores: int = 0
    skipped_steps: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)

    def add(self, delta: Mapping[str, int]) -> None:
        """Add a :meth:`snapshot` difference (a pool worker's shard cost)."""
        for key, value in delta.items():
            setattr(self, key, getattr(self, key) + value)


#: Restore token of a trie node whose snapshot was refused: reach it again
#: by a physical reset and a replay of its prefix.
_REPLAY = object()

#: Trie-walk snapshots a SUL keeps across query batches, its post-reset
#: root included; the least recently used one goes first.
SNAPSHOT_CAPACITY = 256


class SUL(ABC):
    """An implementation + adapter pair, queryable with abstract words."""

    def __init__(self, input_alphabet: Alphabet, name: str = "sul") -> None:
        self.input_alphabet = input_alphabet
        self.name = name
        self.oracle_table = OracleTable()
        self.stats = SULStats()
        #: Trie-walk snapshots kept across batches by prefix -- the
        #: post-reset root under ``()`` and branch nodes -- each with the
        #: output and parameters of the last step of its path.
        self._saved: OrderedDict[Word, tuple] = OrderedDict()

    # -- subclass responsibilities ---------------------------------------
    @abstractmethod
    def _reset_impl(self) -> None:
        """Return the implementation and the adapter to their initial state."""

    @abstractmethod
    def _step_impl(
        self, symbol: AbstractSymbol
    ) -> tuple[AbstractSymbol, Mapping[str, int], Mapping[str, int]]:
        """Send one abstract symbol; return (abstract output, concrete input
        parameters, concrete output parameters)."""

    def snapshot(self) -> Any:
        """A copy of the current state for :meth:`restore`, or ``None``.

        ``None`` means "cannot": the batch falls back to reset-and-replay.
        A SUL may only return a state when restoring it makes every later
        step behave exactly as it would have from here.
        """
        return None

    def restore(self, state: Any) -> None:
        """Return to a state :meth:`snapshot` returned; ``state`` itself
        stays untouched, since it may be restored again."""
        raise NotImplementedError(f"{type(self).__name__} cannot restore snapshots")

    # -- public interface -------------------------------------------------
    def reset(self) -> None:
        self.stats.resets += 1
        self.stats.physical_resets += 1
        self._reset_impl()

    def step(self, symbol: AbstractSymbol) -> AbstractSymbol:
        """One step without Oracle-Table recording (used by random walks)."""
        self.stats.steps += 1
        self.stats.physical_steps += 1
        output, _, _ = self._step_impl(symbol)
        return output

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        """A complete membership query: reset, run the word, record.

        The abstract trace *and* the concrete parameters of every step are
        stored in the Oracle Table for later synthesis (section 4.3).
        """
        self.stats.queries += 1
        self.reset()
        return self._run(word)

    def _run(self, word: Sequence[AbstractSymbol]) -> Word:
        """Step through ``word`` from the current state and record it."""
        outputs: list[AbstractSymbol] = []
        input_params: list[Mapping[str, int]] = []
        output_params: list[Mapping[str, int]] = []
        for symbol in word:
            self.stats.steps += 1
            self.stats.physical_steps += 1
            output, in_params, out_params = self._step_impl(symbol)
            outputs.append(output)
            input_params.append(in_params)
            output_params.append(out_params)
        self.oracle_table.record(tuple(word), tuple(outputs), input_params, output_params)
        return tuple(outputs)

    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        """Answer several membership queries; results are index-aligned.

        The base implementation runs the words serially on this instance;
        parallel backends (:class:`repro.adapter.pool.SULPool`) override it.
        A SUL that overrides :meth:`snapshot` runs the batch as one walk
        over its prefix trie (:meth:`_walk_trie`).  The walk starts from
        the saved post-reset root when there is one, and from a physical
        reset otherwise; either way :meth:`snapshot` is called there once,
        and if it refuses, the saved snapshots are dropped and every word
        is reset and replayed, the first one on that reset.
        """
        words = [tuple(word) for word in words]
        if type(self).snapshot is SUL.snapshot:
            return [self.query(word) for word in words]
        if not words:
            return []
        root = None
        saved_root = self._saved.get(())
        if saved_root is not None:
            self._saved.move_to_end(())
            self.stats.restores += 1
            self.restore(saved_root[0])
            if self.snapshot() is None:
                self._saved.clear()
            else:
                root = saved_root[0]
                self.stats.snapshots += 1
                self.stats.resets += 1  # resumed instead of reset
        if root is None:
            self.reset()
            root = self.snapshot()
            if root is None:
                self.stats.queries += 1
                return [self._run(words[0])] + [self.query(word) for word in words[1:]]
            self.stats.snapshots += 1
            self._save((), (root, None, None, None))
        return self._walk_trie(words, root)

    def _save(self, prefix: Word, entry: tuple) -> None:
        """Keep ``entry`` (the snapshot after ``prefix`` and its last step's
        output and parameters), evicting the least recently used one beyond
        :data:`SNAPSHOT_CAPACITY`."""
        saved = self._saved
        saved[prefix] = entry
        if len(saved) > SNAPSHOT_CAPACITY:
            saved.popitem(last=False)

    def _walk_trie(self, words: list[Word], root_state: Any) -> list[Word]:
        """Run ``words`` depth-first over their prefix trie from the reset
        state ``root_state`` was taken in.

        A node with two or more children is snapshotted once and saved
        (:meth:`_save`); every later child restores it.  A node saved by an
        earlier batch is passed through without a step, and restored only
        when one of its children must really be stepped.  A refused
        snapshot is made up for by a physical reset and a replay of the
        prefix.  Answers and Oracle-Table entries come out in batch order,
        and the logical counters advance as if every word had been
        replayed.
        """
        root: tuple[dict, list] = ({}, [])  # (children by symbol, word indices)
        for index, word in enumerate(words):
            node = root
            for symbol in word:
                child = node[0].get(symbol)
                if child is None:
                    child = node[0][symbol] = ({}, [])
                node = child
            node[1].append(index)

        stats = self.stats
        saved = self._saved
        path: list[AbstractSymbol] = []
        outputs: list[AbstractSymbol] = []
        input_params: list[Mapping[str, int]] = []
        output_params: list[Mapping[str, int]] = []
        observed: list[tuple] = [()] * len(words)
        # Later children still to run: (symbol, node, parent depth, the
        # parent's restore token).
        stack: list[tuple] = []
        # ``token`` restores the current node; None means "not taken yet",
        # which only happens while the SUL is physically at the node.
        node, token, here = root, root_state, True
        while True:
            children, ends = node
            for index in ends:
                observed[index] = (tuple(outputs), input_params[:], output_params[:])
            if children:
                items = list(children.items())
                if len(items) > 1:
                    if token is None:
                        token = self.snapshot()
                        if token is None:
                            token = _REPLAY
                        else:
                            stats.snapshots += 1
                            last = (outputs[-1], input_params[-1], output_params[-1])
                            self._save(tuple(path), (token, *last))
                    depth = len(path)
                    for position in range(len(items) - 1, 0, -1):
                        stack.append((*items[position], depth, token))
                symbol, node = items[0]
            elif stack:
                symbol, node, depth, token = stack.pop()
                del path[depth:], outputs[depth:]
                del input_params[depth:], output_params[depth:]
                here = False
            else:
                break
            path.append(symbol)
            prefix = tuple(path)
            entry = saved.get(prefix)
            if entry is not None:
                saved.move_to_end(prefix)
                stats.skipped_steps += 1
                token, output, in_params, out_params = entry
                outputs.append(output)
                input_params.append(in_params)
                output_params.append(out_params)
                here = False
                continue
            if not here:
                if token is _REPLAY:
                    stats.physical_resets += 1
                    self._reset_impl()
                    for replayed in path[:-1]:
                        stats.physical_steps += 1
                        self._step_impl(replayed)
                else:
                    stats.restores += 1
                    self.restore(token)
                here = True
            stats.physical_steps += 1
            output, in_params, out_params = self._step_impl(symbol)
            outputs.append(output)
            input_params.append(in_params)
            output_params.append(out_params)
            token = None

        answers: list[Word] = []
        for word, (word_outputs, word_in, word_out) in zip(words, observed):
            self.oracle_table.record(word, word_outputs, word_in, word_out)
            answers.append(word_outputs)
        stats.queries += len(words)
        stats.resets += len(words) - 1  # the batch's own reset counted one
        stats.steps += sum(len(word) for word in words)
        return answers
