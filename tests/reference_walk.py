"""The trie walk before the transition memo, kept as a reference.

Until the memo keyed by concrete state replaced it, a SUL kept up to 256
trie-walk snapshots across batches keyed by *prefix* (``_saved``, an
LRU), and passed through a saved prefix without stepping it.  The
methods below are that walk, verbatim apart from the capacity, so tests
can check the memo walk against it: same answers, same Oracle Table,
same logical counters, and no more physical steps.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Mapping, Sequence

from repro.core.alphabet import AbstractSymbol
from repro.core.trace import Word

#: Restore token of a trie node whose snapshot was refused: reach it again
#: by a physical reset and a replay of its prefix.
_REPLAY = object()


class PrefixStoreWalk:
    """Mix in before a :class:`SUL` subclass to run batches as the old
    prefix-keyed walk did."""

    #: Trie-walk snapshots kept across query batches, the post-reset root
    #: included; the least recently used one goes first.
    capacity = 256

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._saved: OrderedDict[Word, tuple] = OrderedDict()


    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        """Answer several membership queries; results are index-aligned.

        The base implementation runs the words serially on this instance;
        parallel backends (:class:`repro.adapter.pool.SULPool`) override it.
        A SUL that snapshots runs the batch as one walk over its prefix
        trie (:meth:`_walk_trie`).  The walk starts from the saved
        post-reset root when there is one, and from a physical reset
        otherwise; either way :meth:`snapshot` is called there once,
        and if it refuses, the saved snapshots are dropped and every word
        is reset and replayed, the first one on that reset.
        """
        words = [tuple(word) for word in words]
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
        :attr:`capacity`."""
        saved = self._saved
        saved[prefix] = entry
        if len(saved) > self.capacity:
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
