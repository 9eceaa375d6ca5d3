"""Passive model learning from logged traces (paper section 8).

The paper's future-work section notes that "in cases where access to logs
is possible ... the learning process could be sped up using a combination
of passive and active learning".  This module provides the passive half
and the bootstrap glue (:mod:`repro.learn.bulk` builds the streaming
corpus pipeline on top of it):

* :func:`rpni_mealy` -- a state-merging passive learner (RPNI adapted to
  Mealy semantics): build the prefix-tree transducer of the logged traces,
  then greedily fold compatible states in canonical order.  The result is a
  :class:`PartialMealyMachine` that predicts outputs for input words whose
  behaviour the log determines.
* :func:`fold_prefix_tree` / :func:`prefix_tree_from_cache` -- the two
  halves of :func:`rpni_mealy` exposed separately, so a bulk reader can
  stream traces into one trie and fold it once.
* :func:`seed_cache_from_traces` -- bootstrap an active learner's query
  cache from logs, so membership queries already covered by the log never
  reach the live SUL.

Nondeterministic logs raise :class:`TraceConflictError` (a ``ValueError``)
carrying the offending prefix and trace index -- a *finding* the bulk
reader can skip-and-report instead of aborting the whole corpus.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.alphabet import AbstractSymbol, Alphabet, serialize_symbol
from ..core.mealy import MealyMachine
from ..core.trace import IOTrace, Word
from .cache import QueryCache


class TraceConflictError(ValueError):
    """Two logged traces disagree on the output of a shared prefix.

    Carries everything a bulk-corpus report needs: the input ``prefix``
    up to and including the conflicting symbol, the two disagreeing
    outputs, and (when the caller numbers its traces) the index of the
    trace that collided with the tree.
    """

    def __init__(
        self,
        prefix: Sequence[AbstractSymbol],
        cached: AbstractSymbol,
        fresh: AbstractSymbol,
        trace_index: int | None = None,
    ) -> None:
        self.prefix: Word = tuple(prefix)
        self.cached = cached
        self.fresh = fresh
        self.trace_index = trace_index
        where = "" if trace_index is None else f" (trace #{trace_index})"
        rendered = " ".join(str(symbol) for symbol in self.prefix)
        super().__init__(
            f"nondeterministic log{where}: two outputs after "
            f"[{rendered}]: {cached} vs {fresh}"
        )


@dataclass
class PartialMealyMachine:
    """A possibly-incomplete Mealy machine learned from logs.

    ``transitions`` maps ``(state, input)`` to ``(target, output)``;
    missing entries mean the log never determined that behaviour.
    """

    initial_state: int
    input_alphabet: Alphabet
    transitions: dict[tuple[int, AbstractSymbol], tuple[int, AbstractSymbol]]

    @property
    def states(self) -> set[int]:
        found = {self.initial_state}
        for (source, _), (target, _) in self.transitions.items():
            found.add(source)
            found.add(target)
        return found

    @property
    def num_states(self) -> int:
        return len(self.states)

    def predict(self, word: Sequence[AbstractSymbol]) -> Word | None:
        """Outputs for ``word``, or None where the log is silent."""
        state = self.initial_state
        outputs: list[AbstractSymbol] = []
        for symbol in word:
            slot = self.transitions.get((state, symbol))
            if slot is None:
                return None
            state, output = slot
            outputs.append(output)
        return tuple(outputs)

    def accuracy(self, reference: MealyMachine, words: Iterable[Word]) -> float:
        """Fraction of ``words`` predicted fully and correctly."""
        total = 0
        correct = 0
        for word in words:
            total += 1
            predicted = self.predict(word)
            if predicted is not None and predicted == reference.run(word):
                correct += 1
        return correct / total if total else 0.0

    def access_words(self) -> dict[int, Word]:
        """A shortest input word reaching each reachable state (BFS)."""
        by_source: dict[int, list[tuple[str, AbstractSymbol, int]]] = {}
        for (source, symbol), (target, _) in self.transitions.items():
            by_source.setdefault(source, []).append((str(symbol), symbol, target))
        words: dict[int, Word] = {self.initial_state: ()}
        queue = deque([self.initial_state])
        while queue:
            state = queue.popleft()
            for _, symbol, target in sorted(
                by_source.get(state, ()), key=lambda edge: edge[0]
            ):
                if target not in words:
                    words[target] = words[state] + (symbol,)
                    queue.append(target)
        return words

    def undetermined_cells(self) -> list[tuple[int, AbstractSymbol]]:
        """Reachable ``(state, input)`` pairs the log never determined.

        These are exactly the holes the bulk pipeline's active-refinement
        phase turns into targeted membership queries (access word plus the
        missing symbol).
        """
        cells: list[tuple[int, AbstractSymbol]] = []
        for state in self.access_words():
            for symbol in self.input_alphabet:
                if (state, symbol) not in self.transitions:
                    cells.append((state, symbol))
        return cells

    @property
    def completeness(self) -> float:
        """Determined share of the reachable ``state x input`` grid."""
        total = len(self.access_words()) * len(self.input_alphabet)
        if not total:
            return 0.0
        return 1.0 - len(self.undetermined_cells()) / total

    def to_complete(self, sink_output: AbstractSymbol) -> MealyMachine:
        """An input-complete machine: missing edges loop with a sink output."""
        transitions = dict(self.transitions)
        for state in self.states:
            for symbol in self.input_alphabet:
                transitions.setdefault((state, symbol), (state, sink_output))
        return MealyMachine(
            self.initial_state, self.input_alphabet, transitions, "passive"
        )

    def to_dict(self) -> dict:
        """A JSON-able rendering (the bulk pipeline's artifact format)."""
        return {
            "initial_state": self.initial_state,
            "num_states": self.num_states,
            "completeness": self.completeness,
            "transitions": [
                {
                    "source": source,
                    "input": serialize_symbol(symbol),
                    "target": target,
                    "output": serialize_symbol(output),
                }
                for (source, symbol), (target, output) in sorted(
                    self.transitions.items(),
                    key=lambda item: (item[0][0], str(item[0][1])),
                )
            ],
        }


class _PrefixTree:
    """The prefix-tree transducer (PTT) of a trace set."""

    def __init__(self) -> None:
        self.edges: dict[int, dict[AbstractSymbol, tuple[int, AbstractSymbol]]] = {0: {}}
        self._next_id = 1

    def add(self, trace: IOTrace, index: int | None = None) -> None:
        state = 0
        prefix: list[AbstractSymbol] = []
        for symbol, output in trace:
            prefix.append(symbol)
            children = self.edges.setdefault(state, {})
            slot = children.get(symbol)
            if slot is None:
                child = self._next_id
                self._next_id += 1
                self.edges[child] = {}
                children[symbol] = (child, output)
                state = child
                continue
            target, existing = slot
            if existing != output:
                raise TraceConflictError(
                    prefix, existing, output, trace_index=index
                )
            state = target


def prefix_tree_from_cache(cache: QueryCache) -> _PrefixTree:
    """The prefix-tree transducer of every observation a trie holds.

    A :class:`~repro.learn.cache.QueryCache` *is* a PTT already -- same
    structure, different bookkeeping -- so a corpus read into a trie
    folds into a passive model without a second tree.  States are
    numbered in BFS order from the trie root, children in insertion order
    (the trie layout is an intra-package contract of the ``learn``
    package).
    """
    tree = _PrefixTree()
    queue = deque([(cache._root, 0)])
    while queue:
        node, state = queue.popleft()
        children = tree.edges.setdefault(state, {})
        for symbol, (output, child_node) in node.children.items():
            child = tree._next_id
            tree._next_id += 1
            tree.edges[child] = {}
            children[symbol] = (child, output)
            queue.append((child_node, child))
    return tree


def fold_prefix_tree(tree: _PrefixTree, alphabet: Alphabet) -> PartialMealyMachine:
    """Fold a prefix tree into a partial machine (RPNI state merging).

    Classic RPNI adapted to Mealy semantics: states are considered in BFS
    order; each *blue* state (a child of the red core) is merged into the
    first *red* state it is output-compatible with, otherwise it is
    promoted to red.  A merge unifies the two states' entire subtrees with
    an explicit worklist over a union-find overlay -- iteratively, so
    arbitrarily deep folds (the bulk-corpus case) neither recurse out of
    stack nor get misreported as conflicts, and merged-away states are
    removed rather than left dangling in the transition graph.
    """
    edges = {state: dict(children) for state, children in tree.edges.items()}
    merged_into: dict[int, int] = {}
    rank: dict[int, int] = {0: 0}  # promotion order; unranked = never red

    def find(state: int) -> int:
        while state in merged_into:
            state = merged_into[state]
        return state

    def attempt(into: int, from_: int):
        """Try to unify ``from_`` with ``into`` without committing.

        Works on a copy-on-write overlay (``touched`` children dicts, a
        ``local`` union map stacked on ``merged_into``); the explicit
        ``pending`` worklist replaces the old recursion, and the
        union-find itself is the cycle guard -- every pop either no-ops
        or shrinks the live state count, so deep and cyclic folds
        terminate.  Returns ``(touched, local)`` to apply, or ``None``
        on an output conflict (the overlay is simply discarded).
        """
        local: dict[int, int] = {}
        touched: dict[int, dict] = {}

        def resolve(state: int) -> int:
            while True:
                parent = local.get(state)
                if parent is None:
                    parent = merged_into.get(state)
                if parent is None:
                    return state
                state = parent

        def children(state: int) -> dict:
            if state not in touched:
                touched[state] = dict(edges.get(state, ()))
            return touched[state]

        pending: list[tuple[int, int]] = [(into, from_)]
        while pending:
            a, b = pending.pop()
            a, b = resolve(a), resolve(b)
            if a == b:
                continue
            # The earlier-promoted state survives (red beats blue, older
            # red beats younger); among never-red states the smaller id
            # wins, keeping the fold deterministic.
            if (rank.get(b, sys.maxsize), b) < (rank.get(a, sys.maxsize), a):
                a, b = b, a
            absorbing = children(a)
            for symbol, (target, output) in list(children(b).items()):
                slot = absorbing.get(symbol)
                if slot is None:
                    absorbing[symbol] = (target, output)
                    continue
                existing_target, existing_output = slot
                if existing_output != output:
                    return None
                pending.append((existing_target, target))
            local[b] = a
            touched.pop(b, None)
        return touched, local

    def apply(touched: dict[int, dict], local: dict[int, int]) -> None:
        for state, children in touched.items():
            edges[state] = children
        for state in local:
            edges.pop(state, None)
        merged_into.update(local)

    red: list[int] = [0]
    while True:
        reds = list(dict.fromkeys(find(state) for state in red))
        red_set = set(reds)
        frontier: dict[int, None] = {}
        for state in reds:
            for _, (target, _) in sorted(
                edges.get(state, {}).items(), key=lambda item: str(item[0])
            ):
                child = find(target)
                if child not in red_set:
                    frontier.setdefault(child)
        if not frontier:
            break
        blue = next(iter(frontier))
        merged = False
        for candidate in reds:
            overlay = attempt(candidate, blue)
            if overlay is not None:
                apply(*overlay)
                merged = True
                break
        if not merged:
            red.append(blue)
            rank[blue] = len(rank)

    reds = list(dict.fromkeys(find(state) for state in red))
    red_set = set(reds)
    transitions: dict[tuple[int, AbstractSymbol], tuple[int, AbstractSymbol]] = {}
    for state in reds:
        for symbol, (target, output) in edges.get(state, {}).items():
            canonical = find(target)
            if canonical not in red_set:
                # Never promoted: admitting the edge would let predict()
                # walk states outside the merged machine.  The fold's
                # invariant keeps this unreachable, but the old vacuous
                # `target in red or target in edges` filter is exactly
                # the leak this guard closes.
                continue
            transitions[(state, symbol)] = (canonical, output)
    return PartialMealyMachine(
        initial_state=0, input_alphabet=alphabet, transitions=transitions
    )


def rpni_mealy(
    traces: Sequence[IOTrace], alphabet: Alphabet
) -> PartialMealyMachine:
    """State-merging passive learning over deterministic logged traces."""
    tree = _PrefixTree()
    for index, trace in enumerate(traces):
        tree.add(trace, index=index)
    return fold_prefix_tree(tree, alphabet)


def seed_cache_from_traces(cache: QueryCache, traces: Iterable[IOTrace]) -> int:
    """Pre-populate an active learner's cache from logged traces.

    Returns the number of traces inserted.  Conflicting logs raise the
    cache's inconsistency error -- which is itself a finding (the log
    witnesses nondeterminism).
    """
    count = 0
    for trace in traces:
        cache.insert(trace.inputs, trace.outputs)
        count += 1
    return count
