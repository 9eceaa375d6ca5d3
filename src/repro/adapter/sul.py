"""The System Under Learning interface (paper section 3).

A :class:`SUL` packages an implementation and its adapter behind the two
operations active learning needs: *reset* and *step*.  The base class adds
query bookkeeping, Oracle-Table recording (adapter property 4) and
statistics that the benchmarks report (membership queries, resets, symbols
sent).

A SUL that can :meth:`~SUL.snapshot` and :meth:`~SUL.restore` its state
answers a query batch as one depth-first walk over the batch's prefix
trie instead of resetting and replaying every word; the answers, the
Oracle Table and the logical counters are those of per-word replay.  A
snapshot is a hashable value of exactly the dynamic state, so the walk
keeps a per-SUL transition memo keyed by it: after every physical step
``(state, input) -> (step, next state)`` is recorded, and a later edge
from an equal state -- in this batch or a later one, whatever the prefix
-- is answered without a step.

Every simulated target snapshots (``MealySUL``, QUIC, ``tcp``, ``http2``,
``http3``) from the ``__state__``/``__shared__`` its classes declare
(:mod:`repro.core.state`).  A snapshot is refused -- and the batch replays
-- on any link but the perfect one, while datagrams are in flight, for
mvfst-style probabilistic stateless resets, the tracker's
ambiguous-abstraction and retry-port flags, a resuming or migrated
QUIC-stream transport, and ``tcp`` with absolute sequence numbers.  The
README ("Batch execution") lists what the seed-11 learns really run.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..core.alphabet import AbstractSymbol, Alphabet
from ..core.extended import ConcreteStep
from ..core import state as schema
from ..core.oracle_table import OracleTable
from ..core.trace import Word


@dataclass
class SULStats:
    """Counters the paper reports for each learning run.

    ``queries``, ``steps`` and ``resets`` are logical: what per-word
    reset-and-replay would have cost, whatever way the batch really ran.
    The ``physical_*`` counters are what reached the implementation;
    ``snapshots`` and ``restores`` count the trie walk's state copies, and
    ``skipped_steps`` the steps it answered from the transition memo
    instead.
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
        return dict(self.__dict__)

    def add(self, delta: Mapping[str, int]) -> None:
        """Add a :meth:`snapshot` difference (a pool worker's shard cost)."""
        for key, value in delta.items():
            setattr(self, key, getattr(self, key) + value)


#: Concrete states a SUL's transition memo keeps across query batches; the
#: least recently used one goes first (its snapshot stays restorable for
#: the walks and memo edges that still hold it).
SNAPSHOT_CAPACITY = 1024


class _State:
    """A concrete SUL state: its snapshot, hashed once, and the memo's
    transitions out of it (``symbol -> (step, next state)``).

    Only :attr:`live` states -- those in the SUL's memo -- hold
    transitions.  A refused snapshot (``None``) is never live; the walk
    reaches such a state again by a reset and a replay.
    """

    __slots__ = ("snapshot", "_hash", "edges", "live")

    def __init__(self, snapshot: Any) -> None:
        self.snapshot = snapshot
        self._hash = hash(snapshot)
        self.edges: dict[AbstractSymbol, tuple[ConcreteStep, _State]] = {}
        self.live = False

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, _State)
            and self._hash == other._hash
            and self.snapshot == other.snapshot
        )


class SUL(ABC):
    """An implementation + adapter pair, queryable with abstract words."""

    __shared__ = "input_alphabet name oracle_table stats _states _root _memo_lock"

    def __init__(self, input_alphabet: Alphabet, name: str = "sul") -> None:
        self.input_alphabet = input_alphabet
        self.name = name
        self.oracle_table = OracleTable()
        self.stats = SULStats()
        #: The transition memo: interned concrete states, least recently
        #: used first, and the post-reset state the walks start from.
        self._states: OrderedDict[_State, _State] = OrderedDict()
        self._root: _State | None = None
        #: Guards :attr:`_states` where in-process pool workers share it.
        self._memo_lock = threading.Lock()

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
        """The declared state (:mod:`repro.core.state`) as a hashable value
        for :meth:`restore`, or ``None`` ("cannot": reset and replay).  Two
        equal snapshots must answer every later step alike, since the
        transition memo answers one from the other.
        """
        return schema.capture(self)

    def restore(self, state: Any) -> None:
        """Return to a state :meth:`snapshot` returned; ``state`` itself
        stays untouched, since it may be restored again."""
        schema.restore(self, state)

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

    def _concrete_step(self, symbol: AbstractSymbol) -> ConcreteStep:
        """One physical step, as the read-only step the Oracle Table keeps."""
        self.stats.physical_steps += 1
        return ConcreteStep(symbol, *self._step_impl(symbol))

    def _run(self, word: Sequence[AbstractSymbol]) -> Word:
        """Step through ``word`` from the current state and record it."""
        steps = []
        for symbol in word:
            self.stats.steps += 1
            steps.append(self._concrete_step(symbol))
        return self.oracle_table.record_steps(word, steps).abstract.outputs

    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        """Answer several membership queries; results are index-aligned.

        The base implementation runs the words serially on this instance;
        parallel backends (:class:`repro.adapter.pool.SULPool`) override it.
        A SUL that snapshots runs the batch as one walk over its prefix
        trie (:meth:`_walk_trie`) from its post-reset state, taken by a
        physical reset in the first batch.  A later
        batch snapshots the state the SUL was left in instead; if that is
        refused (say, a lossy link was set in between), the memo is
        dropped and the batch starts from a reset, and if the post-reset
        snapshot is refused too, every word is reset and replayed, the
        first one on that reset.
        """
        words = [tuple(word) for word in words]
        if not words:
            return []
        stats = self.stats
        here = None
        if self._root is not None:
            current = self.snapshot()
            if current is None:
                with self._memo_lock:
                    self._states.clear()
                self._root = None
            else:
                stats.snapshots += 1
                stats.resets += 1  # resumed instead of reset
                here = self._intern(_State(current))
        if self._root is None:
            self.reset()
            root = self.snapshot()
            if root is None:
                stats.queries += 1
                return [self._run(words[0])] + [self.query(word) for word in words[1:]]
            stats.snapshots += 1
            self._root = here = self._intern(_State(root))
        return self._walk_trie(words, here)

    def _intern(self, state: _State) -> _State:
        """The memo's state equal to ``state`` (``state`` itself if there was
        none), made the most recently used; beyond
        :data:`SNAPSHOT_CAPACITY`, the least recently used one is evicted.
        A state whose snapshot was refused stays out: it equals no other."""
        if state.snapshot is None:
            return state
        states = self._states
        with self._memo_lock:
            live = states.get(state)
            if live is not None:
                states.move_to_end(live)
                return live
            states[state] = state
            state.live = True
            if len(states) > SNAPSHOT_CAPACITY:
                evicted = states.popitem(last=False)[0]
                evicted.live = False
                evicted.edges = {}
        return state

    def share_memo(self, other: SUL) -> None:
        """Use ``other``'s transition memo from now on (a pool's in-process
        workers): instances built alike answer equal snapshots alike, and
        a snapshot taken on one restores into the other.  Two workers may
        step one transition at once; the memo keeps the later, equal step."""
        self._states, self._memo_lock = other._states, other._memo_lock

    def _walk_trie(self, words: list[Word], here: _State) -> list[Word]:
        """Run ``words`` depth-first over their prefix trie from the
        post-reset state; the SUL is physically in state ``here``.

        Each trie edge is answered from the transition memo when its
        state has taken that input before; otherwise the state is
        restored (unless the SUL is in it) and the input really stepped,
        after which the next state is snapshotted, interned
        (:meth:`_intern`) and the transition memoised.  A state whose
        snapshot was refused is reached again by a physical reset and a
        replay of the prefix.  Answers and Oracle-Table entries come out
        in batch order, every step shared with the memo, and the logical
        counters advance as if every word had been replayed.
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
        path: list[AbstractSymbol] = []
        steps: list[ConcreteStep] = []
        observed: list[tuple] = [()] * len(words)
        # Later children still to run: (symbol, node, parent depth, the
        # parent's state).
        stack: list[tuple] = []
        node, state = root, self._intern(self._root)
        self._root = state
        while True:
            children, ends = node
            for index in ends:
                observed[index] = tuple(steps)
            if children:
                items = list(children.items())
                depth = len(path)
                for position in range(len(items) - 1, 0, -1):
                    stack.append((*items[position], depth, state))
                symbol, node = items[0]
            elif stack:
                symbol, node, depth, state = stack.pop()
                del path[depth:], steps[depth:]
            else:
                break
            path.append(symbol)
            edge = state.edges.get(symbol)
            if edge is not None:
                stats.skipped_steps += 1
                step, state = edge
                steps.append(step)
                state = self._intern(state)
                continue
            if here is not state:
                if state.snapshot is None:
                    stats.physical_resets += 1
                    self._reset_impl()
                    for replayed in path[:-1]:
                        stats.physical_steps += 1
                        self._step_impl(replayed)
                else:
                    stats.restores += 1
                    self.restore(state.snapshot)
            step = self._concrete_step(symbol)
            steps.append(step)
            state = self._intern(state)
            snapshot = self.snapshot()
            if snapshot is not None:
                stats.snapshots += 1
            following = self._intern(_State(snapshot))
            if state.live:
                state.edges[symbol] = (step, following)
            state = here = following

        answers: list[Word] = []
        for word, word_steps in zip(words, observed):
            answers.append(self.oracle_table.record_steps(word, word_steps).abstract.outputs)
        stats.queries += len(words)
        stats.resets += len(words) - 1  # the batch's own reset counted one
        stats.steps += sum(len(word) for word in words)
        return answers
