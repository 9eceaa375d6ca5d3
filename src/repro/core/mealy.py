"""Deterministic Mealy machines (paper definition 4.1).

A Mealy machine is a tuple ``(S, s0, Sigma, Gamma, T, G)`` with finite state
set ``S``, initial state ``s0``, input alphabet ``Sigma``, output alphabet
``Gamma``, transition function ``T : S x Sigma -> S`` and output function
``G : S x Sigma -> Gamma``.  This module provides construction, execution,
minimization, canonical relabeling, test-suite generation (used by the
W-method equivalence oracle and the trace-reduction statistics) and DOT
export.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .alphabet import AbstractSymbol, Alphabet, deserialize_symbol, serialize_symbol
from .trace import EPSILON, IOTrace, Word

State = Hashable


class MealyError(ValueError):
    """Raised on malformed machines or inputs outside the alphabet."""


@dataclass(frozen=True)
class Transition:
    """A single labelled edge ``source --input/output--> target``."""

    source: State
    input: AbstractSymbol
    output: AbstractSymbol
    target: State


class MealyMachine:
    """An input-complete deterministic Mealy machine.

    ``transitions`` maps ``(state, input_symbol)`` to
    ``(next_state, output_symbol)``.  The machine is validated to be
    input-complete over ``input_alphabet`` for every state reachable from
    ``initial_state``; unreachable states are dropped.
    """

    def __init__(
        self,
        initial_state: State,
        input_alphabet: Alphabet,
        transitions: Mapping[tuple[State, AbstractSymbol], tuple[State, AbstractSymbol]],
        name: str = "mealy",
    ) -> None:
        self.initial_state = initial_state
        self.input_alphabet = input_alphabet
        self.name = name
        self._delta: dict[tuple[State, AbstractSymbol], tuple[State, AbstractSymbol]] = {}

        reachable: list[State] = []
        seen = {initial_state}
        queue: deque[State] = deque([initial_state])
        while queue:
            state = queue.popleft()
            reachable.append(state)
            for symbol in input_alphabet:
                key = (state, symbol)
                if key not in transitions:
                    raise MealyError(
                        f"machine {name!r} is not input-complete: state "
                        f"{state!r} has no transition on {symbol}"
                    )
                target, output = transitions[key]
                self._delta[key] = (target, output)
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        self.states: tuple[State, ...] = tuple(reachable)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, state: State, symbol: AbstractSymbol) -> tuple[State, AbstractSymbol]:
        """One transition: returns ``(next_state, output)``."""
        try:
            return self._delta[(state, symbol)]
        except KeyError:
            raise MealyError(f"no transition from {state!r} on {symbol}") from None

    def run(self, inputs: Sequence[AbstractSymbol], start: State | None = None) -> Word:
        """Outputs produced by feeding ``inputs`` from ``start`` (or s0)."""
        state = self.initial_state if start is None else start
        outputs: list[AbstractSymbol] = []
        for symbol in inputs:
            state, output = self.step(state, symbol)
            outputs.append(output)
        return tuple(outputs)

    def run_all(self, words: Iterable[Sequence[AbstractSymbol]]) -> Iterator[Word]:
        """``run(word)`` for each word, resuming from the previous word's states.

        Lazy: a word's :class:`MealyError` is raised when its outputs are
        reached, as :meth:`run` would raise it.  A word shares the previous
        word's states up to its first symbol that is not the identical
        object, so sorted suites step each distinct prefix once.
        """
        delta = self._delta
        previous: Sequence[AbstractSymbol] = ()
        states = [self.initial_state]
        outputs: list[AbstractSymbol] = []
        for word in words:
            depth, limit = 0, min(len(previous), len(word))
            while depth < limit and word[depth] is previous[depth]:
                depth += 1
            del states[depth + 1 :], outputs[depth:]
            previous, state = word, states[depth]
            for symbol in word[depth:]:
                slot = delta.get((state, symbol))
                state, output = self.step(state, symbol) if slot is None else slot
                states.append(state)
                outputs.append(output)
            yield tuple(outputs)

    def trace(self, inputs: Sequence[AbstractSymbol]) -> IOTrace:
        """The I/O trace for an input word from the initial state."""
        return IOTrace(tuple(inputs), self.run(inputs))

    def state_after(self, inputs: Sequence[AbstractSymbol], start: State | None = None) -> State:
        """The state reached after reading ``inputs``."""
        state = self.initial_state if start is None else start
        for symbol in inputs:
            state, _ = self.step(state, symbol)
        return state

    def output(self, state: State, symbol: AbstractSymbol) -> AbstractSymbol:
        return self.step(state, symbol)[1]

    def successor(self, state: State, symbol: AbstractSymbol) -> State:
        return self.step(state, symbol)[0]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return len(self._delta)

    def transitions(self) -> Iterator[Transition]:
        """All edges in a stable order (state order, then alphabet order)."""
        for state in self.states:
            for symbol in self.input_alphabet:
                target, output = self._delta[(state, symbol)]
                yield Transition(state, symbol, output, target)

    # ------------------------------------------------------------------
    # Canonical forms
    # ------------------------------------------------------------------
    def minimize(self) -> "MealyMachine":
        """Minimal machine with the same I/O behaviour (partition refinement).

        Standard Hopcroft-style refinement adapted to Mealy machines: the
        initial partition groups states by their full output row; blocks are
        split until every pair of states in a block agrees on the block of
        each successor.
        """
        # Initial partition: states with identical output rows.
        def row(state: State) -> tuple[AbstractSymbol, ...]:
            return tuple(self.output(state, a) for a in self.input_alphabet)

        blocks: dict[tuple, list[State]] = {}
        for state in self.states:
            blocks.setdefault(row(state), []).append(state)
        partition: list[list[State]] = list(blocks.values())

        changed = True
        while changed:
            changed = False
            block_of = {s: i for i, block in enumerate(partition) for s in block}
            new_partition: list[list[State]] = []
            for block in partition:
                splitter: dict[tuple[int, ...], list[State]] = {}
                for state in block:
                    signature = tuple(
                        block_of[self.successor(state, a)] for a in self.input_alphabet
                    )
                    splitter.setdefault(signature, []).append(state)
                if len(splitter) > 1:
                    changed = True
                new_partition.extend(splitter.values())
            partition = new_partition

        block_of = {s: i for i, block in enumerate(partition) for s in block}
        transitions: dict[tuple[State, AbstractSymbol], tuple[State, AbstractSymbol]] = {}
        for block_index, block in enumerate(partition):
            representative = block[0]
            for symbol in self.input_alphabet:
                target, output = self.step(representative, symbol)
                transitions[(block_index, symbol)] = (block_of[target], output)
        machine = MealyMachine(
            block_of[self.initial_state], self.input_alphabet, transitions, self.name
        )
        return machine.relabel()

    def relabel(self, prefix: str = "s") -> "MealyMachine":
        """Rename states ``s0, s1, ...`` in BFS order from the initial state.

        Two behaviourally identical minimal machines relabel to structurally
        identical machines, which makes equality checks trivial.
        """
        order: dict[State, str] = {self.initial_state: f"{prefix}0"}
        queue: deque[State] = deque([self.initial_state])
        while queue:
            state = queue.popleft()
            for symbol in self.input_alphabet:
                target, _ = self.step(state, symbol)
                if target not in order:
                    order[target] = f"{prefix}{len(order)}"
                    queue.append(target)
        transitions = {
            (order[t.source], t.input): (order[t.target], t.output)
            for t in self.transitions()
        }
        return MealyMachine(f"{prefix}0", self.input_alphabet, transitions, self.name)

    def structurally_equal(self, other: "MealyMachine") -> bool:
        """True if both machines have identical state names and edges."""
        if set(self.states) != set(other.states):
            return False
        if self.initial_state != other.initial_state:
            return False
        return self._delta == other._delta

    # ------------------------------------------------------------------
    # Test-suite generation (used by W-method and statistics)
    # ------------------------------------------------------------------
    def access_sequences(self) -> dict[State, Word]:
        """A shortest input word reaching each state (BFS)."""
        access: dict[State, Word] = {self.initial_state: EPSILON}
        queue: deque[State] = deque([self.initial_state])
        while queue:
            state = queue.popleft()
            for symbol in self.input_alphabet:
                target, _ = self.step(state, symbol)
                if target not in access:
                    access[target] = access[state] + (symbol,)
                    queue.append(target)
        return access

    def transition_cover(self) -> list[Word]:
        """Words exercising every transition once (access sequence + symbol)."""
        access = self.access_sequences()
        return [access[s] + (a,) for s in self.states for a in self.input_alphabet]

    def distinguishing_suffix(self, a: State, b: State) -> Word | None:
        """A shortest word on which states ``a`` and ``b`` differ, or None.

        BFS over pairs of states; the suffix is reconstructed from parent
        pointers.  Used to build characterization sets and to explain model
        differences to users.
        """
        if a == b:
            return None
        start = (a, b)
        parents: dict[tuple[State, State], tuple[tuple[State, State], AbstractSymbol]] = {}
        seen = {start}
        queue: deque[tuple[State, State]] = deque([start])
        while queue:
            pair = queue.popleft()
            for symbol in self.input_alphabet:
                next_a, out_a = self.step(pair[0], symbol)
                next_b, out_b = self.step(pair[1], symbol)
                if out_a != out_b:
                    # Reconstruct the path start -> pair, then append the
                    # symbol on which the outputs differ.
                    path: list[AbstractSymbol] = []
                    cursor = pair
                    while cursor != start:
                        cursor, sym = parents[cursor]
                        path.append(sym)
                    path.reverse()
                    path.append(symbol)
                    return tuple(path)
                next_pair = (next_a, next_b)
                if next_pair not in seen:
                    seen.add(next_pair)
                    parents[next_pair] = (pair, symbol)
                    queue.append(next_pair)
        return None

    def characterization_set(self) -> list[Word]:
        """A set of suffixes distinguishing every pair of distinct states."""
        suffixes: list[Word] = []
        states = list(self.states)
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                if any(self.run(w, a) != self.run(w, b) for w in suffixes):
                    continue
                suffix = self.distinguishing_suffix(a, b)
                if suffix is not None:
                    suffixes.append(suffix)
        return suffixes or [EPSILON]

    def w_method_suite(self, extra_states: int = 0) -> list[Word]:
        """The classical W-method test suite ``P . Sigma^<=k . W``.

        With ``extra_states == 0`` this is the transition cover concatenated
        with the characterization set: the set of traces that must be checked
        to establish equivalence with a machine of at most the same size.
        Section 6.2.2's "1210 and 715 traces" correspond to this suite.
        The suite is built and sorted over each symbol's rank in
        ``sorted(input_alphabet)`` -- integer tuples hash and compare in C,
        in the same order as the symbol words -- then decoded once.
        """
        symbols = sorted(self.input_alphabet)
        rank = {symbol: index for index, symbol in enumerate(symbols)}

        def ranked(words: Iterable[Word]) -> list[tuple[int, ...]]:
            return [tuple(rank[symbol] for symbol in word) for word in words]

        cover = [()] + ranked(self.transition_cover())
        w_set = ranked(self.characterization_set())
        middles: list[tuple[int, ...]] = [()]
        frontier: list[tuple[int, ...]] = [()]
        for _ in range(extra_states):
            frontier = [m + (a,) for m in frontier for a in range(len(symbols))]
            middles.extend(frontier)
        suite = {p + m + w for p in cover for m in middles for w in w_set}
        suite.discard(())
        return [tuple(map(symbols.__getitem__, word)) for word in sorted(suite)]

    # ------------------------------------------------------------------
    # Serialization (campaign artifacts, model exchange)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-able encoding of the machine.

        States are rendered with ``str`` (learned machines use string or
        tuple-of-symbol state names; both stringify deterministically), the
        alphabet is serialized once, and transitions reference inputs by
        alphabet index.  ``from_dict(to_dict())`` reconstructs a machine
        with identical behaviour; it is byte-identical (``to_dict`` equal)
        whenever state names are already strings, e.g. after
        :meth:`relabel`.
        """
        symbols = list(self.input_alphabet)
        return {
            "name": self.name,
            "initial_state": str(self.initial_state),
            "input_alphabet": [serialize_symbol(s) for s in symbols],
            "transitions": [
                {
                    "source": str(t.source),
                    "input": symbols.index(t.input),
                    "output": serialize_symbol(t.output),
                    "target": str(t.target),
                }
                for t in self.transitions()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MealyMachine":
        """Inverse of :meth:`to_dict`."""
        alphabet = Alphabet.of(
            [deserialize_symbol(s) for s in data["input_alphabet"]]
        )
        transitions = {
            (row["source"], alphabet[row["input"]]): (
                row["target"],
                deserialize_symbol(row["output"]),
            )
            for row in data["transitions"]
        }
        return cls(
            data["initial_state"], alphabet, transitions, name=data.get("name", "mealy")
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """GraphViz DOT rendering in the style of the appendix figures."""
        lines = [
            f'digraph "{self.name}" {{',
            "  rankdir=TB;",
            '  node [shape=circle fontname="monospace"];',
            f'  __start [shape=point label=""];',
            f'  __start -> "{self.initial_state}";',
        ]
        for t in self.transitions():
            lines.append(
                f'  "{t.source}" -> "{t.target}" '
                f'[label="{t.input}/{t.output}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MealyMachine({self.name!r}, states={self.num_states}, "
            f"transitions={self.num_transitions})"
        )


def mealy_from_table(
    initial_state: State,
    input_alphabet: Alphabet,
    table: Iterable[tuple[State, AbstractSymbol, AbstractSymbol, State]],
    name: str = "mealy",
) -> MealyMachine:
    """Build a machine from ``(source, input, output, target)`` rows."""
    transitions = {(src, inp): (dst, out) for src, inp, out, dst in table}
    return MealyMachine(initial_state, input_alphabet, transitions, name)


def behavior_fingerprint(machine: MealyMachine, depth: int = 4) -> frozenset[IOTrace]:
    """The set of I/O traces up to ``depth`` -- a cheap behavioural digest."""
    traces: set[IOTrace] = set()

    def explore(state: State, trace: IOTrace) -> None:
        if len(trace) == depth:
            return
        for symbol in machine.input_alphabet:
            target, output = machine.step(state, symbol)
            extended = trace.extend(symbol, output)
            traces.add(extended)
            explore(target, extended)

    explore(machine.initial_state, IOTrace(EPSILON, EPSILON))
    return frozenset(traces)
