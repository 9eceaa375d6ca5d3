"""Traces and I/O words over abstract alphabets.

A *word* is a tuple of symbols; an :class:`IOTrace` pairs an input word with
the equally long output word an implementation produced for it.  Traces are
immutable and hashable so they can populate caches and oracle tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from .alphabet import AbstractSymbol

Word = Tuple[AbstractSymbol, ...]

#: The empty word.
EPSILON: Word = ()


def word(symbols: Iterable[AbstractSymbol]) -> Word:
    """Build a word from any iterable of symbols."""
    return tuple(symbols)


def render_word(w: Sequence[AbstractSymbol], sep: str = " ") -> str:
    """Human-readable rendering of a word, e.g. ``SYN(?,?,0) ACK(?,?,0)``."""
    return sep.join(str(sym) for sym in w) if w else "ε"


@dataclass(frozen=True, order=True)
class IOTrace:
    """A paired input/output trace of equal length."""

    inputs: Word
    outputs: Word

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.outputs):
            raise ValueError(
                f"trace length mismatch: {len(self.inputs)} inputs vs "
                f"{len(self.outputs)} outputs"
            )

    def __len__(self) -> int:
        return len(self.inputs)

    def __iter__(self) -> Iterator[tuple[AbstractSymbol, AbstractSymbol]]:
        return iter(zip(self.inputs, self.outputs))

    def prefix(self, length: int) -> "IOTrace":
        """The trace restricted to its first ``length`` steps."""
        return IOTrace(self.inputs[:length], self.outputs[:length])

    def prefixes(self) -> Iterator["IOTrace"]:
        """All non-empty prefixes, shortest first."""
        for length in range(1, len(self) + 1):
            yield self.prefix(length)

    def extend(self, inp: AbstractSymbol, out: AbstractSymbol) -> "IOTrace":
        """A new trace with one extra step appended."""
        return IOTrace(self.inputs + (inp,), self.outputs + (out,))

    @property
    def last_output(self) -> AbstractSymbol:
        if not self.outputs:
            raise IndexError("empty trace has no last output")
        return self.outputs[-1]

    def render(self) -> str:
        """Paper-style rendering: ``i1/o1 i2/o2 ...``."""
        if not self.inputs:
            return "ε"
        return " ".join(f"{i}/{o}" for i, o in self)


EMPTY_TRACE = IOTrace(EPSILON, EPSILON)


def common_prefix_length(a: Sequence[object], b: Sequence[object]) -> int:
    """Length of the longest common prefix of two sequences."""
    length = 0
    for x, y in zip(a, b):
        if x != y:
            break
        length += 1
    return length


def all_words(alphabet: Sequence[AbstractSymbol], max_length: int) -> Iterator[Word]:
    """Enumerate every word of length 1..max_length in lexicographic order.

    Used by exhaustive equivalence oracles and the trace-count statistics of
    section 6.2.2 (which counts 329,554,456 words of length <= 10 over a
    7-symbol alphabet).
    """
    frontier: list[Word] = [EPSILON]
    for _ in range(max_length):
        next_frontier: list[Word] = []
        for prefix in frontier:
            for symbol in alphabet:
                extended = prefix + (symbol,)
                yield extended
                next_frontier.append(extended)
        frontier = next_frontier


def random_word(
    rng: random.Random,
    symbols: Sequence[AbstractSymbol],
    min_length: int,
    max_length: int,
) -> Word:
    """A random word: ``rng.randint`` draws its length, then ``rng.choice``
    each symbol, so one seed always yields the same words."""
    return tuple(rng.choice(symbols) for _ in range(rng.randint(min_length, max_length)))


def count_words(alphabet_size: int, max_length: int) -> int:
    """Number of words of length 1..max_length over ``alphabet_size`` symbols.

    ``count_words(7, 10) == 329_554_456`` -- the figure quoted in the paper.
    """
    return sum(alphabet_size**length for length in range(1, max_length + 1))
