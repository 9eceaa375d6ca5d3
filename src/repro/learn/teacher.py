"""The Minimally Adequate Teacher interface (paper section 4.1).

Learners interact with the SUL exclusively through two oracle protocols:

* a :class:`MembershipOracle` answers "what does the SUL output for this
  input word?";
* an :class:`EquivalenceOracle` answers "is this hypothesis correct?" with
  either ``None`` or a counterexample input word.

:class:`SULMembershipOracle` adapts a :class:`repro.adapter.sul.SUL` to the
membership protocol and keeps the statistics the paper reports (e.g. the
4,726 membership queries of section 6.1).

:func:`replay` is the one way a model is checked against an oracle:
equivalence queries, model-based test suites, cross-implementation
differencing, frontier fuzzing and store revalidation all send words
through it and get back the :class:`Divergence` records of the words whose
answers contradict the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

from ..adapter.sul import SUL
from ..core.alphabet import AbstractSymbol, Alphabet
from ..core.mealy import MealyMachine
from ..core.trace import IOTrace, Word, render_word


class MembershipOracle(Protocol):
    """Answers membership queries over abstract words.

    Both entry points must agree: ``query_batch(words)[i]`` equals
    ``query(words[i])`` for a deterministic SUL.  The batch form is the
    primary one -- learners and equivalence oracles emit batches so the
    layers below (cache planning, majority voting, SUL pooling) can dedup,
    collapse and parallelize; ``query`` remains for inherently sequential
    probing such as Rivest-Schapire binary search.
    """

    input_alphabet: Alphabet

    def query(self, word: Sequence[AbstractSymbol]) -> Word:  # pragma: no cover
        ...

    def query_batch(
        self, words: Sequence[Sequence[AbstractSymbol]]
    ) -> list[Word]:  # pragma: no cover
        ...


class EquivalenceOracle(Protocol):
    """Searches for counterexamples to a hypothesis."""

    def find_counterexample(
        self, hypothesis: MealyMachine
    ) -> Word | None:  # pragma: no cover
        ...

    def attribution(self) -> dict[str, dict[str, int]]:  # pragma: no cover
        """Per-strategy accounting: ``{name: {words_submitted,
        counterexamples_found}}`` (chained oracles report one entry per
        sub-oracle)."""
        ...


@dataclass
class OracleStats:
    """Query accounting for one oracle layer."""

    queries: int = 0
    symbols: int = 0

    def note(self, word: Sequence[AbstractSymbol]) -> None:
        self.queries += 1
        self.symbols += len(word)


class SULMembershipOracle:
    """The base oracle: every query reaches the actual SUL."""

    def __init__(self, sul: SUL) -> None:
        self.sul = sul
        self.input_alphabet = sul.input_alphabet
        self.stats = OracleStats()

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        self.stats.note(word)
        return self.sul.query(word)

    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        words = [tuple(word) for word in words]
        for word in words:
            self.stats.note(word)
        return list(self.sul.query_batch(words))


class CountingOracle:
    """A transparent pass-through layer that only counts (for ablations)."""

    def __init__(self, inner: MembershipOracle) -> None:
        self.inner = inner
        self.input_alphabet = inner.input_alphabet
        self.stats = OracleStats()

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        self.stats.note(word)
        return self.inner.query(word)

    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        words = [tuple(word) for word in words]
        for word in words:
            self.stats.note(word)
        return self.inner.query_batch(words)


def mq_suffix(
    oracle: MembershipOracle, prefix: Word, suffix: Word
) -> Word:
    """Outputs for ``suffix`` after driving the SUL through ``prefix``."""
    outputs = oracle.query(prefix + suffix)
    return outputs[len(prefix):]


def mq_suffix_batch(
    oracle: MembershipOracle, pairs: Sequence[tuple[Word, Word]]
) -> list[Word]:
    """Batched :func:`mq_suffix`: one query batch, suffix outputs per pair."""
    pairs = [(tuple(prefix), tuple(suffix)) for prefix, suffix in pairs]
    answers = oracle.query_batch([prefix + suffix for prefix, suffix in pairs])
    return [
        tuple(outputs[len(prefix):]) for (prefix, _), outputs in zip(pairs, answers)
    ]


def chunks(words: Sequence[Word], size: int) -> Iterator[Sequence[Word]]:
    """``words`` as consecutive batches of at most ``size`` words."""
    size = max(1, size)
    return (words[start : start + size] for start in range(0, len(words), size))


@dataclass(frozen=True)
class Divergence:
    """One word on which the oracle's answer contradicted the model."""

    word: Word
    expected: Word
    actual: Word

    @property
    def first(self) -> int:
        """Index of the first differing output."""
        return next(
            (i for i, (e, a) in enumerate(zip(self.expected, self.actual)) if e != a),
            min(len(self.expected), len(self.actual)),
        )

    @property
    def prefix(self) -> Word:
        """The word up to its first differing output: the shortest prefix
        that still diverges (what a learner takes as a counterexample)."""
        return self.word[: self.first + 1]

    @property
    def trace(self) -> IOTrace:
        return IOTrace(self.word, self.actual)

    def to_dict(self) -> dict:
        return {
            "word": [str(s) for s in self.word],
            "expected": [str(s) for s in self.expected],
            "actual": [str(s) for s in self.actual],
        }

    def render(self) -> str:
        return (
            f"{render_word(self.word)}: model predicted "
            f"{render_word(self.expected)}, live answered "
            f"{render_word(self.actual)}"
        )


@dataclass
class Replay:
    """What :func:`replay` found: the words sent and the divergences."""

    sent: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def conforms(self) -> bool:
        return not self.divergences

    @property
    def divergence_rate(self) -> float:
        return len(self.divergences) / self.sent if self.sent else 0.0

    def render(self) -> str:
        lines = [f"replay: {self.sent} words, {len(self.divergences)} divergences"]
        lines.extend(f"  {d.render()}" for d in self.divergences[:5])
        if len(self.divergences) > 5:
            lines.append(f"  ... and {len(self.divergences) - 5} more")
        return "\n".join(lines)


def replay(
    model: MealyMachine,
    oracle: MembershipOracle,
    batches: Iterable[Sequence[Word]],
    *,
    stop_after: int | None = None,
) -> Replay:
    """Send each batch to ``oracle`` and compare the answers with ``model``.

    One ``query_batch`` and one :meth:`~repro.core.mealy.MealyMachine.run_all`
    walk per batch, and a record only for a word whose answer differs.
    Divergences come in batch order.  ``batches`` is drawn lazily -- a
    batch only after the previous one is checked -- and the replay stops
    once it holds ``stop_after`` divergences.
    """
    found = Replay()
    for batch in batches:
        answers = oracle.query_batch(batch)
        found.sent += len(batch)
        for word, actual, expected in zip(batch, answers, model.run_all(batch)):
            if tuple(actual) != expected:
                found.divergences.append(Divergence(tuple(word), expected, tuple(actual)))
                if len(found.divergences) == stop_after:
                    return found
    return found
