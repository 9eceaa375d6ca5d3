"""Equivalence oracles (paper section 4.1).

A perfect equivalence oracle would require omniscience of the SUL, so
Prognosis approximates it heuristically: returned counterexamples are
always real, but "no counterexample" only gives probabilistic confidence.
Three strategies are provided:

* :class:`RandomWordEquivalenceOracle` -- cheap randomized testing;
* :class:`WMethodEquivalenceOracle` -- the classical Chow/Vasilevskii test
  suite, exhaustive w.r.t. an assumed state-count bound (and the source of
  the "traces we need to check" figures of section 6.2.2);
* :class:`ChainedEquivalenceOracle` -- run cheap oracles first.

Suites are submitted to the membership oracle in *batches* (``batch_size``
words at a time) rather than word-by-word, so the cache layer can dedup and
prefix-collapse them and a SUL pool can execute them in parallel.  Words
within a batch are still checked against the hypothesis in submission
order, so the first counterexample found is the same one the serial loop
would have returned.  Every counterexample is shrunk to its shortest
failing prefix before being handed to the learner.

Each oracle keeps ``words_submitted`` / ``counterexamples_found`` counters
and exposes them uniformly through ``attribution()``;
:class:`ChainedEquivalenceOracle` aggregates per sub-oracle so a
:class:`~repro.framework.LearningReport` can attribute counterexamples to
the strategy that found them.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from ..core.mealy import MealyMachine
from ..core.trace import Word, random_word
from ..registry import EQ_ORACLE_REGISTRY
from .teacher import MembershipOracle, chunks, replay


class AttributionMixin:
    """The per-oracle accounting every equivalence oracle exposes.

    Subclasses set ``name`` and maintain ``words_submitted`` /
    ``counterexamples_found``; :meth:`attribution` packages them in the
    shape :class:`~repro.framework.LearningReport.eq_attribution` reports,
    replacing the ``getattr`` duck-typing the framework used to do.  The
    word-testing oracles (random, W-method, fixed) check their batches
    with :meth:`_first_counterexample`, over their ``oracle``.
    """

    name: str = "eq"
    words_submitted: int = 0
    counterexamples_found: int = 0

    def attribution(self) -> dict[str, dict[str, int]]:
        return {
            self.name: {
                "words_submitted": self.words_submitted,
                "counterexamples_found": self.counterexamples_found,
            }
        }

    def _first_counterexample(
        self, hypothesis: MealyMachine, batches: Iterable[Sequence[Word]]
    ) -> Word | None:
        """The first counterexample of :func:`~repro.learn.teacher.replay`
        over ``batches``, shrunk to its first differing output, or None."""
        found = replay(hypothesis, self.oracle, batches, stop_after=1)
        self.words_submitted += found.sent
        if found.conforms:
            return None
        self.counterexamples_found += 1
        return found.divergences[0].prefix


@EQ_ORACLE_REGISTRY.register("random")
class RandomWordEquivalenceOracle(AttributionMixin):
    """Sample random input words and compare outputs."""

    def __init__(
        self,
        oracle: MembershipOracle,
        num_words: int = 300,
        min_length: int = 2,
        max_length: int = 12,
        seed: int = 0,
        batch_size: int = 32,
        name: str = "random",
    ) -> None:
        self.oracle = oracle
        self.num_words = num_words
        self.min_length = min_length
        self.max_length = max_length
        self.rng = random.Random(seed)
        self.batch_size = max(1, batch_size)
        self.name = name
        self.words_submitted = 0
        self.counterexamples_found = 0

    def find_counterexample(self, hypothesis: MealyMachine) -> Word | None:
        return self._first_counterexample(hypothesis, self._batches())

    def _batches(self) -> Iterator[list[Word]]:
        """Random batches, each drawn only once the previous one is checked."""
        symbols = list(self.oracle.input_alphabet)
        remaining = self.num_words
        while remaining > 0:
            count = min(self.batch_size, remaining)
            remaining -= count
            yield [
                random_word(self.rng, symbols, self.min_length, self.max_length)
                for _ in range(count)
            ]


@EQ_ORACLE_REGISTRY.register("wmethod")
class WMethodEquivalenceOracle(AttributionMixin):
    """The W-method: transition cover x middles x characterization set.

    With ``extra_states = k`` the suite is exhaustive against any SUL whose
    minimal machine has at most ``hypothesis.num_states + k`` states.
    """

    def __init__(
        self,
        oracle: MembershipOracle,
        extra_states: int = 1,
        batch_size: int = 64,
        name: str = "wmethod",
    ) -> None:
        self.oracle = oracle
        self.extra_states = extra_states
        self.batch_size = max(1, batch_size)
        self.name = name
        self.last_suite_size = 0
        self.words_submitted = 0
        self.counterexamples_found = 0

    def find_counterexample(self, hypothesis: MealyMachine) -> Word | None:
        suite = hypothesis.w_method_suite(self.extra_states)
        self.last_suite_size = len(suite)
        return self._first_counterexample(hypothesis, chunks(suite, self.batch_size))


class ChainedEquivalenceOracle:
    """Try a sequence of oracles; first counterexample wins.

    :meth:`attribution` reports, per sub-oracle, how many words it
    submitted and how many counterexamples it found across all rounds of a
    learning run -- the accounting the paper tables break down by testing
    strategy.  ``last_found_by`` names the sub-oracle that produced the
    most recent counterexample.
    """

    def __init__(self, oracles: Sequence, name: str = "chained") -> None:
        self.oracles = list(oracles)
        self.name = name
        self._names: list[str] = []
        for index, oracle in enumerate(self.oracles):
            sub_name = getattr(oracle, "name", None) or type(oracle).__name__
            if sub_name in self._names:
                sub_name = f"{sub_name}#{index}"
            self._names.append(sub_name)
        self._stats: dict[str, dict[str, int]] = {
            sub_name: {"words_submitted": 0, "counterexamples_found": 0}
            for sub_name in self._names
        }
        self.last_found_by: str | None = None

    def find_counterexample(self, hypothesis: MealyMachine) -> Word | None:
        for name, oracle in zip(self._names, self.oracles):
            words_before = getattr(oracle, "words_submitted", 0)
            counterexample = oracle.find_counterexample(hypothesis)
            stats = self._stats[name]
            stats["words_submitted"] += (
                getattr(oracle, "words_submitted", 0) - words_before
            )
            if counterexample is not None:
                stats["counterexamples_found"] += 1
                self.last_found_by = name
                return counterexample
        return None

    def attribution(self) -> dict[str, dict[str, int]]:
        """Per-sub-oracle accounting, aggregated across all rounds."""
        return {name: dict(stats) for name, stats in self._stats.items()}


class FixedWordsEquivalenceOracle(AttributionMixin):
    """Check a fixed word list (useful in tests and regression suites)."""

    def __init__(
        self,
        oracle: MembershipOracle,
        words: Sequence[Word],
        batch_size: int = 64,
        name: str = "fixed",
    ) -> None:
        self.oracle = oracle
        self.words = list(words)
        self.batch_size = max(1, batch_size)
        self.name = name
        self.words_submitted = 0
        self.counterexamples_found = 0

    def find_counterexample(self, hypothesis: MealyMachine) -> Word | None:
        return self._first_counterexample(hypothesis, chunks(self.words, self.batch_size))


class PerfectEquivalenceOracle(AttributionMixin):
    """Compare against a known reference machine (tests / ablations only).

    This is the omniscient oracle the paper notes cannot exist for a real
    SUL; we can afford it in tests because our SULs are simulations whose
    ground-truth models we constructed.
    """

    def __init__(self, reference: MealyMachine) -> None:
        self.reference = reference
        self.name = "perfect"
        self.words_submitted = 0
        self.counterexamples_found = 0

    def find_counterexample(self, hypothesis: MealyMachine) -> Word | None:
        from ..analysis.equivalence import find_difference

        difference = find_difference(self.reference, hypothesis)
        if difference is None:
            return None
        self.counterexamples_found += 1
        return tuple(difference)
