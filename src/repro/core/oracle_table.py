"""The Oracle Table (paper section 3.2, adapter property 4).

The Oracle Table caches every exchange between the learner and the SUL at
*both* abstraction levels: the abstract I/O trace the learner saw, and the
concrete packet parameters the adapter actually sent and received.  The
synthesizer of section 4.3 mines this table to recover register behaviour
(sequence numbers, flow-control offsets, ...) that the abstraction dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .alphabet import AbstractSymbol
from .extended import ConcreteStep
from .trace import IOTrace, Word


@dataclass(frozen=True)
class OracleEntry:
    """One complete query: abstract trace plus per-step concrete params."""

    abstract: IOTrace
    steps: tuple[ConcreteStep, ...]

    def __post_init__(self) -> None:
        if len(self.abstract) != len(self.steps):
            raise ValueError(
                f"oracle entry length mismatch: {len(self.abstract)} abstract "
                f"steps vs {len(self.steps)} concrete steps"
            )


class OracleTable:
    """An append-only cache of abstract/concrete trace pairs.

    Entries are keyed by their abstract input word, so membership queries can
    be answered from the cache, and the synthesizer can ask for "all concrete
    traces whose abstract path visits transition t".
    """

    def __init__(self, max_entries: int | None = None) -> None:
        self._entries: dict[Word, OracleEntry] = {}
        self._max_entries = max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[OracleEntry]:
        return iter(self._entries.values())

    def __contains__(self, inputs: Word) -> bool:
        return tuple(inputs) in self._entries

    def record(
        self,
        inputs: Sequence[AbstractSymbol],
        outputs: Sequence[AbstractSymbol],
        input_params: Sequence[Mapping[str, int]],
        output_params: Sequence[Mapping[str, int]],
    ) -> OracleEntry:
        """Store one query's abstract and concrete observations.

        Re-recording the same input word overwrites the previous entry (the
        latest observation wins, matching the paper's retransmission-pruning
        behaviour).  When ``max_entries`` is set, the oldest entry is evicted
        first.
        """
        abstract = IOTrace(tuple(inputs), tuple(outputs))
        steps = map(ConcreteStep, abstract.inputs, abstract.outputs, input_params, output_params)
        return self.record_steps(abstract.inputs, steps)

    def record_steps(
        self, inputs: Sequence[AbstractSymbol], steps: Iterable[ConcreteStep]
    ) -> OracleEntry:
        """:meth:`record` a query from its (read-only, shareable) steps."""
        steps = tuple(steps)
        key = tuple(inputs)
        entry = OracleEntry(IOTrace(key, tuple(step.output_symbol for step in steps)), steps)
        if (
            self._max_entries is not None
            and key not in self._entries
            and len(self._entries) >= self._max_entries
        ):
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = entry
        return entry

    def lookup(self, inputs: Sequence[AbstractSymbol]) -> OracleEntry | None:
        """The entry recorded for exactly this input word, if any."""
        return self._entries.get(tuple(inputs))

    def lookup_output(self, inputs: Sequence[AbstractSymbol]) -> Word | None:
        """Cached abstract outputs for an input word (prefix-closed).

        If a strictly longer query with this word as a prefix was recorded,
        its output prefix answers the shorter query too -- abstract traces of
        a deterministic SUL are prefix-closed.
        """
        key = tuple(inputs)
        entry = self._entries.get(key)
        if entry is not None:
            return entry.abstract.outputs
        for stored, candidate in self._entries.items():
            if stored[: len(key)] == key:
                return candidate.abstract.outputs[: len(key)]
        return None

    def entries(self) -> list[OracleEntry]:
        """All entries, in insertion order."""
        return list(self._entries.values())

    def concrete_traces(self) -> list[tuple[ConcreteStep, ...]]:
        """All concrete traces -- the synthesizer's training set."""
        return [entry.steps for entry in self._entries.values()]

    def clear(self) -> None:
        self._entries.clear()
