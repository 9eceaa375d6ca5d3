"""Model diffing: explaining how two implementations differ.

Beyond the yes/no of equivalence checking, Prognosis produces evidence a
developer can act on: the size gap between models (how Issue 1 was first
noticed), a set of shortest diverging traces, and per-input behavioural
summaries.  All output is plain text, mirroring the visual comparisons the
paper used to communicate bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.alphabet import AbstractSymbol
from ..core.mealy import MealyMachine
from ..core.trace import Word
from .equivalence import DifferenceWitness, difference_witness


@dataclass
class ModelDiff:
    """A structured comparison of two learned models."""

    name_a: str
    name_b: str
    states_a: int
    states_b: int
    transitions_a: int
    transitions_b: int
    equivalent: bool
    witnesses: list[DifferenceWitness] = field(default_factory=list)

    @property
    def size_gap(self) -> int:
        """Absolute state-count difference ("vastly different sizes")."""
        return abs(self.states_a - self.states_b)

    def render(self) -> str:
        lines = [
            f"model diff: {self.name_a} vs {self.name_b}",
            f"  states      : {self.states_a} vs {self.states_b}",
            f"  transitions : {self.transitions_a} vs {self.transitions_b}",
            f"  equivalent  : {self.equivalent}",
        ]
        for index, witness in enumerate(self.witnesses, start=1):
            lines.append(f"  divergence #{index}:")
            for line in witness.render().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-able encoding (campaign ``diff-*.json`` artifacts)."""
        return {
            "name_a": self.name_a,
            "name_b": self.name_b,
            "states_a": self.states_a,
            "states_b": self.states_b,
            "transitions_a": self.transitions_a,
            "transitions_b": self.transitions_b,
            "equivalent": self.equivalent,
            "size_gap": self.size_gap,
            "witnesses": [witness.to_dict() for witness in self.witnesses],
        }


def diff_models(
    a: MealyMachine, b: MealyMachine, max_witnesses: int = 5
) -> ModelDiff:
    """Compare two machines and collect up to ``max_witnesses`` divergences.

    Witnesses are gathered by exploring the product machine from every
    jointly reachable state pair and keeping distinct shortest diverging
    words (deduplicated by their input word).
    """
    first = difference_witness(a, b)
    diff = ModelDiff(
        name_a=a.name,
        name_b=b.name,
        states_a=a.num_states,
        states_b=b.num_states,
        transitions_a=a.num_transitions,
        transitions_b=b.num_transitions,
        equivalent=first is None,
    )
    if first is None:
        return diff
    diff.witnesses.append(first)
    seen_words: set[Word] = {first.word}
    # Extend each witness by one symbol to surface follow-on divergences.
    frontier = [first.word]
    while frontier and len(diff.witnesses) < max_witnesses:
        base = frontier.pop(0)
        for symbol in a.input_alphabet:
            candidate = base + (symbol,)
            if candidate in seen_words:
                continue
            outputs_a = a.run(candidate)
            outputs_b = b.run(candidate)
            if outputs_a[-1] != outputs_b[-1]:
                seen_words.add(candidate)
                diff.witnesses.append(
                    DifferenceWitness(
                        word=candidate,
                        trace_a=a.trace(candidate),
                        trace_b=b.trace(candidate),
                        name_a=a.name,
                        name_b=b.name,
                    )
                )
                if len(diff.witnesses) >= max_witnesses:
                    break
                frontier.append(candidate)
    return diff


def behavioural_summary(machine: MealyMachine) -> dict[AbstractSymbol, set[AbstractSymbol]]:
    """For each input symbol, the set of outputs it can ever produce.

    This coarse view is how a "supposedly variable value that is actually
    constant" (Issue 4) shows up at a glance: the output set is a singleton.
    """
    summary: dict[AbstractSymbol, set[AbstractSymbol]] = {
        symbol: set() for symbol in machine.input_alphabet
    }
    for transition in machine.transitions():
        summary[transition.input].add(transition.output)
    return summary
