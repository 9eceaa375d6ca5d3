"""Equivalence checking of learned models (paper section 5).

For Mealy machines trace equivalence is decidable in polynomial time [Hunt
& Rosenkrantz 1977]: run a breadth-first search over the product machine
and look for a reachable state pair that disagrees on some input's output
(the one product search of :mod:`repro.analysis.product`).
The witness word -- a concrete example trace showing how two
implementations differ -- is exactly what Prognosis showed developers in
Issues 1 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.mealy import MealyMachine, State
from ..core.trace import IOTrace, Word
from .product import shortest_path


class AlphabetMismatchError(ValueError):
    """Machines over different input alphabets cannot be compared."""


def _check_alphabets(a: MealyMachine, b: MealyMachine) -> None:
    if tuple(a.input_alphabet) != tuple(b.input_alphabet):
        raise AlphabetMismatchError(
            f"machines {a.name!r} and {b.name!r} have different input alphabets"
        )


def find_difference(a: MealyMachine, b: MealyMachine) -> Word | None:
    """A shortest input word on which the machines' outputs differ, or None.

    A breadth-first :func:`~repro.analysis.product.shortest_path` over the
    product machine, where a transition whose two outputs differ leads to
    one sentinel node, the only node accepted: the witness ends with the
    differing symbol and is the first such word in (length, alphabet)
    order.
    """
    _check_alphabets(a, b)
    symbols = tuple(a.input_alphabet)
    differs = object()

    def successors(pair):
        for symbol in symbols:
            next_a, out_a = a.step(pair[0], symbol)
            next_b, out_b = b.step(pair[1], symbol)
            yield 1, symbol, out_a, differs if out_a != out_b else (next_a, next_b)

    found = shortest_path(
        (a.initial_state, b.initial_state), successors, lambda node: node is differs
    )
    return None if found is None else found.word


def equivalent(a: MealyMachine, b: MealyMachine) -> bool:
    """Trace equivalence of two Mealy machines."""
    return find_difference(a, b) is None


@dataclass(frozen=True)
class DifferenceWitness:
    """A concrete trace pair showing two machines diverging."""

    word: Word
    trace_a: IOTrace
    trace_b: IOTrace
    name_a: str
    name_b: str

    def render(self) -> str:
        lines = [
            f"input word : {' '.join(str(s) for s in self.word)}",
            f"{self.name_a:>10} : {' '.join(str(o) for o in self.trace_a.outputs)}",
            f"{self.name_b:>10} : {' '.join(str(o) for o in self.trace_b.outputs)}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-able rendering (difftest campaign artifacts)."""
        return {
            "word": [str(symbol) for symbol in self.word],
            "outputs_a": [str(symbol) for symbol in self.trace_a.outputs],
            "outputs_b": [str(symbol) for symbol in self.trace_b.outputs],
            "name_a": self.name_a,
            "name_b": self.name_b,
        }


def difference_witness(a: MealyMachine, b: MealyMachine) -> DifferenceWitness | None:
    """The full evidence object for the shortest difference, if any."""
    word = find_difference(a, b)
    if word is None:
        return None
    return DifferenceWitness(
        word=word,
        trace_a=a.trace(word),
        trace_b=b.trace(word),
        name_a=a.name,
        name_b=b.name,
    )


def bisimulation_classes(machine: MealyMachine) -> list[list[State]]:
    """Partition of states into behavioural equivalence classes."""
    minimal = machine.minimize()
    classes: dict[State, list[State]] = {}
    access = machine.access_sequences()
    for state, word in access.items():
        key = minimal.state_after(word)
        classes.setdefault(key, []).append(state)
    return list(classes.values())
