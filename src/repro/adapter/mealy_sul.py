"""A SUL backed directly by a Mealy machine.

Useful for testing learners against known ground truth, for model-based
mutation experiments, and for replaying learned models as simulated
implementations (model-based test generation, paper section 5).
"""

from __future__ import annotations

from typing import Mapping

from ..core.alphabet import AbstractSymbol, Alphabet, parse_tcp_symbol
from ..core.mealy import MealyMachine, mealy_from_table
from ..registry import SUL_REGISTRY
from .sul import SUL


class MealySUL(SUL):
    """Wraps a machine behind the reset/step SUL interface."""

    def __init__(self, machine: MealyMachine, name: str | None = None) -> None:
        super().__init__(machine.input_alphabet, name=name or machine.name)
        self.machine = machine
        self._state = machine.initial_state

    def _reset_impl(self) -> None:
        self._state = self.machine.initial_state

    def snapshot(self) -> tuple:
        # Wrapped so that a machine state of None is not read as "cannot".
        return (self._state,)

    def restore(self, state: tuple) -> None:
        (self._state,) = state

    def _step_impl(
        self, symbol: AbstractSymbol
    ) -> tuple[AbstractSymbol, Mapping[str, int], Mapping[str, int]]:
        self._state, output = self.machine.step(self._state, symbol)
        return output, {}, {}


def toy_machine() -> MealyMachine:
    """A 3-state SYN/ACK lock: listening, established (RSTs a SYN), closed.

    Small enough that any learner converges in well under a second, which
    is what the ``toy`` registry target exists for: CLI smoke tests,
    campaign plumbing tests and quick demos that should not pay for a full
    protocol simulation.
    """
    syn = parse_tcp_symbol("SYN(?,?,0)")
    ack = parse_tcp_symbol("ACK(?,?,0)")
    synack = parse_tcp_symbol("ACK+SYN(?,?,0)")
    rst = parse_tcp_symbol("RST(?,?,0)")
    nil = parse_tcp_symbol("NIL")
    table = [
        ("s0", syn, synack, "s1"),
        ("s0", ack, nil, "s0"),
        ("s1", syn, rst, "s1"),
        ("s1", ack, nil, "s2"),
        ("s2", syn, nil, "s2"),
        ("s2", ack, nil, "s2"),
    ]
    return mealy_from_table("s0", Alphabet.of([syn, ack]), table, name="toy")


@SUL_REGISTRY.register("toy")
def build_toy_sul() -> MealySUL:
    """The built-in toy target (fast; used by CLI smoke tests)."""
    return MealySUL(toy_machine(), name="toy")
