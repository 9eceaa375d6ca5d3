"""Extended Mealy machines with integer registers (paper section 4.3).

An extended machine decorates every transition of a plain Mealy machine with

* an *update* term per register: how the register vector ``x`` changes as a
  function of the previous registers and the concrete input parameters, and
* an *output* term per output parameter: what concrete value the output
  packet carries, as a function of the updated registers.

Terms are deliberately abstract here: anything with an
``evaluate(registers, inputs)`` method works.  The concrete grammar the
synthesizer searches over (``r``, ``r + 1``, ``pr``, ``pi + 1``, input
fields, constants) lives in :mod:`repro.synth.terms` so that ``core`` stays
dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

from .alphabet import AbstractSymbol
from .mealy import MealyMachine, State


class Term(Protocol):
    """A synthesizable term over register values and input parameters."""

    def evaluate(
        self, registers: Mapping[str, int], inputs: Mapping[str, int]
    ) -> int:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class TransitionAnnotation:
    """Register updates and output parameters for one Mealy transition.

    ``updates`` maps register name -> term evaluated over the *previous*
    register valuation and the current concrete input parameters.  All
    updates happen simultaneously.  ``outputs`` maps output-parameter name ->
    term evaluated over the *updated* registers (matching the paper, where
    the output function ``o`` reads the registers after ``u`` applied).
    """

    updates: Mapping[str, Term] = field(default_factory=dict)
    outputs: Mapping[str, Term] = field(default_factory=dict)


class FrozenDict(dict):
    """A read-only, hashable :class:`dict` (equal to the plain dict)."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True, slots=True)
class ConcreteStep:
    """One step of a concrete trace: input params and observed output params.

    ``input_params``/``output_params`` carry the numeric packet fields the
    abstraction dropped -- e.g. ``{"sn": 2, "an": 5}`` for TCP sequence and
    acknowledgement numbers.  A step is read-only (its params are
    :class:`FrozenDict` copies), so one step taken by the SUL is shared by
    every Oracle-Table entry whose word passes through it.
    """

    input_symbol: AbstractSymbol
    output_symbol: AbstractSymbol
    input_params: Mapping[str, int]
    output_params: Mapping[str, int]

    def __post_init__(self) -> None:
        for name in ("input_params", "output_params"):
            params = getattr(self, name)
            if type(params) is not FrozenDict:
                object.__setattr__(self, name, FrozenDict(params))

    def __reduce__(self):  # plain dicts pickle smaller; __post_init__ refreezes
        params = dict(self.input_params), dict(self.output_params)
        return type(self), (self.input_symbol, self.output_symbol, *params)


class ExtendedMealyMachine:
    """A Mealy machine whose transitions update registers and emit values."""

    def __init__(
        self,
        skeleton: MealyMachine,
        register_names: Sequence[str],
        initial_registers: Mapping[str, int],
        annotations: Mapping[tuple[State, AbstractSymbol], TransitionAnnotation],
        name: str = "extended",
    ) -> None:
        self.skeleton = skeleton
        self.register_names = tuple(register_names)
        self.initial_registers = dict(initial_registers)
        self.annotations = dict(annotations)
        self.name = name
        missing = [
            (state, sym)
            for state in skeleton.states
            for sym in skeleton.input_alphabet
            if (state, sym) not in self.annotations
        ]
        if missing:
            raise ValueError(
                f"extended machine {name!r} lacks annotations for "
                f"{len(missing)} transitions, e.g. {missing[0]}"
            )

    def execute(
        self, steps: Sequence[ConcreteStep]
    ) -> list[dict[str, int]]:
        """Run a concrete trace; return predicted output params per step.

        Raises :class:`KeyError` if a term references an unknown register or
        input field -- callers treat that as an inconsistent model.
        """
        state = self.skeleton.initial_state
        registers = dict(self.initial_registers)
        predictions: list[dict[str, int]] = []
        for step in steps:
            annotation = self.annotations[(state, step.input_symbol)]
            updated = dict(registers)
            for reg, term in annotation.updates.items():
                updated[reg] = term.evaluate(registers, step.input_params)
            outputs = {
                param: term.evaluate(updated, step.input_params)
                for param, term in annotation.outputs.items()
            }
            predictions.append(outputs)
            registers = updated
            state, _ = self.skeleton.step(state, step.input_symbol)
        return predictions

    def consistent_with(self, steps: Sequence[ConcreteStep]) -> bool:
        """True if predictions match every observed output parameter.

        Only parameters the annotation actually models are compared; observed
        params without a synthesized term are ignored (the abstraction may
        expose more fields than we chose to synthesize over).
        """
        try:
            predictions = self.execute(steps)
        except KeyError:
            return False
        for step, predicted in zip(steps, predictions):
            for param, value in predicted.items():
                observed = step.output_params.get(param)
                if observed is not None and observed != value:
                    return False
        return True

    def to_dot(self) -> str:
        """DOT rendering with update/output annotations on edges."""
        lines = [
            f'digraph "{self.name}" {{',
            '  node [shape=circle fontname="monospace"];',
            f'  __start [shape=point label=""];',
            f'  __start -> "{self.skeleton.initial_state}";',
        ]
        for t in self.skeleton.transitions():
            annotation = self.annotations[(t.source, t.input)]
            updates = ", ".join(
                f"{reg}={term}" for reg, term in sorted(annotation.updates.items())
            )
            outputs = ", ".join(
                f"{param}={term}"
                for param, term in sorted(annotation.outputs.items())
            )
            label = f"{t.input}/{t.output}"
            if updates:
                label += f"\\n{updates}"
            if outputs:
                label += f"\\n[{outputs}]"
            lines.append(f'  "{t.source}" -> "{t.target}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExtendedMealyMachine({self.name!r}, "
            f"registers={list(self.register_names)}, "
            f"states={self.skeleton.num_states})"
        )
