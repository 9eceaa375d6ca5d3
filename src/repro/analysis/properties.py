"""Property checking over learned models (paper section 5).

For a Mealy machine, "every trace up to a bound satisfies the property"
is decided on the product of the machine and a monitor of the property
(:mod:`repro.analysis.product`): an LTLf formula is monitored by
progression, a protocol suite's trace property by its own finite-state
monitor, and any other predicate by a monitor that keeps the whole
prefix.  ``depth`` bounds the trace length, so a violation longer than
``depth`` is not reported.  For extended machines with registers the
problem is undecidable in general, so -- like the paper -- we fall back
to randomised testing of concrete executions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.extended import ConcreteStep, ExtendedMealyMachine
from ..core.mealy import MealyMachine
from ..core.trace import IOTrace, random_word
from .ltl import Formula
from .product import FormulaMonitor, as_monitor, find_violation


@dataclass(frozen=True)
class PropertyViolation:
    """A counterexample trace for a property."""

    trace: IOTrace
    description: str

    def render(self) -> str:
        return f"{self.description}: {self.trace.render()}"


def check_property(
    machine: MealyMachine, formula: Formula, depth: int
) -> PropertyViolation | None:
    """Check every trace of length <= depth; None if they all satisfy
    ``formula``, else a shortest violating trace.

    The learned model makes this tractable: instead of the |Sigma|^depth
    blow-up against the live SUL, the search visits each (model state,
    residual formula) pair once -- the trace-reduction argument of
    section 6.2.2.
    """
    trace = find_violation(machine, FormulaMonitor(formula), depth)
    return None if trace is None else PropertyViolation(trace, "LTLf violation")


def check_invariant(
    machine: MealyMachine,
    predicate: Callable[[IOTrace], bool],
    depth: int,
) -> PropertyViolation | None:
    """Check a trace predicate (or monitor) on all traces up to ``depth``."""
    trace = find_violation(machine, as_monitor(predicate), depth)
    return None if trace is None else PropertyViolation(trace, "invariant violation")


# ---------------------------------------------------------------------------
# Register properties on extended machines: randomised testing
# ---------------------------------------------------------------------------

RegisterPredicate = Callable[[Sequence[ConcreteStep], Sequence[dict]], bool]


@dataclass(frozen=True)
class RegisterViolation:
    steps: tuple[ConcreteStep, ...]
    predictions: tuple[dict, ...]
    description: str


def check_register_property(
    machine: ExtendedMealyMachine,
    concrete_traces: Sequence[Sequence[ConcreteStep]],
    predicate: RegisterPredicate,
    description: str = "register property",
) -> RegisterViolation | None:
    """Test a predicate over (observed steps, predicted outputs) pairs.

    Used for quantity properties like "packet numbers are always
    increasing" or "``maximum_stream_data`` is not constant" (Issue 4).
    """
    for steps in concrete_traces:
        try:
            predictions = machine.execute(list(steps))
        except KeyError:
            continue
        if not predicate(steps, predictions):
            return RegisterViolation(
                steps=tuple(steps),
                predictions=tuple(predictions),
                description=description,
            )
    return None


def random_traces(
    machine: MealyMachine,
    num_traces: int,
    max_length: int,
    seed: int = 0,
) -> list[IOTrace]:
    """Sample random traces from a model (for model-based test generation).

    An empty input alphabet yields an empty list (there is nothing to
    sample), mirroring :func:`repro.analysis.testgen.generate_test_suite`.
    """
    rng = random.Random(seed)
    symbols = list(machine.input_alphabet)
    if not symbols:
        return []
    return [
        machine.trace(random_word(rng, symbols, 1, max_length)) for _ in range(num_traces)
    ]
