"""Strategy synthesis: Dijkstra over learned-model x attacker products.

The offline half of attack synthesis.  Given a learned
:class:`~repro.core.mealy.MealyMachine` and an
:class:`~repro.attack.automata.AttackerAutomaton`, explore the product
of the two transition systems on the product explorer property checks
use (:mod:`repro.analysis.product`), in its Dijkstra mode so capability
costs weight the search, for the cheapest input word that drives the
attacker into a goal state.  An optional *objective* (an LTLf formula
from :mod:`repro.analysis.ltl`) further filters goal paths: the
predicted I/O trace must VIOLATE the formula, tying synthesized
strategies to the Property API's notion of "something went wrong".  The
objective's progressed residual is part of the product node, so the
search is exact for history-dependent objectives too.

The result is an :class:`AttackStrategy`: the input word, the
per-step outputs the model predicts, the path cost, and a
ddmin-minimized witness (via
:func:`repro.analysis.difftest.minimize_witness`) that is a
*subsequence* of the shortest goal path -- so the minimized witness is
never longer than the product search's own optimum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..analysis.difftest import minimize_witness
from ..analysis.ltl import Formula
from ..analysis.product import FormulaMonitor, shortest_path
from ..core.mealy import MealyMachine
from ..core.trace import IOTrace, Word, render_word
from ..core.alphabet import deserialize_symbol, serialize_symbol
from .automata import AttackerAutomaton


@dataclass(frozen=True)
class AttackStrategy:
    """A synthesized attack: inputs, predicted outputs, cost, provenance."""

    attacker: str
    target: str
    word: Word
    expected_outputs: Word
    cost: float
    goal: str
    states_expanded: int
    minimized: Word
    objective: str | None = None
    notes: tuple[str, ...] = field(default=())

    @property
    def trace(self) -> IOTrace:
        return IOTrace(self.word, self.expected_outputs)

    def to_dict(self) -> dict:
        return {
            "attacker": self.attacker,
            "target": self.target,
            "word": [serialize_symbol(s) for s in self.word],
            "expected_outputs": [serialize_symbol(s) for s in self.expected_outputs],
            "cost": self.cost,
            "goal": self.goal,
            "states_expanded": self.states_expanded,
            "minimized": [serialize_symbol(s) for s in self.minimized],
            "objective": self.objective,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "AttackStrategy":
        return cls(
            attacker=data["attacker"],
            target=data["target"],
            word=tuple(deserialize_symbol(s) for s in data["word"]),
            expected_outputs=tuple(
                deserialize_symbol(s) for s in data["expected_outputs"]
            ),
            cost=data["cost"],
            goal=data["goal"],
            states_expanded=data["states_expanded"],
            minimized=tuple(deserialize_symbol(s) for s in data["minimized"]),
            objective=data.get("objective"),
            notes=tuple(data.get("notes", ())),
        )

    def render(self) -> str:
        lines = [
            f"attack {self.attacker} vs {self.target}: goal {self.goal!r} "
            f"reachable (cost {self.cost:g}, "
            f"{self.states_expanded} product states expanded)",
            f"  strategy: {render_word(self.word)}",
            f"  expects:  {render_word(self.expected_outputs)}",
            f"  witness:  {render_word(self.minimized)} "
            f"({len(self.minimized)}/{len(self.word)} steps)",
        ]
        if self.objective:
            lines.append(f"  objective: violates {self.objective!r}")
        return "\n".join(lines)


def _objective_violated(objective: Formula | None, trace: IOTrace) -> bool:
    """An objective filters goal paths: the trace must VIOLATE it."""
    return objective is None or not objective.holds(trace)


def synthesize_attack(
    model: MealyMachine,
    attacker: AttackerAutomaton,
    *,
    objective: Formula | None = None,
    objective_text: str | None = None,
    minimize: bool = True,
    max_expansions: int = 100_000,
) -> AttackStrategy | None:
    """Search the model x attacker product for a cheapest goal path.

    Returns ``None`` -- never raises -- when no goal is reachable: an
    empty input alphabet, an attacker move whose symbol the model does
    not speak, or a model whose behaviour prunes every line of attack
    (the conformant-variant "no false attack" case) all land here.

    Dijkstra (:func:`repro.analysis.product.shortest_path`) over nodes
    ``(model_state, attacker_state, residual)`` with per-move costs and
    deterministic tie-breaking, so the same model + attacker always
    yields the same strategy.  ``residual`` is the objective's monitor
    state (:class:`~repro.analysis.product.FormulaMonitor`), so two paths
    that differ in what the objective has seen are different nodes: a
    goal node counts only if its trace violates the objective, and a
    costlier path whose history does violate it is never pruned by a
    cheaper one that does not.  Goal states end a line of attack.
    """
    by_label = {str(symbol): symbol for symbol in model.input_alphabet}
    monitor = None if objective is None else FormulaMonitor(objective)

    def successors(node):
        model_state, attacker_state, residual = node
        if attacker_state in attacker.goals:
            return
        for move in attacker.enabled(attacker_state):
            symbol = by_label.get(move.symbol)
            if symbol is None:
                continue
            next_model, output = model.step(model_state, symbol)
            next_attacker = attacker.outcome(move, str(output))
            if next_attacker is None:
                continue
            if monitor is not None:
                next_residual = monitor.step(residual, symbol, output)
            else:
                next_residual = None
            yield move.cost, symbol, output, (next_model, next_attacker, next_residual)

    def accept(node) -> bool:
        _, attacker_state, residual = node
        return attacker.is_goal(attacker_state) and (
            monitor is None or not monitor.ok(residual)
        )

    start = (
        model.initial_state,
        attacker.initial,
        None if monitor is None else monitor.initial,
    )
    found = shortest_path(
        start, successors, accept, weighted=True, max_expansions=max_expansions
    )
    if found is None:
        return None
    minimized = found.word
    if minimize and found.word:
        minimized = _minimize(model, attacker, objective, found.word)
    return AttackStrategy(
        attacker=attacker.name,
        target=model.name,
        word=found.word,
        expected_outputs=found.outputs,
        cost=found.cost,
        goal=found.node[1],
        states_expanded=found.expanded,
        minimized=minimized,
        objective=objective_text,
    )


def _minimize(
    model: MealyMachine,
    attacker: AttackerAutomaton,
    objective: Formula | None,
    word: Word,
) -> Word:
    """ddmin the goal word against the model's own predictions.

    The predicate replays a candidate subsequence through the *model*
    and asks the attacker's lenient observer whether the predicted trace
    still reaches a goal (and still violates the objective).  The result
    is a subsequence of ``word``, hence never longer than the product
    search's shortest path.
    """

    def reaches(candidate: Word) -> bool:
        trace = IOTrace(candidate, model.run(candidate))
        return attacker.observe(trace) and _objective_violated(objective, trace)

    return minimize_witness(word, reaches)
