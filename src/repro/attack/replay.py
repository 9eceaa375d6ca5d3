"""Live-SUL replay: confirm synthesized attacks against the real system.

The online half of attack synthesis.  Strategies from
:func:`repro.attack.search.synthesize_attack` are predictions made from
a *learned* model; this module replays them through the live SUL (via
whatever membership oracle the executor stack assembled -- serial,
thread- or process-pooled, batched for candidate sets) and classifies
each:

* ``CONFIRMED`` -- the live trace drives the attacker into its goal
  (and still violates the objective, when one is set): the attack is
  real.
* ``REFUTED`` -- the live system answered exactly as the model
  predicted, yet the goal/objective did not hold on the live run.  Only
  reachable with replay-time objectives (oracle-kind predicates over
  the Oracle Table) that the offline search could not evaluate.
* ``DIVERGED`` -- the live outputs differ from the model's prediction
  and the goal was missed: the model has drifted.  The divergence is
  surfaced as a :class:`~repro.analysis.diff.ModelDiff` against a
  freshly learned model when a spec is available.

Confirmed attacks are written as JSONL corpora via
:func:`repro.learn.bulk.write_jsonl_corpus` (index-sorted, so replay
order is deterministic) and seed future passive learning; fuzzer
divergences ride along in the same corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..analysis.diff import ModelDiff, diff_models
from ..analysis.ltl import Formula, parse_ltl
from ..analysis.property_api import Property
from ..core.mealy import MealyMachine
from ..core.oracle_table import OracleTable
from ..core.trace import IOTrace, render_word
from ..registry import attacks_for
from .automata import AttackerAutomaton, resolve_attacker
from .fuzzer import FuzzReport, fuzz_frontier
from .search import AttackStrategy, synthesize_attack

VERDICT_CONFIRMED = "CONFIRMED"
VERDICT_REFUTED = "REFUTED"
VERDICT_DIVERGED = "DIVERGED"


@dataclass
class ReplayResult:
    """One strategy's fate against the live SUL."""

    strategy: AttackStrategy
    verdict: str
    live_outputs: tuple
    goal_reached: bool
    output_match: bool
    minimized_confirmed: bool = False
    model_diff: ModelDiff | None = None

    @property
    def live_trace(self) -> IOTrace:
        return IOTrace(self.strategy.word, self.live_outputs)

    def to_dict(self) -> dict:
        data = {
            "strategy": self.strategy.to_dict(),
            "verdict": self.verdict,
            "live_outputs": [str(s) for s in self.live_outputs],
            "goal_reached": self.goal_reached,
            "output_match": self.output_match,
            "minimized_confirmed": self.minimized_confirmed,
        }
        if self.model_diff is not None:
            data["model_diff"] = self.model_diff.to_dict()
        return data

    def render(self) -> str:
        lines = [self.strategy.render(), f"  verdict:  {self.verdict}"]
        if self.verdict != VERDICT_CONFIRMED:
            lines.append(f"  live:     {render_word(self.live_outputs)}")
        if self.model_diff is not None:
            lines.append("  model drift:")
            for line in self.model_diff.render().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)


def _objective_parts(
    objective: Formula | Property | str | None,
) -> tuple[Formula | None, Property | None, str | None]:
    """Split an objective into its offline formula / replay-time halves."""
    if objective is None:
        return None, None, None
    if isinstance(objective, str):
        return parse_ltl(objective), None, objective
    if isinstance(objective, Formula):
        return objective, None, None
    # A Property: ltlf kinds search offline; oracle kinds can only be
    # judged at replay time, against the live run's Oracle Table.
    if objective.kind == "ltlf":
        return parse_ltl(objective.formula), None, objective.formula
    if objective.kind == "oracle":
        return None, objective, objective.name
    raise ValueError(
        f"objective property {objective.name!r} has kind {objective.kind!r}; "
        "only 'ltlf' and 'oracle' objectives are supported"
    )


def _goal_on_live(
    attacker: AttackerAutomaton,
    formula: Formula | None,
    oracle_prop: Property | None,
    oracle_table: OracleTable | None,
    trace: IOTrace,
) -> bool:
    if not attacker.observe(trace):
        return False
    if formula is not None and formula.holds(trace):
        return False
    if oracle_prop is not None:
        if oracle_table is None:
            return False
        if not list(oracle_prop.oracle_check(oracle_table)):
            return False
    return True


def replay_strategies(
    strategies: Sequence[tuple[AttackerAutomaton, AttackStrategy]],
    oracle,
    *,
    objective: Formula | Property | str | None = None,
    oracle_table: OracleTable | None = None,
) -> list[ReplayResult]:
    """Replay synthesized strategies against the live SUL, batched.

    Full words and their minimized witnesses go through one
    ``query_batch`` call so pooled executors overlap the replays.
    """
    formula, oracle_prop, _ = _objective_parts(objective)
    words = []
    for _, strategy in strategies:
        words.append(list(strategy.word))
        words.append(list(strategy.minimized))
    if not words:
        return []
    answers = oracle.query_batch(words)
    results = []
    for index, (attacker, strategy) in enumerate(strategies):
        live = tuple(answers[2 * index])
        live_min = tuple(answers[2 * index + 1])
        live_trace = IOTrace(strategy.word, live)
        goal = _goal_on_live(
            attacker, formula, oracle_prop, oracle_table, live_trace
        )
        minimized_goal = _goal_on_live(
            attacker,
            formula,
            oracle_prop,
            oracle_table,
            IOTrace(strategy.minimized, live_min),
        )
        match = live == strategy.expected_outputs
        if goal:
            verdict = VERDICT_CONFIRMED
        elif match:
            verdict = VERDICT_REFUTED
        else:
            verdict = VERDICT_DIVERGED
        results.append(
            ReplayResult(
                strategy=strategy,
                verdict=verdict,
                live_outputs=live,
                goal_reached=goal,
                output_match=match,
                minimized_confirmed=minimized_goal,
            )
        )
    return results


@dataclass
class AttackReport:
    """Everything one attack run produced, JSON-able for artifacts."""

    target: str
    results: list[ReplayResult] = field(default_factory=list)
    unreachable: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    states_expanded: int = 0
    fuzz: FuzzReport | None = None
    corpus_path: str | None = None

    @property
    def confirmed(self) -> list[ReplayResult]:
        return [r for r in self.results if r.verdict == VERDICT_CONFIRMED]

    @property
    def ok(self) -> bool:
        """No refuted strategies and no model drift (unreachable is fine)."""
        return all(r.verdict == VERDICT_CONFIRMED for r in self.results)

    def summary(self) -> str:
        bits = [f"{len(self.confirmed)} confirmed"]
        refuted = sum(1 for r in self.results if r.verdict == VERDICT_REFUTED)
        diverged = sum(1 for r in self.results if r.verdict == VERDICT_DIVERGED)
        if refuted:
            bits.append(f"{refuted} refuted")
        if diverged:
            bits.append(f"{diverged} diverged")
        if self.unreachable:
            bits.append(f"{len(self.unreachable)} unreachable")
        if self.fuzz is not None:
            bits.append(
                f"fuzz {len(self.fuzz.divergences)} divergences"
                f"/{self.fuzz.words_sent} words"
            )
        return f"attack {self.target}: " + ", ".join(bits)

    def render(self) -> str:
        lines = [self.summary()]
        for result in self.results:
            lines.extend("  " + line for line in result.render().splitlines())
        for name in self.unreachable:
            lines.append(
                f"  attack {name} vs {self.target}: goal unreachable "
                "(no false attack)"
            )
        if self.fuzz is not None:
            lines.extend("  " + line for line in self.fuzz.render().splitlines())
        if self.corpus_path:
            lines.append(f"  corpus: {self.corpus_path}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "ok": self.ok,
            "results": [r.to_dict() for r in self.results],
            "unreachable": list(self.unreachable),
            "skipped": list(self.skipped),
            "states_expanded": self.states_expanded,
            "fuzz": self.fuzz.to_dict() if self.fuzz is not None else None,
            "corpus_path": self.corpus_path,
        }


def _fresh_model(spec) -> MealyMachine | None:
    """Relearn the target from scratch to explain a divergence."""
    from ..framework import Prognosis

    try:
        clean = spec.clone(
            middleware=["cache"], executor={"kind": "serial"}, store=None
        )
        with Prognosis.from_spec(clean) as prognosis:
            return prognosis.learn().model
    except Exception:
        return None


def run_attacks(
    spec,
    model: MealyMachine,
    oracle,
    *,
    oracle_table: OracleTable | None = None,
    objective: Formula | Property | str | None = None,
    corpus_out: str | Path | None = None,
    explain_divergence: bool = True,
) -> AttackReport:
    """Synthesize, replay and report every applicable attack on a target.

    The attacker set comes from ``spec.attack.attacker`` when pinned, or
    :func:`repro.registry.attacks_for` on the spec's target otherwise;
    automata that do not speak the target's alphabet are recorded as
    ``skipped``.  Confirmed live traces (plus fuzz divergences) become
    an index-sorted JSONL corpus for future passive learning.
    """
    from ..learn.bulk import write_jsonl_corpus

    attack_spec = spec.attack
    report = AttackReport(target=spec.target)

    if objective is None and attack_spec is not None and attack_spec.objective:
        objective = attack_spec.objective
    formula, _, objective_text = _objective_parts(objective)

    if attack_spec is not None and attack_spec.attacker:
        names = [attack_spec.attacker]
    else:
        names = attacks_for(spec.target)

    synthesized: list[tuple[AttackerAutomaton, AttackStrategy]] = []
    for name in names:
        attacker = resolve_attacker(name)
        if not attacker.applicable_to(spec.target):
            report.skipped.append(name)
            continue
        strategy = synthesize_attack(
            model, attacker, objective=formula, objective_text=objective_text
        )
        if strategy is None:
            report.unreachable.append(name)
            continue
        report.states_expanded += strategy.states_expanded
        synthesized.append((attacker, strategy))

    report.results = replay_strategies(
        synthesized, oracle, objective=objective, oracle_table=oracle_table
    )

    if explain_divergence and any(
        r.verdict == VERDICT_DIVERGED for r in report.results
    ):
        fresh = _fresh_model(spec)
        if fresh is not None:
            drift = diff_models(model, fresh)
            for result in report.results:
                if result.verdict == VERDICT_DIVERGED:
                    result.model_diff = drift

    if attack_spec is not None and attack_spec.fuzz:
        report.fuzz = fuzz_frontier(
            model,
            oracle,
            budget=attack_spec.budget,
            seed=spec.seed,
            max_suffix=attack_spec.max_suffix,
        )

    corpus_out = corpus_out or (
        attack_spec.corpus_out if attack_spec is not None else None
    )
    if corpus_out:
        entries: list[tuple[int, IOTrace]] = []
        for result in report.confirmed:
            entries.append((len(entries), result.live_trace))
        if report.fuzz is not None:
            for divergence in report.fuzz.divergences:
                entries.append((len(entries), divergence.trace))
        if entries:
            path = Path(corpus_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_jsonl_corpus(path, entries)
            report.corpus_path = str(path)
    return report
