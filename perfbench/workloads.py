"""The benchmark's four workloads, their set-up and their correctness gate.

Every workload is a closed loop with one caller: each learn uses the
target's default spec (``ttt``, ``wmethod`` with ``extra_states=1``,
``cache``), exactly what ``repro run`` gives a user, and the learner
waits for each batch's answers before it sends the next.  The workload
seed becomes every target's ``seed`` param and the spec seed (which also
seeds the corpus-seeded learns of ``offline``).

* ``learn-quic``   -- cold serial learns of ``quic-google`` and ``quic-quiche``.
* ``learn-stream`` -- cold serial learns of ``tcp``, ``http2`` and ``http3``.
* ``learn-pooled`` -- the ``learn-stream`` targets on the ``process``
  executor with :data:`POOL_WORKERS` workers.
* ``offline``      -- warm ``store`` relearns and corpus-seeded
  (``passive``) relearns of all five targets, then property checks,
  model diffs and attack searches on the eight pinned models.  It never
  touches a live SUL.

The gate compares every learned model with the reference pinned in
``reference/`` and replays every witness the analysis layers return;
each failed check is one failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.pool import SULPool
from repro.analysis.diff import diff_models
from repro.analysis.equivalence import find_difference
from repro.analysis.ltl import parse_ltl
from repro.analysis.property_api import (
    KIND_LTLF,
    KIND_TRACE,
    Verdict,
    check_properties,
    resolve_properties,
)
from repro.attack.automata import resolve_attacker
from repro.attack.search import synthesize_attack
from repro.core.mealy import MealyMachine
from repro.core.trace import IOTrace
from repro.framework import Prognosis
from repro.learn.bulk import write_jsonl_corpus
from repro.registry import attacks_for, load_builtins
from repro.spec import CorpusSpec, ExecutorSpec, ExperimentSpec, StoreSpec, assemble

from pace import PACE

REFERENCE_DIR = Path(__file__).resolve().with_name("reference")
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

STREAM_TARGETS = ("tcp", "http2", "http3")
QUIC_TARGETS = ("quic-google", "quic-quiche")
LEARN_TARGETS = STREAM_TARGETS + QUIC_TARGETS
VARIANTS = ("tcp-no-challenge-ack", "http2-buggy", "http3-buggy")
MODEL_TARGETS = LEARN_TARGETS + VARIANTS
DIFF_PAIRS = (
    ("tcp", "tcp-no-challenge-ack"),
    ("http2", "http2-buggy"),
    ("http3", "http3-buggy"),
    ("quic-google", "quic-quiche"),
)
#: Violations the property suites find at depth 5 today; more are allowed.
KNOWN_VIOLATIONS = (
    ("tcp-no-challenge-ack", "challenge-ack-rate-limited"),
    ("http2-buggy", "rst-after-response-tolerated"),
    ("http3-buggy", "goaway-drain-rejects-new"),
    ("quic-google", "single-packet-close"),
)
#: Attacks the product search finds today; more are allowed.
KNOWN_ATTACKS = (
    ("tcp", "off-path-rst"),
    ("tcp", "challenge-ack-exhaust"),
    ("tcp-no-challenge-ack", "off-path-rst"),
    ("http2-buggy", "rapid-reset"),
    ("http3-buggy", "goaway-drain"),
)
#: Fixed, not read from the machine, so every box runs the same shards.
POOL_WORKERS = 2
PROPERTY_DEPTH = 5
COLD_START = "from repro.registry import load_builtins; load_builtins()"


def load_references(directory: Path = REFERENCE_DIR) -> dict[str, MealyMachine]:
    """The pinned reference model of every target, by target key."""
    return {
        target: MealyMachine.from_dict(
            json.loads((directory / f"{target}.json").read_text())
        )
        for target in MODEL_TARGETS
    }


def cold_start() -> None:
    """Start a fresh interpreter that imports the program, and wait for it.

    Both run on one CPU meanwhile, so the pace probe, which runs in this
    process, measures the pace of the CPU the child works on.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        subprocess.run(
            [sys.executable, "-c", COLD_START], env=env, check=True, timeout=120
        )
    finally:
        os.sched_setaffinity(0, allowed)


def spec_for(target: str, seed: int, **sections) -> ExperimentSpec:
    """The target's default spec, seeded with the workload seed."""
    return ExperimentSpec(
        target=target, target_params={"seed": seed}, seed=seed, **sections
    )


# ---------------------------------------------------------------------------
# One learn, one analysis pass
# ---------------------------------------------------------------------------

@dataclass
class Learn:
    """One learn of one target: its wall time and what it reported."""

    target: str
    mode: str  # cold | pooled | store | corpus
    seconds: float
    report: object = None  # LearningReport
    cache_nodes: int = 0
    worker_queries: list[int] = field(default_factory=list)
    store_words: int = 0
    error: str | None = None


def learn(target: str, mode: str, spec: ExperimentSpec, tracer) -> Learn:
    """Build the pipeline, learn and close it; all of it is timed."""
    record = Learn(target=target, mode=mode, seconds=0.0)
    start = PACE.mark()
    try:
        with tracer.span("target"):
            with tracer.span("pipeline.build"):
                prognosis = Prognosis.from_spec(spec)
            try:
                with tracer.span("pipeline.learn"):
                    record.report = prognosis.learn()
                cache = prognosis.cache_oracle
                record.cache_nodes = cache.cache.nodes
                record.store_words = getattr(cache, "preloaded_words", 0)
                if isinstance(prognosis.sul, SULPool):
                    record.worker_queries = prognosis.sul.per_worker_queries()
            finally:
                with tracer.span("pipeline.close"):
                    prognosis.close()
    except Exception:  # a failed learn is a failed operation, not a crash
        record.error = traceback.format_exc(limit=3)
    record.seconds = PACE.since(start)
    return record


@dataclass
class Analysis:
    """Outputs of the property, diff and attack layers on the models."""

    reports: dict = field(default_factory=dict)  # target -> PropertyReport
    diffs: dict = field(default_factory=dict)  # (a, b) -> ModelDiff
    attacks: dict = field(default_factory=dict)  # (target, attacker) -> strategy
    states_expanded: int = 0


def analyze(models: dict[str, MealyMachine], tracer) -> Analysis:
    """Check, diff and attack every model, as a user of ``offline`` would."""
    result = Analysis()
    for target in MODEL_TARGETS:
        properties = resolve_properties(target, include_probes=True)
        with tracer.span("analysis.check"):
            result.reports[target] = check_properties(
                models[target], properties, depth=PROPERTY_DEPTH, target=target
            )
    for pair in DIFF_PAIRS:
        with tracer.span("analysis.diff"):
            result.diffs[pair] = diff_models(models[pair[0]], models[pair[1]])
    for target in MODEL_TARGETS:
        for name in attacks_for(target):
            goal_tests = tracer.count("attack.goal_tests")
            with tracer.span("attack.search"):
                strategy = synthesize_attack(models[target], resolve_attacker(name))
            result.attacks[target, name] = strategy
            # A failed search expands until its heap is empty, testing one
            # goal per expansion; a found one reports its own count.
            result.states_expanded += (
                strategy.states_expanded
                if strategy is not None
                else tracer.count("attack.goal_tests") - goal_tests
            )
    return result


# ---------------------------------------------------------------------------
# The correctness gate
# ---------------------------------------------------------------------------

def _body(model: MealyMachine) -> dict:
    """A model's JSON without its name (a pool names its model ``<sul>-pool``)."""
    return {key: value for key, value in model.to_dict().items() if key != "name"}


def check_learn(record: Learn, reference: MealyMachine, identical: bool) -> str | None:
    """Why a learn failed, or None.  ``identical`` demands the reference's
    exact states and transitions, not only equivalent behaviour."""
    where = f"{record.target} ({record.mode})"
    if record.error is not None:
        return f"{where} raised: {record.error.strip().splitlines()[-1]}"
    model = record.report.model
    if model.num_states != reference.num_states:
        return f"{where}: {model.num_states} states, reference has {reference.num_states}"
    try:
        witness = find_difference(model, reference)
    except ValueError as error:  # alphabet mismatch
        return f"{where}: not comparable with the reference ({error})"
    if witness is not None:
        return f"{where}: differs from the reference on {witness}"
    if identical and _body(model) != _body(reference):
        return f"{where}: not identical to the serial reference"
    if record.mode in ("store", "corpus") and record.report.sul_queries:
        return f"{where}: sent {record.report.sul_queries} queries to the live SUL"
    return None


def _violates(prop, trace: IOTrace) -> bool:
    if prop.kind == KIND_LTLF:
        return not parse_ltl(prop.formula).holds(trace)
    if prop.kind == KIND_TRACE:
        return not prop.predicate(trace)
    return True  # oracle/register verdicts carry no model-replayable claim


def check_analysis(result: Analysis, models: dict[str, MealyMachine]) -> tuple[int, list[str]]:
    """Operations attempted and failures of one analysis pass."""
    ops, failures = 0, []
    for target, report in result.reports.items():
        model = models[target]
        for verdict in report:
            ops += 1
            name = f"{target} property {verdict.property.name}"
            if verdict.verdict == Verdict.ERROR:
                failures.append(f"{name}: ERROR {verdict.detail}")
            elif verdict.violated and verdict.witness is not None:
                witness = verdict.witness
                if model.run(witness.inputs) != tuple(witness.outputs):
                    failures.append(f"{name}: witness does not replay on the model")
                elif not _violates(verdict.property, witness):
                    failures.append(f"{name}: witness does not violate the property")
    for target, prop in KNOWN_VIOLATIONS:
        ops += 1
        if not result.reports[target].verdict(prop).violated:
            failures.append(f"{target} property {prop}: known violation not found")
    for (a, b), diff in result.diffs.items():
        ops += 1
        if diff.equivalent or not diff.witnesses:
            failures.append(f"diff {a} vs {b}: no difference found")
        elif any(
            models[a].run(w.word) == models[b].run(w.word) for w in diff.witnesses
        ):
            failures.append(f"diff {a} vs {b}: a witness does not distinguish")
    for (target, name), strategy in result.attacks.items():
        ops += 1
        if strategy is None:
            if (target, name) in KNOWN_ATTACKS:
                failures.append(f"attack {name} on {target}: known attack not found")
            continue
        model, attacker = models[target], resolve_attacker(name)
        outputs = model.run(strategy.word)
        if outputs != tuple(strategy.expected_outputs):
            failures.append(f"attack {name} on {target}: strategy does not replay")
        elif not attacker.observe(IOTrace(strategy.word, outputs)):
            failures.append(f"attack {name} on {target}: strategy reaches no goal")
        elif not attacker.observe(model.trace(strategy.minimized)):
            failures.append(f"attack {name} on {target}: minimized word reaches no goal")
    return ops, failures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Iteration:
    """One pass of a workload: timings, raw outputs and gate verdicts."""

    learns: list[Learn]
    learn_s: float
    analyze_s: float = 0.0
    analysis: Analysis | None = None
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    trace: object = None  # the tracer's view of a traced iteration


class Workload:
    """A named workload: ``setup()`` once or more, then ``run()`` repeatedly."""

    name = ""
    targets: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, references: dict | None = None) -> None:
        """``references`` replaces the pinned models (the gate's own tests)."""
        self.seed = seed
        self.workdir = Path(workdir)
        self._override = references
        self.references: dict[str, MealyMachine] = {}
        self._rounds = 0

    def setup(self) -> float:
        """Prepare from scratch; returns the seconds it took.

        Every workload pays a cold interpreter start that imports the
        program (what a user pays on every ``repro`` command) and loads
        the pinned reference models.
        """
        start = PACE.mark()
        cold_start()
        load_builtins()
        loaded = load_references()
        self.references = self._override or loaded
        self._rounds += 1
        self.prepare(self.workdir / f"setup-{self._rounds}")
        return PACE.since(start)

    def prepare(self, directory: Path) -> None:
        """Workload-specific set-up; nothing by default."""

    def specs(self):
        """(target, mode, spec) for every learn of one iteration."""
        return [(t, "cold", spec_for(t, self.seed)) for t in self.targets]

    def run(self, tracer) -> Iteration:
        start = PACE.mark()
        learns = [learn(t, mode, spec, tracer) for t, mode, spec in self.specs()]
        iteration = Iteration(learns=learns, learn_s=PACE.since(start))
        self.after_learns(iteration, tracer)
        return iteration

    def after_learns(self, iteration: Iteration, tracer) -> None:
        """Extra timed work after the learns; nothing by default."""

    def gate(self, iteration: Iteration) -> None:
        """Fill ``ops`` and ``failures``; runs outside every timed region."""
        for record in iteration.learns:
            iteration.ops += 1
            failure = check_learn(
                record,
                self.references[record.target],
                identical=record.mode == "pooled",
            )
            if failure is not None:
                iteration.failures.append(failure)
        if iteration.analysis is not None:
            ops, failures = check_analysis(iteration.analysis, self.references)
            iteration.ops += ops
            iteration.failures.extend(failures)


class LearnQuic(Workload):
    name = "learn-quic"
    targets = QUIC_TARGETS


class LearnStream(Workload):
    name = "learn-stream"
    targets = STREAM_TARGETS


class LearnPooled(Workload):
    name = "learn-pooled"
    targets = STREAM_TARGETS

    def specs(self):
        executor = ExecutorSpec(kind="process", workers=POOL_WORKERS)
        return [
            (t, "pooled", spec_for(t, self.seed, executor=executor))
            for t in self.targets
        ]


class Offline(Workload):
    name = "offline"
    targets = LEARN_TARGETS

    def prepare(self, directory: Path) -> None:
        """Build the query store and one covering corpus per target.

        The learner is replayed against each pinned reference model
        instead of the live SUL: it asks the same words and gets the
        same answers (the gate checks the live learns against the same
        references), so the store and the corpora hold exactly what cold
        live learns would have written.
        """
        directory.mkdir(parents=True)
        self.store = str(directory / "store.sqlite")
        self.corpora = {}
        for target in self.targets:
            spec = spec_for(target, self.seed, store=StoreSpec(path=self.store))
            pipeline = assemble(spec, sul=MealySUL(self.references[target]))
            try:
                pipeline.learner.learn()
                observations = list(pipeline.middleware[0].cache.dump())
            finally:
                for layer in pipeline.middleware:
                    layer.close()
            self.corpora[target] = str(directory / f"{target}.jsonl")
            write_jsonl_corpus(
                self.corpora[target],
                (IOTrace(word, outputs) for word, outputs in observations),
            )

    def specs(self):
        store = StoreSpec(path=self.store)
        return [
            (t, "store", spec_for(t, self.seed, store=store)) for t in self.targets
        ] + [
            (t, "corpus", spec_for(t, self.seed, corpus=CorpusSpec(path=self.corpora[t])))
            for t in self.targets
        ]

    def after_learns(self, iteration: Iteration, tracer) -> None:
        start = PACE.mark()
        with tracer.span("analyze"):
            iteration.analysis = analyze(self.references, tracer)
        iteration.analyze_s = PACE.since(start)


WORKLOADS = {
    workload.name: workload
    for workload in (LearnQuic, LearnStream, LearnPooled, Offline)
}
