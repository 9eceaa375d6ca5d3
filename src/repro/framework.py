"""The Prognosis facade: learning + synthesis + analysis in one object.

This is the thin, backward-compatible front of the spec API: a
:class:`Prognosis` can be built the classic way (pass a SUL and keyword
knobs) or from a declarative :class:`~repro.spec.ExperimentSpec`
(:meth:`Prognosis.from_spec`); both paths assemble the identical pipeline
through :func:`repro.spec.assemble`, so a spec run and a hand-wired run
learn byte-identical models.  Construct, call :meth:`learn`, then hand the
learned model to the analysis helpers or :meth:`synthesize` richer
register machines from the Oracle Table.  ``Prognosis`` is a context
manager; use ``with`` (or call :meth:`close`) so pooled SULs release
their worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

from .adapter.pool import SULPool
from .adapter.sul import SUL
from .analysis.diff import ModelDiff, diff_models
from .analysis.ltl import parse_ltl
from .analysis.properties import PropertyViolation, check_property
from .analysis.statistics import TraceReduction, trace_reduction
from .core.extended import ConcreteStep
from .core.mealy import MealyMachine
from .core.trace import Word
from .learn.cache import CachedMembershipOracle, QueryCache
from .learn.lstar import LearningResult
from .learn.nondeterminism import MajorityVoteOracle, NondeterminismPolicy
from .spec import ComponentSpec, ExecutorSpec, ExperimentSpec, assemble
from .synth.synthesizer import SynthesisResult, synthesize, synthesize_with_cegis

LearnerKind = Literal["ttt", "lstar"]
EqKind = Literal["wmethod", "random", "random+wmethod"]

#: The target key recorded on specs synthesized from a directly-passed SUL
#: instance (such specs describe the pipeline but cannot rebuild the SUL).
CUSTOM_TARGET = "<custom-sul>"


@dataclass
class LearningReport:
    """Everything a benchmark or paper table needs about one learning run."""

    model: MealyMachine
    rounds: int
    counterexamples: list[Word]
    sul_queries: int
    sul_steps: int
    sul_resets: int
    oracle_queries: int
    cache_hit_rate: float
    #: Words answered without a SUL run because a longer batch member
    #: covered them (the batch planner's prefix collapse).
    prefix_collapsed: int = 0
    #: Duplicate words removed within batches before execution.
    batch_deduped: int = 0
    #: SUL instances the run executed on (1 = serial).
    workers: int = 1
    #: Membership queries answered by each seed source of the cache
    #: layer (``"shared"``, ``"store"``, ``"corpus"``): a hit counts for a
    #: source when the whole word lies inside that source's observations.
    hits_by_source: dict[str, int] = field(default_factory=dict)
    #: Nondeterministic corpus traces skipped during seeding.
    corpus_skipped: int = 0
    #: Per-equivalence-oracle accounting: words submitted and
    #: counterexamples found, keyed by oracle name.
    eq_attribution: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Steps and resets that reached the implementation.  ``sul_steps`` and
    #: ``sul_resets`` stay logical (what per-word replay would cost); a
    #: batch run as a trie walk costs fewer physical ones.
    physical_steps: int = 0
    physical_resets: int = 0
    #: State snapshots taken and restored by trie walks, and the steps
    #: they passed through snapshots saved by earlier batches instead.
    snapshots: int = 0
    restores: int = 0
    skipped_steps: int = 0

    @property
    def num_states(self) -> int:
        return self.model.num_states

    @property
    def num_transitions(self) -> int:
        return self.model.num_transitions

    def _source_hit_rate(self, source: str) -> float:
        hits = self.hits_by_source.get(source, 0)
        return hits / self.oracle_queries if self.oracle_queries else 0.0

    @property
    def store_hits(self) -> int:
        """Membership queries answered by observations already in the
        persistent query store when the run began (0 without a store)."""
        return self.hits_by_source.get("store", 0)

    @property
    def store_hit_rate(self) -> float:
        """``store_hits`` over all membership queries."""
        return self._source_hit_rate("store")

    @property
    def corpus_hits(self) -> int:
        """Membership queries answered by bulk-corpus observations
        (0 without a ``corpus`` section; see :mod:`repro.learn.bulk`)."""
        return self.hits_by_source.get("corpus", 0)

    @property
    def corpus_hit_rate(self) -> float:
        """``corpus_hits`` over all membership queries."""
        return self._source_hit_rate("corpus")

    def summary(self) -> str:
        return (
            f"{self.model.name}: {self.num_states} states, "
            f"{self.num_transitions} transitions, "
            f"{self.sul_queries} SUL queries "
            f"({self.oracle_queries} learner queries, "
            f"{self.cache_hit_rate:.0%} cache hits)"
        )

    def to_dict(self) -> dict:
        """A JSON-able accounting summary (campaign ``report.json``).

        The model itself is serialized separately via
        :meth:`~repro.core.mealy.MealyMachine.to_dict`; here only its
        headline numbers appear.
        """
        return {
            "model_name": self.model.name,
            "num_states": self.num_states,
            "num_transitions": self.num_transitions,
            "rounds": self.rounds,
            "counterexamples": [
                [str(symbol) for symbol in word] for word in self.counterexamples
            ],
            "sul_queries": self.sul_queries,
            "sul_steps": self.sul_steps,
            "sul_resets": self.sul_resets,
            "oracle_queries": self.oracle_queries,
            "cache_hit_rate": self.cache_hit_rate,
            "prefix_collapsed": self.prefix_collapsed,
            "batch_deduped": self.batch_deduped,
            "workers": self.workers,
            "store_hits": self.store_hits,
            "store_hit_rate": self.store_hit_rate,
            "corpus_hits": self.corpus_hits,
            "corpus_hit_rate": self.corpus_hit_rate,
            "corpus_skipped": self.corpus_skipped,
            "hits_by_source": dict(self.hits_by_source),
            "physical_steps": self.physical_steps,
            "physical_resets": self.physical_resets,
            "snapshots": self.snapshots,
            "restores": self.restores,
            "skipped_steps": self.skipped_steps,
            "eq_attribution": {
                name: dict(stats) for name, stats in self.eq_attribution.items()
            },
        }


class Prognosis:
    """The framework: a SUL plus a configured learning pipeline.

    Three ways in:

    * classic -- pass a ready ``sul`` instance (serial execution);
    * pooled -- pass a ``sul_factory`` with ``workers=N`` to fan
      membership-query batches across a
      :class:`~repro.adapter.pool.SULPool` of N identical instances (the
      factory must build identically-seeded instances so pooled and serial
      runs learn the same model); ``executor`` picks the pool backend
      (``"thread"`` default, ``"process"`` for CPU-bound SULs -- the
      factory must then be picklable -- or ``"serial"``), ``timeout_s``
      bounds one shard on supervised backends;
    * declarative -- :meth:`from_spec` resolves every component from the
      registries, which is what campaigns and the ``repro run`` CLI use.

    ``batch_size`` bounds how many words the equivalence oracles submit
    per batch.  The object is a context manager; leaving the ``with``
    block releases pooled worker threads and simulated sockets.
    """

    def __init__(
        self,
        sul: SUL | None = None,
        learner: LearnerKind = "ttt",
        equivalence: EqKind = "wmethod",
        extra_states: int = 1,
        use_cache: bool = True,
        nondeterminism_policy: NondeterminismPolicy | None = None,
        random_words: int = 300,
        seed: int = 0,
        name: str | None = None,
        workers: int = 1,
        sul_factory: Callable[[], SUL] | None = None,
        batch_size: int = 64,
        *,
        executor: str | None = None,
        timeout_s: float | None = None,
        spec: ExperimentSpec | None = None,
        shared_cache: QueryCache | None = None,
    ) -> None:
        if spec is not None:
            if sul is not None or sul_factory is not None:
                raise ValueError("pass either a spec or a sul/sul_factory, not both")
            self.spec = spec.validate()
            pipeline = assemble(spec, shared_cache=shared_cache)
        else:
            if workers < 1:
                raise ValueError(f"need at least one worker, got {workers}")
            if sul_factory is not None:
                if sul is not None:
                    raise ValueError(
                        "pass either a sul or a sul_factory, not both"
                    )
                sul = SULPool(
                    sul_factory,
                    workers=workers,
                    name=name,
                    backend=executor or "thread",
                    timeout_s=timeout_s,
                )
            elif sul is None:
                raise ValueError("Prognosis needs a sul or a sul_factory")
            elif executor is not None:
                raise ValueError(
                    "an executor backend needs a sul_factory "
                    "(workers are built per thread/process)"
                )
            elif workers > 1:
                raise ValueError(
                    "workers > 1 needs a sul_factory (one SUL instance per worker)"
                )
            self.spec = self._legacy_spec(
                learner=learner,
                equivalence=equivalence,
                extra_states=extra_states,
                use_cache=use_cache,
                nondeterminism_policy=nondeterminism_policy,
                random_words=random_words,
                seed=seed,
                name=name,
                workers=workers,
                batch_size=batch_size,
                executor=executor,
                timeout_s=timeout_s,
            )
            pipeline = assemble(self.spec, sul=sul, shared_cache=shared_cache)

        self.sul = pipeline.sul
        self.workers = self.spec.effective_executor().workers
        self.name = self.spec.name or pipeline.sul.name
        self.base_oracle = pipeline.base_oracle
        self.oracle = pipeline.oracle
        self.middleware = pipeline.middleware
        self.cache_oracle: CachedMembershipOracle | None = next(
            (m for m in pipeline.middleware if isinstance(m, CachedMembershipOracle)),
            None,
        )
        self.majority_oracle: MajorityVoteOracle | None = next(
            (m for m in pipeline.middleware if isinstance(m, MajorityVoteOracle)),
            None,
        )
        self.equivalence_oracle = pipeline.equivalence_oracle
        self.learner = pipeline.learner
        self.corpus_stats = pipeline.corpus_stats

    @staticmethod
    def _legacy_spec(
        *,
        learner: str,
        equivalence: str,
        extra_states: int,
        use_cache: bool,
        nondeterminism_policy: NondeterminismPolicy | None,
        random_words: int,
        seed: int,
        name: str | None,
        workers: int,
        batch_size: int,
        executor: str | None = None,
        timeout_s: float | None = None,
    ) -> ExperimentSpec:
        """Translate the classic keyword knobs into spec component lists."""
        wmethod = ComponentSpec("wmethod", {"extra_states": extra_states})
        random = ComponentSpec("random", {"num_words": random_words})
        if equivalence == "wmethod":
            eq_chain = [wmethod]
        elif equivalence == "random":
            eq_chain = [random]
        else:  # "random+wmethod" (and historically any other value)
            eq_chain = [random, wmethod]
        middleware = []
        if nondeterminism_policy is not None:
            middleware.append(
                ComponentSpec(
                    "majority-vote",
                    {
                        "min_repeats": nondeterminism_policy.min_repeats,
                        "max_repeats": nondeterminism_policy.max_repeats,
                        "certainty": nondeterminism_policy.certainty,
                    },
                )
            )
        if use_cache:
            middleware.append(ComponentSpec("cache"))
        return ExperimentSpec(
            target=CUSTOM_TARGET,
            learner=learner,
            equivalence=eq_chain,
            middleware=middleware,
            workers=workers,
            seed=seed,
            batch_size=batch_size,
            name=name,
            executor=(
                None
                if executor is None
                else ExecutorSpec(kind=executor, timeout_s=timeout_s)
            ),
        )

    @classmethod
    def from_spec(
        cls,
        spec: ExperimentSpec,
        shared_cache: QueryCache | None = None,
    ) -> "Prognosis":
        """Build the framework from a declarative experiment spec.

        ``shared_cache`` pre-warms the cache middleware with observations
        from earlier runs of the same SUL (campaign cross-run sharing).
        """
        return cls(spec=spec, shared_cache=shared_cache)

    # ------------------------------------------------------------------
    def learn(self) -> LearningReport:
        """Run active learning to completion and package the accounting."""
        result: LearningResult = self.learner.learn()
        return LearningReport(
            model=result.model,
            rounds=result.rounds,
            counterexamples=result.counterexamples,
            sul_queries=self.sul.stats.queries,
            sul_steps=self.sul.stats.steps,
            sul_resets=self.sul.stats.resets,
            oracle_queries=(
                self.cache_oracle.stats.queries
                if self.cache_oracle is not None
                else self.base_oracle.stats.queries
            ),
            cache_hit_rate=(
                self.cache_oracle.hit_rate if self.cache_oracle is not None else 0.0
            ),
            prefix_collapsed=(
                self.cache_oracle.prefix_collapsed
                if self.cache_oracle is not None
                else 0
            ),
            batch_deduped=(
                self.cache_oracle.batch_deduped
                if self.cache_oracle is not None
                else 0
            ),
            workers=self.workers,
            hits_by_source=(
                dict(self.cache_oracle.hits_by_source)
                if self.cache_oracle is not None
                else {}
            ),
            corpus_skipped=(
                len(self.corpus_stats.skipped) if self.corpus_stats is not None else 0
            ),
            eq_attribution=self.equivalence_oracle.attribution(),
            physical_steps=self.sul.stats.physical_steps,
            physical_resets=self.sul.stats.physical_resets,
            snapshots=self.sul.stats.snapshots,
            restores=self.sul.stats.restores,
            skipped_steps=self.sul.stats.skipped_steps,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the SUL's resources (pool threads, simulated sockets).

        Safe to call on any SUL; a no-op when the SUL has no ``close``.
        Middleware layers close too -- a store-seeded cache flushes its
        append buffer and records usage here.  Long-running sweeps
        constructing many pooled ``Prognosis`` objects should use the
        context-manager protocol (or call this) after each run.
        """
        for layer in self.middleware:
            layer_close = getattr(layer, "close", None)
            if callable(layer_close):
                layer_close()
        close = getattr(self.sul, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "Prognosis":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    def synthesize(
        self,
        model: MealyMachine,
        register_names: Sequence[str] = ("r0",),
        cegis_words: Sequence[Word] = (),
        max_traces: int = 60,
        **problem_kwargs,
    ) -> SynthesisResult | None:
        """Synthesize an extended machine from the Oracle Table's traces.

        The table can hold thousands of traces; synthesis selects the ones
        relevant to the requested output fields (those observing at least
        one of them), longest first, capped at ``max_traces``.
        ``cegis_words`` optionally names extra input words to query (fresh
        concrete traces) for counterexample-guided refinement.
        """
        traces = self.sul.oracle_table.concrete_traces()
        output_fields = problem_kwargs.get("output_fields")
        wanted = set(output_fields) if output_fields else None
        if wanted:
            relevant = [
                t
                for t in traces
                if any(wanted & set(step.output_params) for step in t)
            ]
            if relevant:
                traces = relevant
        # Shortest traces first: they constrain the fewest unknowns per
        # replay, so the DFS pins down the critical terms cheaply before
        # long traces (which then mostly just validate).  Traces whose
        # constraint signature (inputs + the observed values of the fields
        # being synthesized) duplicates an earlier one add no information
        # and only multiply solver work, so they are dropped.
        def signature(trace) -> tuple:
            return tuple(
                (
                    step.input_symbol,
                    tuple(
                        sorted(
                            (k, v)
                            for k, v in step.output_params.items()
                            if wanted is None or k in wanted
                        )
                    ),
                )
                for step in trace
            )

        unique: dict[tuple, object] = {}
        for trace in sorted(traces, key=len):
            unique.setdefault(signature(trace), trace)
        traces = list(unique.values())[:max_traces]
        if not cegis_words:
            return synthesize(
                model, traces, register_names=register_names, **problem_kwargs
            )

        def provider(_round: int) -> list[list[ConcreteStep]]:
            fresh: list[list[ConcreteStep]] = []
            for word in cegis_words:
                self.sul.query(word)
                entry = self.sul.oracle_table.lookup(word)
                if entry is not None:
                    fresh.append(list(entry.steps))
            return fresh

        return synthesize_with_cegis(
            model,
            traces,
            provider,
            register_names=register_names,
            **problem_kwargs,
        )

    # ------------------------------------------------------------------
    def check(
        self, model: MealyMachine, formula: str, depth: int = 8
    ) -> PropertyViolation | None:
        """Check a textual LTLf property against a learned model."""
        return check_property(model, parse_ltl(formula), depth)

    def check_properties(
        self,
        model: MealyMachine,
        depth: int = 5,
        suite: str | None = None,
        formulas: Sequence[str] = (),
        include_probes: bool = True,
        minimize: bool = True,
    ):
        """Run the target's registered property suite against a model.

        The suite is resolved from :data:`repro.registry
        .PROPERTY_REGISTRY` by the spec's target name (or ``suite``
        explicitly); ``formulas`` adds ad-hoc LTLf formula strings.
        Oracle-kind properties read this framework's Oracle Table, so
        below-abstraction checks (stream-id monotonicity) run too.
        Returns a :class:`~repro.analysis.property_api.PropertyReport`
        whose VIOLATED verdicts carry ddmin-minimized witnesses.
        """
        from .analysis.property_api import check_properties, resolve_properties

        properties = resolve_properties(
            self.spec.target,
            suite=suite,
            formulas=formulas,
            include_probes=include_probes,
        )
        return check_properties(
            model,
            properties,
            depth=depth,
            oracle_table=self.sul.oracle_table,
            minimize=minimize,
            target=self.name,
        )

    def reduction(self, model: MealyMachine, max_length: int = 10) -> TraceReduction:
        """The section 6.2.2 trace-space reduction statistic."""
        return trace_reduction(model, max_length=max_length)

    @staticmethod
    def compare(a: MealyMachine, b: MealyMachine, max_witnesses: int = 5) -> ModelDiff:
        """Diff two learned models (the Issue 1 / Issue 3 analysis)."""
        return diff_models(a, b, max_witnesses=max_witnesses)
