"""Declarative experiment specifications (the serializable API surface).

An :class:`ExperimentSpec` is a complete, JSON-round-trippable description
of one learning experiment: the SUL target, the learner, the equivalence
-oracle chain, the membership-oracle middleware stack, and the execution
knobs (workers, seed, batch size).  Components are named by their
:mod:`repro.registry` keys, so a spec contains *no* code -- it can be
stored next to its artifacts, diffed, and replayed byte-identically::

    spec = ExperimentSpec(target="tcp", learner="lstar", seed=7)
    spec == ExperimentSpec.from_json(spec.to_json())   # lossless

:func:`assemble` turns a spec into the live oracle/learner pipeline; the
:class:`repro.framework.Prognosis` facade and the
:class:`repro.campaign.Campaign` runner are both built on it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import lru_cache
from typing import ClassVar, Iterable, Mapping, Self, get_args, get_origin, get_type_hints

from .adapter.executor import EXECUTOR_KINDS
from .adapter.pool import SULPool
from .adapter.sul import SUL
from .learn.bulk import CorpusStats, accept_traces
from .learn.cache import CachedMembershipOracle, QueryCache
from .learn.equivalence import ChainedEquivalenceOracle
from .learn.teacher import EquivalenceOracle, MembershipOracle, SULMembershipOracle
from .registry import (
    EQ_ORACLE_REGISTRY,
    LEARNER_REGISTRY,
    MIDDLEWARE_REGISTRY,
    SUL_REGISTRY,
    RegistryFactory,
    load_builtins,
    supported_kwargs,
)


class SpecError(ValueError):
    """A malformed or unsatisfiable experiment specification."""


class SpecSection:
    """The one spec codec: every section's JSON form, copy and key checks.

    Each section is a dataclass deriving from this class, so each of its
    field names is written once, in the dataclass; the codec reads them
    back with :func:`dataclasses.fields`.  ``SHORTHAND`` names the field
    a bare string fills in dict/JSON form (``"cache"`` ==
    ``{"kind": "cache"}``).  Range and registry checks on the values stay
    in each section's own ``validate``.
    """

    SHORTHAND: ClassVar[str | None] = None

    def __post_init__(self) -> None:
        """Refuse a value not of its field's annotated type (checked after
        a section's own ``__post_init__`` expanded its shorthand forms)."""
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if not _is_of(value, _field_types(type(self))[spec_field.name]):
                raise SpecError(f"{_label(type(self))} spec {spec_field.name!r} must be "
                                f"{spec_field.type}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> Self:
        """A section from an instance, a shorthand string or a mapping."""
        if isinstance(data, cls):
            return data
        if isinstance(data, str) and cls.SHORTHAND is not None:
            data = {cls.SHORTHAND: data}
        if not isinstance(data, Mapping):
            raise SpecError(f"{_label(cls)} spec must be a mapping, got {data!r}")
        _check_keys(cls, data)
        for spec_field in fields(cls):
            required = spec_field.default is MISSING and spec_field.default_factory is MISSING
            if required and spec_field.name not in data:
                raise SpecError(f"{_label(cls)} spec needs a {spec_field.name!r}")
        return cls(**data)

    def clone(self, **overrides) -> Self:
        """An independent copy with ``overrides`` applied (grid expansion)."""
        _check_keys(type(self), overrides)
        return replace(copy.deepcopy(self), **overrides)


def _label(section: type) -> str:
    return section.__name__.removesuffix("Spec").lower()


def _check_keys(section: type, data: Mapping) -> None:
    unknown = set(data) - {spec_field.name for spec_field in fields(section)}
    if unknown:
        raise SpecError(f"unknown {_label(section)} spec keys: {sorted(unknown)}")


_field_types = lru_cache(maxsize=16)(get_type_hints)


def _is_of(value, hint) -> bool:
    """Whether ``value`` has the annotated type (an int is a float, a bool no number)."""
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_is_of(item, get_args(hint)[0]) for item in value)
    if get_args(hint):  # a union
        return any(_is_of(value, arg) for arg in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _as_list(section: type, name: str, value) -> list:
    """``value`` as a new list; a bare string or mapping is refused rather
    than iterated into its characters or keys."""
    if isinstance(value, (str, Mapping)) or not isinstance(value, Iterable):
        raise SpecError(
            f"{_label(section)} spec {name!r} must be a list, got {value!r}"
        )
    return list(value)


def _optional(section: type[SpecSection], value):
    return None if value is None else section.from_dict(value)


@dataclass
class ComponentSpec(SpecSection):
    """One registry-keyed component plus its constructor params.

    Used for equivalence-oracle chain entries and middleware layers.  A
    bare string is a component with default params.
    """

    SHORTHAND = "kind"

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.params = self.params or {}
        super().__post_init__()
        self.params = dict(self.params)


@dataclass
class PropertiesSpec(SpecSection):
    """The declarative ``properties`` section of an experiment spec.

    Describes which property checks run against the learned model:
    ``suite`` names a :data:`repro.registry.PROPERTY_REGISTRY` key
    explicitly (``None`` auto-resolves the target's own suite by
    name/family stem), ``formulas`` adds ad-hoc LTLf formula strings,
    ``depth`` bounds the exhaustive model exploration,
    ``include_probes`` keeps design-decision probes in the run, and
    ``minimize`` controls ddmin witness reduction.  Like every spec
    layer it is JSON-round-trippable and contains no code.
    """

    suite: str | None = None
    depth: int = 5
    formulas: list[str] = field(default_factory=list)
    include_probes: bool = False
    minimize: bool = True

    def __post_init__(self) -> None:
        self.formulas = _as_list(PropertiesSpec, "formulas", self.formulas or [])
        super().__post_init__()

    def validate(self) -> "PropertiesSpec":
        from .registry import PROPERTY_REGISTRY

        if self.depth < 1:
            raise SpecError(f"need a positive property depth, got {self.depth}")
        if self.suite is not None:
            PROPERTY_REGISTRY.get(self.suite)  # raises RegistryError
        return self


@dataclass
class ExecutorSpec(SpecSection):
    """The declarative ``executor`` section of an experiment spec.

    ``kind`` picks the :mod:`repro.adapter.executor` backend (``serial``,
    ``thread`` or ``process``), ``workers`` overrides the spec-level
    worker count (``None`` inherits it), and ``timeout_s`` bounds one
    shard's execution on backends that supervise their workers (the
    ``process`` pool and the remote-SUL boundary).  A bare string is a
    kind with inherited knobs (``"process"`` == ``{"kind": "process"}``).

    The executor deliberately does not contribute to
    :meth:`ExperimentSpec.sul_fingerprint`: it changes how fast answers
    arrive, never what they are.
    """

    SHORTHAND = "kind"

    kind: str = "thread"
    workers: int | None = None
    timeout_s: float | None = None


@dataclass
class StoreSpec(SpecSection):
    """The declarative ``store`` section of an experiment spec.

    ``path`` locates the sqlite :class:`~repro.store.query_store
    .QueryStore` file; when set, :func:`assemble` seeds the spec's
    ``cache`` middleware layer from the store's rows for the spec's
    :meth:`~ExperimentSpec.sul_fingerprint` and appends the run's new
    observations back, so observations warm-start across processes and
    days.  ``flush_every`` batches appended rows per transaction.  A
    bare string is a path with default knobs.

    Like the executor, the store deliberately does not contribute to
    the SUL fingerprint: it changes where answers come *from*, never
    what they are.
    """

    SHORTHAND = "path"

    path: str
    flush_every: int = 256

    def validate(self) -> "StoreSpec":
        if not self.path:
            raise SpecError("store spec needs a non-empty path")
        if self.flush_every < 1:
            raise SpecError(
                f"need a positive store flush_every, got {self.flush_every}"
            )
        return self


@dataclass
class CorpusSpec(SpecSection):
    """The declarative ``corpus`` section of an experiment spec.

    ``path`` locates a JSONL trace corpus (see
    :mod:`repro.learn.bulk`); when set, :func:`assemble` seeds the
    spec's ``cache`` middleware layer from it (after any store rows), so
    membership queries the corpus already answers never reach the live
    SUL -- and with a ``store`` section the accepted traces persist.
    ``skip_conflicts`` makes a trace that contradicts anything seeded
    before it a counted finding rather than an error; ``max_traces``
    bounds the accepted traces.  A bare string is a path with default
    knobs.

    Like the executor and the store, the corpus deliberately does not
    contribute to the SUL fingerprint: it changes where answers come
    *from*, never what they are.
    """

    SHORTHAND = "path"

    path: str
    skip_conflicts: bool = True
    max_traces: int | None = None

    def validate(self) -> "CorpusSpec":
        if not self.path:
            raise SpecError("corpus spec needs a non-empty path")
        if self.max_traces is not None and self.max_traces < 1:
            raise SpecError(
                f"need a positive corpus max_traces, got {self.max_traces}"
            )
        return self


@dataclass
class AttackSpec(SpecSection):
    """The declarative ``attack`` section of an experiment spec.

    Opting in makes a campaign run :func:`repro.attack.replay.run_attacks`
    after learning: synthesize attacker strategies offline from the
    learned model, replay them against the live SUL, and (with ``fuzz``)
    barrage the model's frontier states.  ``attacker`` pins one
    :data:`~repro.attack.automata.ATTACK_REGISTRY` key (default: every
    automaton applicable to the target); ``objective`` is an optional
    LTLf formula the attack trace must *violate*; ``budget`` and
    ``max_suffix`` bound the fuzzer; ``corpus_out`` writes confirmed
    attacks (and fuzz divergences) as a JSONL corpus.  A bare string is
    an attacker key with default knobs.

    Like the executor, the section never contributes to the SUL
    fingerprint: attacks change what is *asked* after learning, not what
    the system answers.
    """

    SHORTHAND = "attacker"

    attacker: str | None = None
    objective: str | None = None
    budget: int = 200
    fuzz: bool = False
    max_suffix: int = 4
    corpus_out: str | None = None

    def validate(self) -> "AttackSpec":
        if self.budget < 1:
            raise SpecError(f"need a positive attack budget, got {self.budget}")
        if self.max_suffix < 1:
            raise SpecError(
                f"need a positive attack max_suffix, got {self.max_suffix}"
            )
        if self.attacker is not None:
            from .attack.automata import ATTACK_REGISTRY

            ATTACK_REGISTRY.get(self.attacker)  # raises RegistryError
        if self.objective is not None:
            from .analysis.ltl import LTLError, parse_ltl

            try:
                parse_ltl(self.objective)
            except LTLError as error:
                raise SpecError(
                    f"bad attack objective {self.objective!r}: {error}"
                ) from error
        return self


def default_equivalence() -> list[ComponentSpec]:
    """The default EQ chain: W-method with one extra state (paper setup)."""
    return [ComponentSpec("wmethod", {"extra_states": 1})]


def default_middleware() -> list[ComponentSpec]:
    """The default oracle stack: just the prefix-tree query cache."""
    return [ComponentSpec("cache")]


@dataclass
class ExperimentSpec(SpecSection):
    """A complete, serializable description of one learning experiment.

    ``target`` / ``learner`` name :data:`repro.registry.SUL_REGISTRY` /
    :data:`~repro.registry.LEARNER_REGISTRY` entries; ``equivalence`` is an
    ordered oracle chain (one entry runs alone, several are chained
    cheap-first); ``middleware`` is the membership-oracle stack applied
    innermost-first on top of the raw SUL oracle.  ``seed`` seeds
    randomized equivalence oracles, ``batch_size`` bounds query batches,
    and ``workers > 1`` fans batches over a pool of identically-built SUL
    instances.
    """

    target: str
    target_params: dict = field(default_factory=dict)
    learner: str = "ttt"
    learner_params: dict = field(default_factory=dict)
    equivalence: list[ComponentSpec] = field(default_factory=default_equivalence)
    middleware: list[ComponentSpec] = field(default_factory=default_middleware)
    workers: int = 1
    seed: int = 0
    batch_size: int = 64
    name: str | None = None
    properties: PropertiesSpec | None = None
    executor: ExecutorSpec | None = None
    store: StoreSpec | None = None
    corpus: CorpusSpec | None = None
    attack: AttackSpec | None = None

    def __post_init__(self) -> None:
        self.equivalence = [
            ComponentSpec.from_dict(entry)
            for entry in _as_list(ExperimentSpec, "equivalence", self.equivalence)
        ]
        self.middleware = [
            ComponentSpec.from_dict(layer)
            for layer in _as_list(ExperimentSpec, "middleware", self.middleware)
        ]
        self.properties = _optional(PropertiesSpec, self.properties)
        self.executor = _optional(ExecutorSpec, self.executor)
        self.store = _optional(StoreSpec, self.store)
        self.corpus = _optional(CorpusSpec, self.corpus)
        self.attack = _optional(AttackSpec, self.attack)
        super().__post_init__()

    # -- identity ----------------------------------------------------------
    def display_name(self) -> str:
        """The run name: explicit ``name`` or ``target-learner-s<seed>``."""
        return self.name or f"{self.target}-{self.learner}-s{self.seed}"

    def sul_fingerprint(self) -> str:
        """Behavioural identity of the SUL this spec targets.

        Two specs with equal fingerprints query *the same* system (same
        target key, same construction params), so their membership-query
        caches are interchangeable -- the sharing key campaigns use.
        Learner, equivalence chain, seed and executor deliberately do
        not contribute: they change which queries are asked or how they
        are scheduled, not the answers.
        """
        return json.dumps(
            {"target": self.target, "params": self.target_params},
            sort_keys=True,
            default=str,
        )

    def effective_executor(self) -> ExecutorSpec:
        """The fully-resolved executor this spec runs on.

        With no ``executor`` section the historical behaviour is kept:
        ``workers > 1`` means the thread pool, ``workers == 1`` a plain
        serial SUL.  An explicit section picks the backend ``kind`` and
        may override the worker count.
        """
        if self.executor is None:
            kind = "thread" if self.workers > 1 else "serial"
            return ExecutorSpec(kind=kind, workers=self.workers)
        workers = self.executor.workers
        return replace(
            self.executor, workers=self.workers if workers is None else workers
        )

    # -- serialization -----------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        """Load a spec from a JSON file (the CLI ``run``/``difftest`` path)."""
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- validation --------------------------------------------------------
    def validate(self, *, lookup_target: bool = True) -> "ExperimentSpec":
        """Check registry membership and knob ranges; returns ``self``.

        ``lookup_target=False`` skips only the ``target`` registry lookup:
        a facade given a ready SUL keeps ``target`` as a label.
        """
        load_builtins()
        if self.workers < 1:
            raise SpecError(f"need at least one worker, got {self.workers}")
        if self.batch_size < 1:
            raise SpecError(f"need a positive batch_size, got {self.batch_size}")
        if not self.equivalence:
            raise SpecError("spec needs at least one equivalence oracle")
        executor = self.effective_executor()
        if executor.kind not in EXECUTOR_KINDS:
            raise SpecError(
                f"unknown executor kind {executor.kind!r}; "
                f"known: {', '.join(EXECUTOR_KINDS)}"
            )
        if executor.workers < 1:
            raise SpecError(
                f"need at least one executor worker, got {executor.workers}"
            )
        if executor.kind == "serial" and executor.workers > 1:
            raise SpecError(
                "the serial executor runs one worker; "
                f"got workers={executor.workers} (use thread or process)"
            )
        if executor.timeout_s is not None and executor.timeout_s <= 0:
            raise SpecError(
                f"need a positive executor timeout_s, got {executor.timeout_s}"
            )
        if self.properties is not None:
            self.properties.validate()
        has_cache = any(m.kind == "cache" for m in self.middleware)
        if self.store is not None:
            self.store.validate()
            if not has_cache:
                raise SpecError("a store section needs a 'cache' middleware layer to seed")
        if self.corpus is not None:
            self.corpus.validate()
            if not has_cache:
                raise SpecError("a corpus section needs a 'cache' middleware layer to seed")
        if self.attack is not None:
            self.attack.validate()
        for registry, keys in (
            (SUL_REGISTRY, [self.target] if lookup_target else []),
            (LEARNER_REGISTRY, [self.learner]),
            (EQ_ORACLE_REGISTRY, [e.kind for e in self.equivalence]),
            (MIDDLEWARE_REGISTRY, [m.kind for m in self.middleware]),
        ):
            for key in keys:
                registry.get(key)  # raises RegistryError with known names
        return self


# ---------------------------------------------------------------------------
# Spec -> live pipeline
# ---------------------------------------------------------------------------

@dataclass
class AssembledPipeline:
    """The live objects a spec describes, one per stack position."""

    sul: SUL
    base_oracle: SULMembershipOracle
    middleware: list  # instances, innermost first
    oracle: MembershipOracle  # top of the middleware stack
    equivalence_oracle: EquivalenceOracle
    learner: object
    #: The corpus seeding pass (None without a ``corpus`` section).
    corpus_stats: CorpusStats | None = None


def build_sul(spec: ExperimentSpec) -> SUL:
    """Instantiate the spec's SUL target on its effective executor.

    ``process`` always builds a pool (the workers live in child
    processes, even for ``workers == 1``) and uses a picklable
    :class:`~repro.registry.RegistryFactory` so closure-registered
    targets work too; ``thread`` pools when ``workers > 1``; anything
    else is a plain in-process SUL.
    """
    load_builtins()
    factory = SUL_REGISTRY.get(spec.target)
    executor = spec.effective_executor()
    if executor.kind == "process":
        return SULPool(
            RegistryFactory(spec.target, spec.target_params),
            workers=executor.workers,
            name=spec.name,
            backend="process",
            timeout_s=executor.timeout_s,
        )
    if executor.workers > 1:
        return SULPool(
            lambda: factory(**spec.target_params),
            workers=executor.workers,
            name=spec.name,
        )
    return factory(**spec.target_params)


def build_equivalence_chain(
    spec: ExperimentSpec, oracle: MembershipOracle
) -> EquivalenceOracle:
    """The spec's EQ oracle chain over ``oracle``.

    Spec-level ``batch_size`` and ``seed`` are injected into every oracle
    whose factory accepts them; per-component params override.
    """
    oracles = []
    for component in spec.equivalence:
        factory = EQ_ORACLE_REGISTRY.get(component.kind)
        params = supported_kwargs(
            factory, {"batch_size": spec.batch_size, "seed": spec.seed}
        )
        params.update(component.params)
        oracles.append(factory(oracle, **params))
    if len(oracles) == 1:
        return oracles[0]
    return ChainedEquivalenceOracle(oracles)


def assemble(
    spec: ExperimentSpec,
    sul: SUL | None = None,
    shared_cache: QueryCache | None = None,
) -> AssembledPipeline:
    """Build the full pipeline a spec describes.

    ``sul`` substitutes a ready instance (``Prognosis(spec, sul=...)``);
    otherwise the target registry builds it.  The first ``cache``
    middleware layer is seeded from its sources in a fixed order: the
    ``shared_cache`` trie (campaign cross-run sharing), the spec's
    ``store`` rows, then its ``corpus``.
    """
    load_builtins()
    owns_sul = sul is None
    if sul is None:
        sul = build_sul(spec)
    layers = []
    corpus_stats = None
    try:
        base_oracle = SULMembershipOracle(sul)
        oracle: MembershipOracle = base_oracle
        for component in spec.middleware:
            factory = MIDDLEWARE_REGISTRY.get(component.kind)
            oracle = factory(oracle, **component.params)
            layers.append(oracle)

        cache = next(
            (layer for layer in layers if isinstance(layer, CachedMembershipOracle)),
            None,
        )
        if cache is not None:
            if shared_cache is not None:
                cache.seed("shared", shared_cache.dump())
            if spec.store is not None:
                from .store.query_store import QueryStore

                cache.seed_from_store(
                    QueryStore(spec.store.path, flush_every=spec.store.flush_every),
                    spec.sul_fingerprint(),
                )
            if spec.corpus is not None:
                corpus_stats = CorpusStats()
                cache.seed(
                    "corpus",
                    accept_traces(
                        spec.corpus.path,
                        cache.cache,
                        corpus_stats,
                        skip_conflicts=spec.corpus.skip_conflicts,
                        max_traces=spec.corpus.max_traces,
                    ),
                )
                corpus_stats.words = cache.seeds["corpus"].entries

        equivalence_oracle = build_equivalence_chain(spec, oracle)

        learner_factory = LEARNER_REGISTRY.get(spec.learner)
        learner_params = supported_kwargs(
            learner_factory, {"name": spec.name or sul.name}
        )
        learner_params.update(spec.learner_params)
        learner = learner_factory(oracle, equivalence_oracle, **learner_params)
    except BaseException:
        # Release whatever was built (pool threads, simulated sockets,
        # store connections) before surfacing the misconfiguration.
        for layer in layers:
            layer_close = getattr(layer, "close", None)
            if callable(layer_close):
                layer_close()
        if owns_sul:
            close = getattr(sul, "close", None)
            if callable(close):
                close()
        raise

    return AssembledPipeline(
        sul=sul,
        base_oracle=base_oracle,
        middleware=layers,
        oracle=oracle,
        equivalence_oracle=equivalence_oracle,
        learner=learner,
        corpus_stats=corpus_stats,
    )
