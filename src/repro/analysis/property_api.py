"""The unified property-checking API (paper section 5, all analyses).

Prognosis's product is *asking a learned model questions*: temporal
properties, quantity/register properties, oracle-table checks.  This
module is the single framework every protocol suite plugs into:

* :class:`Property` -- one named check, in one of four kinds:
  an LTLf formula string (parsed by :mod:`repro.analysis.ltl`), a trace
  predicate, an Oracle-Table check over concrete parameters, or a
  register predicate over synthesized extended machines;
* :class:`Verdict` -- the four possible outcomes (``HOLDS`` /
  ``VIOLATED`` / ``SKIPPED`` / ``ERROR``);
* :class:`PropertyVerdict` / :class:`PropertyReport` -- one outcome and
  a full suite's outcomes, renderable as text and serializable to JSON.

Every ``VIOLATED`` verdict carries a witness trace minimized with the
same ddmin reducer differential campaigns use
(:func:`repro.analysis.difftest.minimize_witness`), shrunk against the
learned model -- removing any single input from the witness makes the
violation vanish.

Protocol suites are registry citizens: decorate a factory with
:func:`repro.registry.register_properties` and ``repro properties
<target>``, campaigns and :func:`repro.campaign.evaluate_spec_properties`
all discover it by target name (exact key first, then the
``-``-separated family stem, so ``quic`` covers ``quic-google``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..adapter.executor import ThreadExecutor
from ..core.extended import ConcreteStep, ExtendedMealyMachine
from ..core.mealy import MealyMachine
from ..core.oracle_table import OracleTable
from ..core.trace import IOTrace, Word
from .difftest import minimize_witness
from .ltl import Formula, LTLError, parse_ltl
from .properties import (
    RegisterPredicate,
    check_invariant,
    check_property,
    check_register_property,
)

TracePredicate = Callable[[IOTrace], bool]
#: An Oracle-Table check: returns the violating entries, each an
#: ``IOTrace`` or an ``(IOTrace, step index)`` pair; empty means HOLDS.
OracleCheck = Callable[[OracleTable], Sequence]


class Verdict:
    """The four possible outcomes of checking one property."""

    HOLDS = "holds"
    VIOLATED = "violated"
    SKIPPED = "skipped"
    ERROR = "error"
    ALL = (HOLDS, VIOLATED, SKIPPED, ERROR)


#: Property kinds (the evaluation strategy a property selects).
KIND_LTLF = "ltlf"
KIND_TRACE = "trace"
KIND_ORACLE = "oracle"
KIND_REGISTER = "register"

#: Tag marking design-decision probes: differences, not bugs (section
#: 6.2.2: "not necessarily a bug, it can also signal different design
#: decisions").  Probe violations never fail a report.
TAG_PROBE = "probe"


class PropertyError(ValueError):
    """A malformed :class:`Property` definition."""


@dataclass(frozen=True)
class Property:
    """One named, documented check against a learned model.

    Exactly one payload matches ``kind``: ``formula`` (LTLf source
    text), ``predicate`` (trace predicate), ``oracle_check`` (Oracle
    -Table check) or ``register_predicate``.  Use the classmethod
    constructors; they validate the pairing.
    """

    name: str
    description: str
    kind: str
    formula: str | None = None
    predicate: TracePredicate | None = None
    oracle_check: OracleCheck | None = None
    register_predicate: RegisterPredicate | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        payloads = {
            KIND_LTLF: self.formula,
            KIND_TRACE: self.predicate,
            KIND_ORACLE: self.oracle_check,
            KIND_REGISTER: self.register_predicate,
        }
        if self.kind not in payloads:
            raise PropertyError(
                f"unknown property kind {self.kind!r}; "
                f"known: {sorted(payloads)}"
            )
        if payloads[self.kind] is None:
            raise PropertyError(
                f"property {self.name!r} has kind {self.kind!r} but no "
                f"matching payload"
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def ltlf(
        cls, name: str, formula: str, description: str = "", tags: Sequence[str] = ()
    ) -> "Property":
        """A property stated in the compact LTLf textual syntax."""
        return cls(
            name=name,
            description=description or formula,
            kind=KIND_LTLF,
            formula=formula,
            tags=tuple(tags),
        )

    @classmethod
    def trace(
        cls,
        name: str,
        predicate: TracePredicate,
        description: str = "",
        tags: Sequence[str] = (),
    ) -> "Property":
        """A property given as an arbitrary trace predicate."""
        return cls(
            name=name,
            description=description,
            kind=KIND_TRACE,
            predicate=predicate,
            tags=tuple(tags),
        )

    @classmethod
    def oracle(
        cls,
        name: str,
        check: OracleCheck,
        description: str = "",
        tags: Sequence[str] = (),
    ) -> "Property":
        """A below-abstraction check over the Oracle Table's parameters."""
        return cls(
            name=name,
            description=description,
            kind=KIND_ORACLE,
            oracle_check=check,
            tags=tuple(tags),
        )

    @classmethod
    def register(
        cls,
        name: str,
        predicate: RegisterPredicate,
        description: str = "",
        tags: Sequence[str] = (),
    ) -> "Property":
        """A quantity property tested over concrete executions of a
        synthesized register machine (undecidable in general, so --
        like the paper -- checked by randomised testing)."""
        return cls(
            name=name,
            description=description,
            kind=KIND_REGISTER,
            register_predicate=predicate,
            tags=tuple(tags),
        )

    @property
    def is_probe(self) -> bool:
        return TAG_PROBE in self.tags


@dataclass
class PropertyVerdict:
    """The outcome of checking one property against one model."""

    property: Property
    verdict: str
    #: The violating trace, ddmin-minimized against the model (VIOLATED
    #: of kind ltlf/trace), or the offending Oracle-Table entry.
    witness: IOTrace | None = None
    #: True when ddmin ran to completion on the witness.
    minimized: bool = False
    #: Skip reason or error message.
    detail: str | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == Verdict.HOLDS

    @property
    def violated(self) -> bool:
        return self.verdict == Verdict.VIOLATED

    def to_dict(self) -> dict:
        return {
            "property": self.property.name,
            "description": self.property.description,
            "kind": self.property.kind,
            "tags": list(self.property.tags),
            "verdict": self.verdict,
            "witness": (
                None
                if self.witness is None
                else {
                    "inputs": [str(s) for s in self.witness.inputs],
                    "outputs": [str(s) for s in self.witness.outputs],
                }
            ),
            "minimized": self.minimized,
            "detail": self.detail,
        }


@dataclass
class PropertyReport:
    """Every verdict of one suite run against one model."""

    target: str
    verdicts: list[PropertyVerdict] = field(default_factory=list)
    depth: int = 0

    def __iter__(self):
        return iter(self.verdicts)

    def __len__(self) -> int:
        return len(self.verdicts)

    def verdict(self, name: str) -> PropertyVerdict:
        for verdict in self.verdicts:
            if verdict.property.name == name:
                return verdict
        raise KeyError(f"no verdict for property {name!r} in {self.target}")

    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys(Verdict.ALL, 0)
        for verdict in self.verdicts:
            counts[verdict.verdict] += 1
        return counts

    @property
    def ok(self) -> bool:
        """True when no non-probe property is VIOLATED or ERROR.

        Probe violations are design-decision differences, not failures.
        """
        return not any(
            v.verdict in (Verdict.VIOLATED, Verdict.ERROR)
            for v in self.verdicts
            if not v.property.is_probe
        )

    def summary(self) -> str:
        counts = self.counts()
        parts = [
            f"{counts[name]} {name}"
            for name in Verdict.ALL
            if counts[name]
        ]
        return f"{self.target} properties: " + (", ".join(parts) or "none")

    def render(self) -> str:
        lines = []
        for verdict in self.verdicts:
            status = {
                Verdict.HOLDS: "holds",
                Verdict.VIOLATED: "VIOLATED",
                Verdict.SKIPPED: "skipped",
                Verdict.ERROR: "ERROR",
            }[verdict.verdict]
            if verdict.property.is_probe and verdict.violated:
                status = "DIFFERS (probe)"
            lines.append(f"{verdict.property.name:<32} {status}")
            if verdict.witness is not None:
                lines.append(f"    witness: {verdict.witness.render()[:120]}")
            if verdict.detail is not None:
                lines.append(f"    {verdict.detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "depth": self.depth,
            "ok": self.ok,
            "counts": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _minimize_trace_witness(
    model: MealyMachine, trace: IOTrace, predicate: TracePredicate
) -> tuple[IOTrace, bool]:
    """Shrink a violating trace against the model with ddmin.

    The reducer works on the *input word*; candidate subsequences are
    replayed on the learned model (cheap -- the trace-reduction argument
    of section 6.2.2) and kept while the property still fails.
    """

    def disagrees(candidate: Word) -> bool:
        if not candidate:
            return False  # the empty trace satisfies everything
        return not predicate(model.trace(candidate))

    try:
        word = minimize_witness(tuple(trace.inputs), disagrees)
    except ValueError:
        # The found trace does not re-violate on replay (a predicate
        # depending on more than the abstract trace); keep the original.
        return trace, False
    return model.trace(word), True


def check_model_property(
    model: MealyMachine,
    prop: Property,
    depth: int = 5,
    oracle_table: OracleTable | None = None,
    extended: ExtendedMealyMachine | None = None,
    concrete_traces: Sequence[Sequence[ConcreteStep]] | None = None,
    minimize: bool = True,
) -> PropertyVerdict:
    """Check one property; never raises -- failures become ERROR verdicts."""
    try:
        if prop.kind == KIND_LTLF:
            try:
                formula: Formula = parse_ltl(prop.formula)
            except LTLError as error:
                return PropertyVerdict(
                    property=prop,
                    verdict=Verdict.ERROR,
                    detail=f"LTLf parse error: {error}",
                )
            predicate: TracePredicate = formula.holds
            violation = check_property(model, formula, depth)
        elif prop.kind == KIND_TRACE:
            predicate = prop.predicate
            violation = check_invariant(model, predicate, depth)
        elif prop.kind == KIND_ORACLE:
            if oracle_table is None:
                return PropertyVerdict(
                    property=prop,
                    verdict=Verdict.SKIPPED,
                    detail="no oracle table available (model-only check)",
                )
            violations = list(prop.oracle_check(oracle_table))
            if not violations:
                return PropertyVerdict(property=prop, verdict=Verdict.HOLDS)
            first = violations[0]
            witness, index = (
                first if isinstance(first, tuple) else (first, None)
            )
            detail = f"{len(violations)} offending oracle-table entries"
            if index is not None:
                detail += f" (first at step {index})"
            return PropertyVerdict(
                property=prop,
                verdict=Verdict.VIOLATED,
                witness=witness,
                detail=detail,
            )
        else:  # KIND_REGISTER
            if extended is None or not concrete_traces:
                return PropertyVerdict(
                    property=prop,
                    verdict=Verdict.SKIPPED,
                    detail="no synthesized register machine / concrete traces",
                )
            register_violation = check_register_property(
                extended,
                concrete_traces,
                prop.register_predicate,
                description=prop.description or prop.name,
            )
            if register_violation is None:
                return PropertyVerdict(property=prop, verdict=Verdict.HOLDS)
            steps = register_violation.steps
            witness = IOTrace(
                tuple(s.input_symbol for s in steps),
                tuple(s.output_symbol for s in steps),
            )
            return PropertyVerdict(
                property=prop,
                verdict=Verdict.VIOLATED,
                witness=witness,
                detail=register_violation.description,
            )
    except Exception as error:  # a broken check must not sink the suite
        return PropertyVerdict(
            property=prop,
            verdict=Verdict.ERROR,
            detail=f"{type(error).__name__}: {error}",
        )

    if violation is None:
        return PropertyVerdict(property=prop, verdict=Verdict.HOLDS)
    witness, minimized = violation.trace, False
    if minimize:
        witness, minimized = _minimize_trace_witness(model, witness, predicate)
    return PropertyVerdict(
        property=prop,
        verdict=Verdict.VIOLATED,
        witness=witness,
        minimized=minimized,
    )


def check_properties(
    model: MealyMachine,
    properties: Sequence[Property],
    depth: int = 5,
    oracle_table: OracleTable | None = None,
    extended: ExtendedMealyMachine | None = None,
    concrete_traces: Sequence[Sequence[ConcreteStep]] | None = None,
    minimize: bool = True,
    target: str | None = None,
) -> PropertyReport:
    """Check a whole suite against one model, exhaustively up to ``depth``."""
    verdicts = [
        check_model_property(
            model,
            prop,
            depth=depth,
            oracle_table=oracle_table,
            extended=extended,
            concrete_traces=concrete_traces,
            minimize=minimize,
        )
        for prop in properties
    ]
    return PropertyReport(
        target=target or model.name, verdicts=verdicts, depth=depth
    )


def check_properties_batch(
    jobs: Sequence[tuple[MealyMachine, Sequence[Property]]],
    workers: int = 1,
    **check_kwargs,
) -> list[PropertyReport]:
    """Fan suite evaluation over many models on a
    :class:`~repro.adapter.executor.ThreadExecutor` (campaign-scale analyses).

    ``jobs`` pairs each model with its property suite; results are in
    job order.  ``check_kwargs`` (``depth``, ``minimize``, ...) apply to
    every job.
    """
    executor = ThreadExecutor(workers)
    try:
        return executor.map(
            lambda job: check_properties(job[0], job[1], **check_kwargs),
            list(jobs),
        )
    finally:
        executor.close()


def formula_properties(formulas: Sequence[str]) -> list[Property]:
    """Ad-hoc LTLf formulas as anonymous properties (the ``--formula``
    CLI path; names are the formula text itself)."""
    return [
        Property.ltlf(name=f"formula: {text}", formula=text)
        for text in formulas
    ]


def resolve_properties(
    target: str,
    suite: str | None = None,
    formulas: Sequence[str] = (),
    include_probes: bool = False,
) -> tuple[Property, ...]:
    """The properties to check for one target: suite plus ad-hoc formulas.

    ``suite`` names a :data:`~repro.registry.PROPERTY_REGISTRY` key
    explicitly (raises :class:`~repro.registry.RegistryError` when
    unknown); with ``suite=None`` the target's own suite is resolved by
    name/stem and an unregistered target simply contributes no suite
    properties.  Probe-tagged properties are dropped unless
    ``include_probes``.
    """
    from ..registry import PROPERTY_REGISTRY, resolve_property_suite

    if suite is not None:
        props = tuple(PROPERTY_REGISTRY.create(suite))
    else:
        props = resolve_property_suite(target) or ()
    if not include_probes:
        props = tuple(p for p in props if not p.is_probe)
    return props + tuple(formula_properties(formulas))
