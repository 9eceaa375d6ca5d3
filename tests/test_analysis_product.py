"""The product explorer against slow references.

Three differential checks, each against a reference that re-reads whole
traces and never merges states:

(a) LTLf progression vs :meth:`Formula.holds` on random formulas and
    traces;
(b) every protocol-suite monitor vs the predicate it replaced
    (``reference_predicates.py``), on random traces over the target's
    real input and output labels;
(c) the explorer vs a brute-force enumeration of every input word, on
    random Mealy machines and on the pinned reference models, at depths
    1-6: equal verdicts, and each witness is a shortest violating trace
    of the model.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_predicates
from repro.analysis import ltl
from repro.analysis.ltl import (
    FALSE,
    TRUE,
    And,
    Eventually,
    Globally,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakNext,
    input_is,
    output_contains,
    output_is,
    parse_ltl,
)
from repro.analysis.product import (
    FormulaMonitor,
    HistoryMonitor,
    Monitor,
    as_monitor,
    find_violation,
    shortest_path,
)
from repro.analysis.properties import check_invariant, check_property
from repro.analysis.property_api import KIND_LTLF, KIND_TRACE
from repro.core.alphabet import Alphabet, TCPSymbol
from repro.core.mealy import MealyMachine
from repro.core.trace import EMPTY_TRACE, IOTrace
from repro.registry import PROPERTY_REGISTRY, load_builtins

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
TARGETS = (
    "tcp",
    "tcp-no-challenge-ack",
    "http2",
    "http2-buggy",
    "http3",
    "http3-buggy",
    "quic-google",
    "quic-quiche",
)

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["SYN", "ACK"])
NIL = TCPSymbol(label="NIL")
INPUTS = (SYN, ACK)
OUTPUTS = (NIL, SYNACK)


def _reference_model(target: str) -> MealyMachine:
    return MealyMachine.from_dict(json.loads((REFERENCE_DIR / f"{target}.json").read_text()))


def _outputs(machine: MealyMachine) -> list:
    return sorted(
        {machine.step(s, i)[1] for s in machine.states for i in machine.input_alphabet},
        key=str,
    )


def _prefix_verdicts(monitor: Monitor, trace: IOTrace) -> list[bool]:
    """``ok`` after every prefix, empty one first."""
    state = monitor.initial
    verdicts = [monitor.ok(state)]
    for inp, out in trace:
        state = monitor.step(state, inp, out)
        verdicts.append(monitor.ok(state))
    return verdicts


# ---------------------------------------------------------------------------
# (a) progression vs Formula.holds
# ---------------------------------------------------------------------------

_ATOMS = st.sampled_from(
    [
        input_is(str(SYN)),
        input_is(str(ACK)),
        output_is("NIL"),
        output_contains("SYN"),
        TRUE,
        FALSE,
    ]
)


def _formulas(max_leaves: int = 12):
    unary = (Not, Next, WeakNext, Globally, Eventually, lambda f: Not(Next(f)))
    binary = (And, Or, Until, Release)

    def extend(children):
        return st.one_of(
            st.builds(lambda op, f: op(f), st.sampled_from(unary), children),
            st.builds(lambda op, a, b: op(a, b), st.sampled_from(binary), children, children),
        )

    return st.recursive(_ATOMS, extend, max_leaves=max_leaves)


_TRACES = st.lists(
    st.tuples(st.sampled_from(INPUTS), st.sampled_from(OUTPUTS)), max_size=7
).map(lambda steps: IOTrace(tuple(i for i, _ in steps), tuple(o for _, o in steps)))


@given(_formulas(), _TRACES)
@settings(max_examples=400, deadline=None)
def test_progression_matches_holds_on_every_prefix(formula, trace):
    verdicts = _prefix_verdicts(FormulaMonitor(formula), trace)
    expected = [formula.holds(prefix) for prefix in [EMPTY_TRACE, *trace.prefixes()]]
    assert verdicts == expected


@given(_formulas(), _TRACES)
@settings(max_examples=200, deadline=None)
def test_nnf_preserves_meaning(formula, trace):
    normal = formula.nnf()
    assert normal.holds(trace) == formula.holds(trace)
    assert normal.negated().holds(trace) != formula.holds(trace) or not trace


class TestProgression:
    def test_negated_next_is_weak_at_the_last_step(self):
        formula = parse_ltl("!X (out == NIL)")
        one = IOTrace((SYN,), (NIL,))
        assert formula.holds(one)
        assert FormulaMonitor(formula)(one)
        assert isinstance(formula.nnf(), WeakNext)

    def test_next_of_a_weak_formula_stays_strong(self):
        # X G p needs a second position even though G p accepts the end.
        formula = Next(Globally(output_is("NIL")))
        assert not FormulaMonitor(formula)(IOTrace((SYN,), (NIL,)))
        assert FormulaMonitor(formula)(IOTrace((SYN, SYN), (SYNACK, NIL)))

    def test_globally_residual_is_a_fixed_point(self):
        formula = Globally(output_is("NIL")).nnf()
        assert formula.progress(ltl.Step(SYN, NIL)) == formula
        assert formula.progress(ltl.Step(SYN, SYNACK)) == FALSE

    def test_simplification_deduplicates(self):
        p = output_is("NIL")
        assert ltl.conjoin(And(p, TRUE), p) == p
        assert ltl.disjoin(p, TRUE) == TRUE

    def test_custom_formula_has_no_progression(self):
        class Custom(ltl.Formula):
            pass

        with pytest.raises(NotImplementedError):
            FormulaMonitor(Custom())


# ---------------------------------------------------------------------------
# (b) suite monitors vs the predicates they replaced
# ---------------------------------------------------------------------------

#: Each suite, with the reference models whose labels its traces use.
_SUITE_LABELS = {
    "tcp": ("tcp", "tcp-no-challenge-ack"),
    "http2": ("http2", "http2-buggy"),
    "http3": ("http3", "http3-buggy"),
    "quic": ("quic-google", "quic-quiche"),
}


def _suite_monitors(suite: str):
    load_builtins()
    return [p for p in PROPERTY_REGISTRY.create(suite) if p.kind == KIND_TRACE]


def _labels(suite: str):
    models = [_reference_model(target) for target in _SUITE_LABELS[suite]]
    inputs = sorted({s for m in models for s in m.input_alphabet}, key=str)
    outputs = sorted({o for m in models for o in _outputs(m)}, key=str)
    return inputs, outputs


@pytest.mark.parametrize("suite", sorted(_SUITE_LABELS))
def test_every_suite_trace_property_is_a_monitor(suite):
    for prop in _suite_monitors(suite):
        assert isinstance(prop.predicate, Monitor), prop.name
        assert as_monitor(prop.predicate) is prop.predicate
        assert hasattr(reference_predicates, prop.predicate.__name__), prop.name


@pytest.mark.parametrize("suite", sorted(_SUITE_LABELS))
def test_suite_monitors_match_reference_predicates(suite):
    props = _suite_monitors(suite)
    models = [_reference_model(target) for target in _SUITE_LABELS[suite]]
    inputs, outputs = _labels(suite)

    @st.composite
    def noisy_model_trace(draw):
        # A model walk reaches deep protocol states (synchronized, reset,
        # drained); overwriting some outputs with other real labels then
        # breaks the property there.
        model = draw(st.sampled_from(models))
        word = draw(st.lists(st.sampled_from(tuple(model.input_alphabet)), max_size=12))
        noise = st.one_of(st.none(), st.none(), st.none(), st.sampled_from(outputs))
        overlay = draw(st.lists(noise, min_size=len(word), max_size=len(word)))
        answers = [o if n is None else n for o, n in zip(model.run(word), overlay)]
        return list(zip(word, answers))

    any_trace = st.lists(st.tuples(st.sampled_from(inputs), st.sampled_from(outputs)), max_size=10)

    @given(st.one_of(noisy_model_trace(), any_trace))
    @settings(max_examples=600, deadline=None)
    def check(pairs):
        trace = IOTrace(tuple(i for i, _ in pairs), tuple(o for _, o in pairs))
        prefixes = [EMPTY_TRACE, *trace.prefixes()]
        for prop in props:
            reference = getattr(reference_predicates, prop.predicate.__name__)
            expected = [reference(prefix) for prefix in prefixes]
            assert _prefix_verdicts(prop.predicate, trace) == expected, prop.name
            assert prop.predicate(trace) == expected[-1], prop.name

    check()


# ---------------------------------------------------------------------------
# (c) the explorer vs brute-force enumeration
# ---------------------------------------------------------------------------

def _brute_force_shortest(machine: MealyMachine, monitors: list[Monitor], depth: int):
    """For each monitor, the length of its shortest violating model trace
    of length <= depth (None if none), found by walking every input word
    from the initial state without merging any two prefixes."""
    shortest: list[int | None] = [None] * len(monitors)
    symbols = tuple(machine.input_alphabet)
    # Monitor steps are pure, so each is computed once; states are
    # numbered so the walk never hashes a symbol or a residual formula.
    states: list[list] = [[m.initial] for m in monitors]
    numbers: list[dict] = [{m.initial: 0} for m in monitors]
    memo: dict = {}

    def step(index, number, position, output):
        key = (index, number, position, id(output))
        if key not in memo:
            state = monitors[index].step(states[index][number], symbols[position], output)
            if state not in numbers[index]:
                numbers[index][state] = len(states[index])
                states[index].append(state)
            memo[key] = numbers[index][state], monitors[index].ok(state)
        return memo[key]

    def walk(state, observed, length):
        if length == depth:
            return
        for position, symbol in enumerate(symbols):
            target, output = machine.step(state, symbol)
            stepped = [step(k, n, position, output) for k, n in enumerate(observed)]
            for index, (_, ok) in enumerate(stepped):
                if not ok and (shortest[index] is None or length + 1 < shortest[index]):
                    shortest[index] = length + 1
            walk(target, [n for n, _ in stepped], length + 1)

    walk(machine.initial_state, [0] * len(monitors), 0)
    return shortest


def _assert_explorer_matches(machine, monitors, predicates, max_depth):
    shortest = _brute_force_shortest(machine, monitors, max_depth)
    for monitor, predicate, length in zip(monitors, predicates, shortest):
        for depth in range(1, max_depth + 1):
            witness = find_violation(machine, monitor, depth)
            if length is None or length > depth:
                assert witness is None, (monitor, depth)
                continue
            assert witness is not None, (monitor, depth)
            assert len(witness) == length <= depth
            assert machine.run(witness.inputs) == witness.outputs
            assert not predicate(witness)


@pytest.mark.parametrize("target", TARGETS)
def test_explorer_matches_brute_force_on_reference_models(target):
    """Each model with every registered suite, probes included, at
    depths 1-6 (the ``toy`` suite is LTLf over TCP labels)."""
    load_builtins()
    props = [
        p
        for suite in PROPERTY_REGISTRY.names()
        for p in PROPERTY_REGISTRY.create(suite)
        if p.kind in (KIND_LTLF, KIND_TRACE)
    ]
    monitors, predicates = [], []
    for prop in props:
        if prop.kind == KIND_LTLF:
            formula = parse_ltl(prop.formula)
            monitors.append(FormulaMonitor(formula))
            predicates.append(formula.holds)
        else:
            monitors.append(prop.predicate)
            predicates.append(getattr(reference_predicates, prop.predicate.__name__))
    _assert_explorer_matches(_reference_model(target), monitors, predicates, 6)


@st.composite
def _machines(draw):
    n = draw(st.integers(1, 4))
    states = [f"s{i}" for i in range(n)]
    inputs = INPUTS[: draw(st.integers(1, 2))]
    table = {
        (s, i): (draw(st.sampled_from(states)), draw(st.sampled_from(OUTPUTS)))
        for s in states
        for i in inputs
    }
    return MealyMachine("s0", Alphabet.of(list(inputs)), table, "random")


@given(_machines(), _formulas(max_leaves=8))
@settings(max_examples=150, deadline=None)
def test_explorer_matches_brute_force_on_random_machines(machine, formula):
    _assert_explorer_matches(machine, [FormulaMonitor(formula)], [formula.holds], 5)


@given(_machines(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_history_monitor_matches_brute_force(machine, limit):
    def at_most_limit_synacks(trace: IOTrace) -> bool:
        return sum(str(o) == str(SYNACK) for o in trace.outputs) <= limit

    monitor = HistoryMonitor(at_most_limit_synacks)
    _assert_explorer_matches(machine, [monitor], [at_most_limit_synacks], 5)


class TestExplorer:
    def test_thin_wrappers_keep_their_contract(self, toy_machine):
        violation = check_property(toy_machine, parse_ltl("G (out == NIL)"), depth=3)
        assert violation is not None and len(violation.trace) == 1
        assert violation.description == "LTLf violation"
        assert check_invariant(toy_machine, lambda t: len(t) <= 3, depth=3) is None
        found = check_invariant(toy_machine, lambda t: len(t) <= 2, depth=3)
        assert found is not None and len(found.trace) == 3

    def test_deep_bound_answers_from_the_product(self, toy_machine):
        # 2^40 words, a handful of (state, residual) nodes.
        formula = parse_ltl("G (in == ACK(?,?,0) -> out == NIL)")
        assert check_property(toy_machine, formula, depth=40) is None

    def test_weighted_mode_prefers_cheap_paths(self):
        edges = {"a": [(5, "x", "X", "goal"), (1, "y", "Y", "b")], "b": [(1, "z", "Z", "goal")]}
        found = shortest_path(
            "a", lambda n: edges.get(n, ()), lambda n: n == "goal", weighted=True
        )
        assert found.word == ("y", "z") and found.cost == 2
        assert found.node == "goal"

    def test_unbounded_search_ends_on_finite_products(self):
        edges = {"a": [(1, "x", "X", "b")], "b": [(1, "x", "X", "a")]}
        assert shortest_path("a", lambda n: edges[n], lambda n: False) is None
