"""One product explorer: shortest paths over a learned model x a monitor.

Paper section 5 checks properties on the *learned model* because the
model is small (the trace-reduction argument of section 6.2.2).  This
module makes that literal.  A property is a *monitor* -- a finite-state
observer of I/O steps with ``initial``, ``step(state, input, output)``
and ``ok(state)`` -- and checking it is a search of the product of the
model and the monitor: a node is ``(model state, monitor state)``, and a
prefix violates the property when its node's monitor state is not ok.
Two prefixes reaching the same node have the same futures, so the
search visits each node once instead of every one of the |Sigma|^depth
input words.

Three kinds of monitor feed the one search:

* :class:`TraceMonitor` -- a hand-written monitor, declared with the
  :func:`monitor` decorator; the protocol suites state every trace
  property this way, and the monitor *is* the property's predicate;
* :class:`FormulaMonitor` -- an LTLf formula, whose state is the
  progressed residual (:meth:`repro.analysis.ltl.Formula.progress`);
* :class:`HistoryMonitor` -- any other trace predicate, whose state is
  the whole prefix (so it costs what enumerating the traces costs).

:func:`shortest_path` is the search itself: breadth-first with a depth
bound for property checks (the first violation found is a shortest
one), or Dijkstra over per-step costs for attack synthesis
(:mod:`repro.attack.search`, where the attacker automaton and an
objective's residual join the node).  Either way the word is rebuilt
from parent links.
"""

from __future__ import annotations

import functools
import heapq
from typing import Callable, Hashable, Iterable, NamedTuple

from ..core.alphabet import AbstractSymbol
from ..core.mealy import MealyMachine
from ..core.trace import EMPTY_TRACE, IOTrace, Word
from .ltl import Formula, Step

#: Absorbing states of a :class:`TraceMonitor`: the verdict of every
#: longer prefix is settled, so ``step`` is no longer called.
HOLDS = "HOLDS"
VIOLATED = "VIOLATED"


class Monitor:
    """A finite-state observer of I/O steps, usable as a trace predicate.

    ``ok(initial)`` is True: the empty trace satisfies every property.
    Calling a monitor on a trace runs it and reports ``ok`` of the state
    it ends in.
    """

    initial: Hashable = None

    def step(self, state, inp: AbstractSymbol, out: AbstractSymbol):
        raise NotImplementedError

    def ok(self, state) -> bool:
        raise NotImplementedError

    def __call__(self, trace: IOTrace) -> bool:
        state = self.initial
        for inp, out in trace:
            state = self.step(state, inp, out)
        return self.ok(state)


class TraceMonitor(Monitor):
    """A hand-written monitor: ``step`` and ``ok`` are plain functions.

    :data:`HOLDS` and :data:`VIOLATED` are absorbing; ``ok`` defaults to
    "not :data:`VIOLATED`".
    """

    def __init__(
        self,
        step: Callable,
        initial: Hashable,
        ok: Callable[[object], bool] | None = None,
    ) -> None:
        self._step = step
        self.initial = initial
        self._ok = ok
        functools.update_wrapper(self, step)

    def step(self, state, inp, out):
        if state is HOLDS or state is VIOLATED:
            return state
        return self._step(state, inp, out)

    def ok(self, state) -> bool:
        if self._ok is None:
            return state is not VIOLATED
        return self._ok(state)

    def __repr__(self) -> str:
        return f"<monitor {self.__name__}>"


def monitor(initial: Hashable, ok: Callable[[object], bool] | None = None):
    """Declare a :class:`TraceMonitor` from its step function."""

    def wrap(step: Callable) -> TraceMonitor:
        return TraceMonitor(step, initial, ok)

    return wrap


class FormulaMonitor(Monitor):
    """An LTLf formula as a monitor: the state is the residual formula.

    The initial state ``None`` stands for "no step yet", so the empty
    prefix holds vacuously, as in :meth:`Formula.holds`.
    """

    def __init__(self, formula: Formula) -> None:
        self.formula = formula.nnf()

    def step(self, state, inp, out):
        residual = self.formula if state is None else state
        return residual.progress(Step(inp, out))

    def ok(self, state) -> bool:
        return state is None or state.accepts_empty()


class HistoryMonitor(Monitor):
    """Any trace predicate as a monitor: the state is the prefix itself."""

    initial = EMPTY_TRACE

    def __init__(self, predicate: Callable[[IOTrace], bool]) -> None:
        self.predicate = predicate

    def step(self, state, inp, out):
        return state.extend(inp, out)

    def ok(self, state) -> bool:
        return not state or self.predicate(state)


def as_monitor(predicate: Callable[[IOTrace], bool]) -> Monitor:
    """A monitor for a trace predicate: itself if it is one."""
    if isinstance(predicate, Monitor):
        return predicate
    return HistoryMonitor(predicate)


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------

#: ``successors(node)`` yields ``(cost, input, output, next node)``.
Successors = Callable[[Hashable], Iterable[tuple]]


class Path(NamedTuple):
    """A path to an accepted node: the word, its outputs, the node."""

    word: Word
    outputs: Word
    node: Hashable
    cost: float
    expanded: int

    @property
    def trace(self) -> IOTrace:
        return IOTrace(self.word, self.outputs)


def shortest_path(
    root: Hashable,
    successors: Successors,
    accept: Callable[[Hashable], bool],
    *,
    depth: int | None = None,
    weighted: bool = False,
    max_expansions: int | None = None,
) -> Path | None:
    """The shortest path from ``root`` to a node ``accept`` takes.

    Unweighted, a breadth-first search of at most ``depth`` steps that
    tests each node when it is first reached, so the path found has the
    fewest steps.  Weighted, Dijkstra over the step costs, testing nodes
    as they are popped; heap entries carry an insertion counter, so ties
    break the same way on every run.  A node is visited once: the
    caller's node must hold everything the future depends on.
    """
    parents: dict = {root: None}

    def path(node, cost: float, expanded: int) -> Path:
        word: list = []
        outputs: list = []
        at = node
        while parents[at] is not None:
            at, inp, out = parents[at]
            word.append(inp)
            outputs.append(out)
        return Path(tuple(reversed(word)), tuple(reversed(outputs)), node, cost, expanded)

    if weighted:
        best = {root: 0.0}
        counter = 0
        heap = [(0.0, counter, root)]
        expanded = 0
        while heap and (max_expansions is None or expanded < max_expansions):
            cost, _, node = heapq.heappop(heap)
            if cost > best[node]:
                continue
            expanded += 1
            if accept(node):
                return path(node, cost, expanded)
            for step_cost, inp, out, child in successors(node):
                child_cost = cost + step_cost
                if child_cost < best.get(child, float("inf")):
                    best[child] = child_cost
                    parents[child] = (node, inp, out)
                    counter += 1
                    heapq.heappush(heap, (child_cost, counter, child))
        return None

    if accept(root):
        return path(root, 0, 1)
    frontier = [root]
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        reached = []
        for node in frontier:
            for _, inp, out, child in successors(node):
                if child in parents:
                    continue
                parents[child] = (node, inp, out)
                if accept(child):
                    return path(child, level, len(parents))
                reached.append(child)
        frontier = reached
    return None


def find_violation(
    machine: MealyMachine, monitor: Monitor, depth: int
) -> IOTrace | None:
    """A shortest trace of ``machine`` of length <= ``depth`` whose monitor
    state is not ok, or None when every such trace satisfies it."""
    symbols = tuple(machine.input_alphabet)

    def successors(node):
        state, observed = node
        for symbol in symbols:
            target, output = machine.step(state, symbol)
            yield 1, symbol, output, (target, monitor.step(observed, symbol, output))

    found = shortest_path(
        (machine.initial_state, monitor.initial),
        successors,
        lambda node: not monitor.ok(node[1]),
        depth=depth,
    )
    return None if found is None else found.trace
