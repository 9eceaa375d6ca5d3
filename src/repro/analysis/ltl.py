"""LTLf: linear temporal logic over finite traces.

Prognosis lets users state temporal properties such as "packet numbers are
always increasing" or "a CONNECTION_CLOSE is never followed by application
data" and checks them against learned models.  Formulas are evaluated over
finite I/O traces with the standard LTLf semantics (X is the *strong*
next: it fails at the last step).

The surface syntax is a tiny combinator DSL plus a parser for a compact
textual form::

    G (out != CLOSE)            # globally
    F (out == DONE)             # eventually
    (in == SYN) -> X (out == SYNACK)

Besides the reference evaluator (:meth:`Formula.holds`), every formula
can be *progressed* one step at a time (Bacchus & Kabanza):
:meth:`Formula.progress` returns the residual obligation on the rest of
the trace, and a prefix satisfies the formula exactly when its residual
accepts the empty continuation (:meth:`Formula.accepts_empty`).
Progression works on the negation normal form (:meth:`Formula.nnf`),
which needs a weak next (:class:`WeakNext`, so ``!X p`` keeps holding
at the last step) and release (:class:`Release`, the dual of until).
The residual is a monitor state, which is what lets
:mod:`repro.analysis.product` check a model without enumerating its
traces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.alphabet import AbstractSymbol
from ..core.trace import IOTrace


class LTLError(ValueError):
    """Raised on parse errors."""


@dataclass(frozen=True)
class Step:
    """One evaluation position: the input and output at index i."""

    input: AbstractSymbol
    output: AbstractSymbol


Predicate = Callable[[Step], bool]


class Formula:
    """Base class: an LTLf formula evaluable on a finite trace."""

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        raise NotImplementedError

    def holds(self, trace: IOTrace) -> bool:
        steps = [Step(i, o) for i, o in trace]
        if not steps:
            return True  # the empty trace satisfies everything (vacuously)
        return self.holds_at(steps, 0)

    # -- progression -----------------------------------------------------
    def nnf(self) -> "Formula":
        """This formula in negation normal form (``Not`` only on atoms)."""
        raise NotImplementedError(f"{type(self).__name__} has no progression")

    def negated(self) -> "Formula":
        """The negation normal form of ``!self``."""
        raise NotImplementedError(f"{type(self).__name__} has no progression")

    def progress(self, step: Step) -> "Formula":
        """The residual obligation on the trace after ``step``.

        For every continuation ``u`` (empty included), ``step . u``
        satisfies this formula iff ``u`` satisfies the residual, where
        the empty ``u`` satisfies it iff the residual
        :meth:`accepts_empty`.  Residuals are simplified, so a monitor
        over a finite model reaches few of them.
        """
        raise NotImplementedError(f"{type(self).__name__} has no progression")

    def accepts_empty(self) -> bool:
        """Whether an empty continuation satisfies this residual."""
        raise NotImplementedError(f"{type(self).__name__} has no progression")

    # -- combinators -----------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Or(Not(self), other)


@dataclass(frozen=True)
class Atom(Formula):
    predicate: Predicate
    description: str = "atom"

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return self.predicate(trace[index])

    def nnf(self) -> Formula:
        return self

    def negated(self) -> Formula:
        return Not(self)

    def progress(self, step: Step) -> Formula:
        return TRUE if self.predicate(step) else FALSE

    def accepts_empty(self) -> bool:
        return False  # an atom needs a position to hold at

    def __repr__(self) -> str:  # pragma: no cover
        return self.description


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return not self.inner.holds_at(trace, index)

    def nnf(self) -> Formula:
        return self.inner.negated()

    def negated(self) -> Formula:
        return self.inner.nnf()

    def progress(self, step: Step) -> Formula:
        if isinstance(self.inner, Atom):
            return FALSE if self.inner.predicate(step) else TRUE
        return self.nnf().progress(step)

    def accepts_empty(self) -> bool:
        if isinstance(self.inner, Atom):
            return False  # a negated atom needs a position too
        return self.nnf().accepts_empty()


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return self.left.holds_at(trace, index) and self.right.holds_at(trace, index)

    def nnf(self) -> Formula:
        return And(self.left.nnf(), self.right.nnf())

    def negated(self) -> Formula:
        return Or(self.left.negated(), self.right.negated())

    def progress(self, step: Step) -> Formula:
        return conjoin(self.left.progress(step), self.right.progress(step))

    def accepts_empty(self) -> bool:
        return self.left.accepts_empty() and self.right.accepts_empty()


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return self.left.holds_at(trace, index) or self.right.holds_at(trace, index)

    def nnf(self) -> Formula:
        return Or(self.left.nnf(), self.right.nnf())

    def negated(self) -> Formula:
        return And(self.left.negated(), self.right.negated())

    def progress(self, step: Step) -> Formula:
        return disjoin(self.left.progress(step), self.right.progress(step))

    def accepts_empty(self) -> bool:
        return self.left.accepts_empty() or self.right.accepts_empty()


@dataclass(frozen=True)
class Next(Formula):
    """Strong next: requires a successor position."""

    inner: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return index + 1 < len(trace) and self.inner.holds_at(trace, index + 1)

    def nnf(self) -> Formula:
        return Next(self.inner.nnf())

    def negated(self) -> Formula:
        return WeakNext(self.inner.negated())

    def progress(self, step: Step) -> Formula:
        if self.inner.accepts_empty():
            return conjoin(self.inner, MORE)  # the next position must exist
        return self.inner

    def accepts_empty(self) -> bool:
        return False


@dataclass(frozen=True)
class WeakNext(Formula):
    """Weak next: holds at the last position (the dual of :class:`Next`)."""

    inner: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return index + 1 >= len(trace) or self.inner.holds_at(trace, index + 1)

    def nnf(self) -> Formula:
        return WeakNext(self.inner.nnf())

    def negated(self) -> Formula:
        return Next(self.inner.negated())

    def progress(self, step: Step) -> Formula:
        if self.inner.accepts_empty():
            return self.inner
        return disjoin(self.inner, END)  # or the trace ends here

    def accepts_empty(self) -> bool:
        return True


@dataclass(frozen=True)
class Globally(Formula):
    inner: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return all(self.inner.holds_at(trace, i) for i in range(index, len(trace)))

    def nnf(self) -> Formula:
        return Globally(self.inner.nnf())

    def negated(self) -> Formula:
        return Eventually(self.inner.negated())

    def progress(self, step: Step) -> Formula:
        # G p == p && WX G p; G's own residual accepts the empty rest.
        return conjoin(self.inner.progress(step), self)

    def accepts_empty(self) -> bool:
        return True


@dataclass(frozen=True)
class Eventually(Formula):
    inner: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return any(self.inner.holds_at(trace, i) for i in range(index, len(trace)))

    def nnf(self) -> Formula:
        return Eventually(self.inner.nnf())

    def negated(self) -> Formula:
        return Globally(self.inner.negated())

    def progress(self, step: Step) -> Formula:
        # F p == p || X F p
        return disjoin(self.inner.progress(step), self)

    def accepts_empty(self) -> bool:
        return False


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        for i in range(index, len(trace)):
            if self.right.holds_at(trace, i):
                return True
            if not self.left.holds_at(trace, i):
                return False
        return False

    def nnf(self) -> Formula:
        return Until(self.left.nnf(), self.right.nnf())

    def negated(self) -> Formula:
        return Release(self.left.negated(), self.right.negated())

    def progress(self, step: Step) -> Formula:
        # p U q == q || (p && X (p U q))
        return disjoin(
            self.right.progress(step), conjoin(self.left.progress(step), self)
        )

    def accepts_empty(self) -> bool:
        return False


@dataclass(frozen=True)
class Release(Formula):
    """``left R right``: ``right`` holds up to and including the first
    position where ``left`` holds, or to the end (the dual of until)."""

    left: Formula
    right: Formula

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        for i in range(index, len(trace)):
            if not self.right.holds_at(trace, i):
                return False
            if self.left.holds_at(trace, i):
                return True
        return True

    def nnf(self) -> Formula:
        return Release(self.left.nnf(), self.right.nnf())

    def negated(self) -> Formula:
        return Until(self.left.negated(), self.right.negated())

    def progress(self, step: Step) -> Formula:
        # p R q == q && (p || WX (p R q))
        return conjoin(
            self.right.progress(step), disjoin(self.left.progress(step), self)
        )

    def accepts_empty(self) -> bool:
        return True


class Constant(Formula):
    """``true`` or ``false``: the residuals progression bottoms out in.

    Only the two instances :data:`TRUE` and :data:`FALSE` exist, so
    identity is equality.
    """

    def __init__(self, value: bool) -> None:
        self.value = value

    def holds_at(self, trace: Sequence[Step], index: int) -> bool:
        return self.value

    def nnf(self) -> Formula:
        return self

    def negated(self) -> Formula:
        return FALSE if self.value else TRUE

    def progress(self, step: Step) -> Formula:
        return self

    def accepts_empty(self) -> bool:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return "true" if self.value else "false"


TRUE = Constant(True)
FALSE = Constant(False)
#: Holds on every non-empty rest and fails on the empty one (``F true``).
MORE = Eventually(TRUE)
#: Holds only on the empty rest (``G false``).
END = Globally(FALSE)


def _operands(formula: Formula, kind: type) -> list[Formula]:
    if isinstance(formula, kind):
        return _operands(formula.left, kind) + _operands(formula.right, kind)
    return [formula]


def _combine(kind: type, unit: Formula, zero: Formula, left: Formula, right: Formula) -> Formula:
    """``left kind right``, flattened, without units or repeats."""
    operands: dict[Formula, None] = {}
    for operand in _operands(left, kind) + _operands(right, kind):
        if operand == zero:
            return zero
        if operand != unit:
            operands[operand] = None
    if not operands:
        return unit
    result, *rest = operands
    for operand in rest:
        result = kind(result, operand)
    return result


def conjoin(left: Formula, right: Formula) -> Formula:
    """``left && right``, simplified."""
    return _combine(And, TRUE, FALSE, left, right)


def disjoin(left: Formula, right: Formula) -> Formula:
    """``left || right``, simplified."""
    return _combine(Or, FALSE, TRUE, left, right)


# ---------------------------------------------------------------------------
# Atom builders
# ---------------------------------------------------------------------------

def input_is(label: str) -> Atom:
    return Atom(lambda s, l=label: str(s.input) == l, f"in == {label}")


def output_is(label: str) -> Atom:
    return Atom(lambda s, l=label: str(s.output) == l, f"out == {label}")


def input_contains(fragment: str) -> Atom:
    return Atom(lambda s, f=fragment: f in str(s.input), f"in ~ {fragment}")


def output_contains(fragment: str) -> Atom:
    return Atom(lambda s, f=fragment: f in str(s.output), f"out ~ {fragment}")


# ---------------------------------------------------------------------------
# Parser for the compact textual syntax
# ---------------------------------------------------------------------------

# Two-char operators first (so "!=" beats "!"), then punctuation, then
# symbol labels: a brace multiset like "{HANDSHAKE(?,?)[CRYPTO]}", or a word
# optionally followed by its "(...)" parameters and "[...]" frame list --
# precise enough that the closing paren of a grouping never glues onto a
# label.
_TOKEN_RE = re.compile(
    r"\s*(->|&&|\|\||==|!=|~|!|\(|\)|"
    r"\{[^}]*\}|"
    r"[A-Za-z0-9_+?]+(?:\([^)]*\))?(?:\[[^\]]*\])?)"
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise LTLError(f"cannot tokenize {text[position:]!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent: implication < or < and < unary < atoms."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.position = 0

    def peek(self) -> str | None:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None:
            raise LTLError("unexpected end of formula")
        if expected is not None and token != expected:
            raise LTLError(f"expected {expected!r}, got {token!r}")
        self.position += 1
        return token

    def parse(self) -> Formula:
        formula = self._implication()
        if self.peek() is not None:
            raise LTLError(f"trailing tokens: {self.tokens[self.position:]}")
        return formula

    def _implication(self) -> Formula:
        left = self._until()
        if self.peek() == "->":
            self.take()
            return left.implies(self._implication())
        return left

    def _until(self) -> Formula:
        left = self._disjunction()
        if self.peek() == "U":
            self.take()
            return Until(left, self._until())
        return left

    def _disjunction(self) -> Formula:
        left = self._conjunction()
        while self.peek() == "||":
            self.take()
            left = Or(left, self._conjunction())
        return left

    def _conjunction(self) -> Formula:
        left = self._unary()
        while self.peek() == "&&":
            self.take()
            left = And(left, self._unary())
        return left

    def _unary(self) -> Formula:
        token = self.peek()
        if token == "!":
            self.take()
            return Not(self._unary())
        if token == "G":
            self.take()
            return Globally(self._unary())
        if token == "F":
            self.take()
            return Eventually(self._unary())
        if token == "X":
            self.take()
            return Next(self._unary())
        if token == "(":
            self.take()
            inner = self._implication()
            self.take(")")
            return inner
        return self._atom()

    def _atom(self) -> Formula:
        field = self.take()
        if field not in ("in", "out"):
            raise LTLError(f"expected 'in' or 'out', got {field!r}")
        operator = self.take()
        value = self.take()
        if operator == "==":
            return input_is(value) if field == "in" else output_is(value)
        if operator == "!=":
            atom = input_is(value) if field == "in" else output_is(value)
            return Not(atom)
        if operator == "~":
            return input_contains(value) if field == "in" else output_contains(value)
        raise LTLError(f"unknown operator {operator!r}")


def parse_ltl(text: str) -> Formula:
    """Parse the compact textual syntax into a formula."""
    return _Parser(_tokenize(text)).parse()
