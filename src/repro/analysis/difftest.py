"""Differential conformance testing primitives (paper sections 5/7).

The campaign-scale payoff of learned models is *cross-replay*: the test
suite derived from implementation A's model, executed against
implementation B, is a high-quality differential test -- exactly how the
paper's Issues 1-4 were found.  This module provides the pieces a
:class:`~repro.campaign.DiffCampaign` assembles into an N x N verdict
matrix (each cell's suite replay is :func:`repro.learn.teacher.replay`):

* :func:`minimize_witness` -- a ddmin-style trace reducer that shrinks a
  diverging input word to a 1-minimal subsequence while preserving the
  divergence;
* :class:`CrossVerdict` / :class:`VerdictMatrix` -- one matrix cell and
  the full matrix, each renderable as text and serializable to JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.trace import Word

#: Possible outcomes of one (suite source, replay subject) cell.
VERDICT_SELF = "self"              # diagonal: model replayed on its own SUL
VERDICT_AGREE = "agree"            # the whole suite matched
VERDICT_DIVERGE = "diverge"        # at least one word disagreed
VERDICT_ERROR = "error"            # a model was never learned (e.g. mvfst)
VERDICT_INCOMPATIBLE = "incompatible"  # different input alphabets


# ---------------------------------------------------------------------------
# Witness minimization (ddmin)
# ---------------------------------------------------------------------------

def minimize_witness(
    word: Sequence,
    disagrees: Callable[[Word], bool],
    max_tests: int = 2000,
) -> Word:
    """Shrink ``word`` to a 1-minimal subsequence that still ``disagrees``.

    Classic delta debugging (Zeller & Hildebrandt's ddmin) over the input
    word: repeatedly try dropping chunks at increasing granularity,
    keeping any complement on which the two systems still produce
    different outputs.  The result is a *subsequence* of ``word`` (symbol
    order preserved), it still disagrees, and -- unless ``max_tests`` ran
    out -- removing any single symbol from it makes the disagreement
    vanish.

    ``disagrees`` is called with candidate words and must return True when
    the divergence is still observable; results are memoized, so a SUL
    -backed predicate pays one execution per distinct candidate.
    """
    word = tuple(word)
    if not disagrees(word):
        raise ValueError("minimize_witness needs a word that already disagrees")

    memo: dict[Word, bool] = {word: True}
    budget = max_tests

    def test(candidate: Word) -> bool:
        nonlocal budget
        cached = memo.get(candidate)
        if cached is not None:
            return cached
        if budget <= 0:
            return False
        budget -= 1
        result = bool(disagrees(candidate))
        memo[candidate] = result
        return result

    granularity = 2
    while len(word) >= 2:
        chunk = len(word) / granularity
        complements = []
        for index in range(granularity):
            start = int(index * chunk)
            stop = int((index + 1) * chunk)
            complements.append(word[:start] + word[stop:])
        reduced = False
        for complement in complements:
            if len(complement) < len(word) and test(complement):
                word = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(word):
                break
            granularity = min(len(word), granularity * 2)
    return word


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class CrossVerdict:
    """One cell of the verdict matrix: suite of ``row`` replayed on ``col``."""

    row: str
    col: str
    verdict: str
    suite_size: int = 0
    divergence_count: int = 0
    #: The minimized witness (shortest validated diverging word), if any.
    witness: Word | None = None
    #: Outputs of the row/col implementations on the witness.
    witness_row_outputs: Word | None = None
    witness_col_outputs: Word | None = None
    #: True when the witness was re-executed against both implementations
    #: and reproduced the differing outputs.
    witness_validated: bool = False
    error: str | None = None

    @property
    def diverges(self) -> bool:
        return self.verdict == VERDICT_DIVERGE

    def label(self) -> str:
        """The short cell text the rendered matrix shows."""
        if self.verdict == VERDICT_DIVERGE:
            witness = len(self.witness) if self.witness is not None else "?"
            return f"DIVERGE({self.divergence_count},|w|={witness})"
        if self.verdict == VERDICT_ERROR:
            return "ERROR"
        if self.verdict == VERDICT_INCOMPATIBLE:
            return "INCOMPAT"
        if self.verdict == VERDICT_SELF:
            return "self"
        return "agree"

    def render(self) -> str:
        lines = [f"{self.row} suite vs {self.col}: {self.label()}"]
        if self.error:
            lines.append(f"  error: {self.error}")
        if self.witness is not None:
            lines.append(
                "  witness : " + " ".join(str(s) for s in self.witness)
            )
            if self.witness_row_outputs is not None:
                lines.append(
                    f"  {self.row:>10} : "
                    + " ".join(str(s) for s in self.witness_row_outputs)
                )
            if self.witness_col_outputs is not None:
                lines.append(
                    f"  {self.col:>10} : "
                    + " ".join(str(s) for s in self.witness_col_outputs)
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        def render_word(word: Word | None) -> list[str] | None:
            return None if word is None else [str(s) for s in word]

        return {
            "row": self.row,
            "col": self.col,
            "verdict": self.verdict,
            "suite_size": self.suite_size,
            "divergence_count": self.divergence_count,
            "witness": render_word(self.witness),
            "witness_row_outputs": render_word(self.witness_row_outputs),
            "witness_col_outputs": render_word(self.witness_col_outputs),
            "witness_validated": self.witness_validated,
            "error": self.error,
        }


@dataclass
class VerdictMatrix:
    """The N x N outcome of a differential conformance campaign.

    Rows are suite sources (the implementation whose learned model
    generated the tests), columns are replay subjects.
    """

    targets: list[str]
    cells: dict[tuple[str, str], CrossVerdict] = field(default_factory=dict)

    def cell(self, row: str, col: str) -> CrossVerdict:
        return self.cells[(row, col)]

    def divergent_pairs(self) -> list[CrossVerdict]:
        """Off-diagonal cells that found behavioural differences."""
        return [
            cell
            for (row, col), cell in sorted(self.cells.items())
            if row != col and cell.diverges
        ]

    def render(self) -> str:
        width = max(
            [len("suite \\ subject")]
            + [len(t) for t in self.targets]
            + [len(cell.label()) for cell in self.cells.values()]
        ) + 2
        header = "suite \\ subject".ljust(width) + "".join(
            t.ljust(width) for t in self.targets
        )
        lines = [header.rstrip()]
        for row in self.targets:
            cells = "".join(
                self.cells[(row, col)].label().ljust(width) for col in self.targets
            )
            lines.append((row.ljust(width) + cells).rstrip())
        witnesses = [
            cell.render()
            for cell in self.divergent_pairs()
            if cell.witness is not None
        ]
        if witnesses:
            lines.append("")
            lines.extend(witnesses)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "targets": list(self.targets),
            "cells": [cell.to_dict() for _, cell in sorted(self.cells.items())],
        }
