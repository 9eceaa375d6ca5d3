"""Model-guided frontier fuzzing: mutate where the model knows least.

The second half of the attack-synthesis loop ("A Survey of Protocol
Fuzzing"): instead of mutating blindly, walk the *learned model* to a
frontier state -- a deep state far from the initial state, or a state a
partial (passively learned) machine has undetermined cells at -- and
mutate from there with short random suffixes.  Every input word is
generated up front from a seeded RNG with **zero** SUL interaction
during generation, so a fixed seed yields the identical word set (and
identical divergences) no matter which executor backend replays it --
the serial == thread == process guarantee the rest of the codebase
keeps.

Divergences -- live outputs that contradict the model's prediction --
are the fuzzer's product: each one is a membership query the learner
never asked, and :mod:`repro.attack.replay` feeds them back into the
confirmed-attack JSONL corpus so passive learning absorbs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.mealy import MealyMachine
from ..core.trace import Word, random_word, render_word
from ..learn.passive import PartialMealyMachine
from ..learn.teacher import Divergence, replay


@dataclass
class FuzzReport:
    """A fuzzing campaign's budget accounting and findings."""

    seed: int
    budget: int
    words_sent: int
    frontier_prefixes: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No divergences: the model survived the frontier barrage."""
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "words_sent": self.words_sent,
            "frontier_prefixes": self.frontier_prefixes,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def render(self) -> str:
        lines = [
            f"fuzz: {self.words_sent}/{self.budget} words from "
            f"{self.frontier_prefixes} frontier prefixes (seed {self.seed}): "
            f"{len(self.divergences)} divergences"
        ]
        lines.extend(f"  {d.render()}" for d in self.divergences)
        return "\n".join(lines)


def _frontier_prefixes(
    model: MealyMachine, partial: PartialMealyMachine | None
) -> list[Word]:
    """Access words of frontier states, deepest (least explored) first.

    Deep model states get priority -- the learner's equivalence queries
    concentrate near the root, so the frontier is where residual
    model/SUL disagreement hides.  A partial machine's undetermined
    cells are even better targets: the passive data said nothing about
    them, so their access words are appended (deduplicated) too.
    """
    access = model.access_sequences()
    prefixes = sorted(
        access.values(), key=lambda word: (-len(word), render_word(word))
    )
    if partial is not None:
        partial_access = partial.access_words()
        for state, _symbol in partial.undetermined_cells():
            word = partial_access.get(state)
            if word is not None and word not in prefixes:
                prefixes.append(word)
    return prefixes


def fuzz_frontier(
    model: MealyMachine,
    oracle,
    *,
    budget: int = 200,
    seed: int = 0,
    max_suffix: int = 4,
    partial: PartialMealyMachine | None = None,
) -> FuzzReport:
    """Fuzz the live SUL at the model's frontier states.

    Generates up to ``budget`` distinct words (frontier access word +
    random suffix of 1..``max_suffix`` alphabet symbols, seeded RNG,
    round-robin over prefixes), replays them as one batch
    (:func:`~repro.learn.teacher.replay`) through whatever executor backs
    ``oracle``, and reports every word whose live outputs contradict the
    model.
    """
    alphabet = sorted(model.input_alphabet, key=str)
    prefixes = _frontier_prefixes(model, partial)
    if not alphabet or not prefixes or budget <= 0:
        return FuzzReport(
            seed=seed,
            budget=budget,
            words_sent=0,
            frontier_prefixes=len(prefixes),
        )

    rng = random.Random(seed)
    words: list[Word] = []
    seen: set[Word] = set()
    # Generation is pure (model + RNG only): the word set is fixed before
    # the SUL sees anything, which is what keeps executors identical.
    attempts = 0
    while len(words) < budget and attempts < budget * 10:
        attempts += 1
        prefix = prefixes[attempts % len(prefixes)]
        word = tuple(prefix) + random_word(rng, alphabet, 1, max_suffix)
        if word in seen:
            continue
        seen.add(word)
        words.append(word)

    found = replay(model, oracle, [words])
    return FuzzReport(
        seed=seed,
        budget=budget,
        words_sent=found.sent,
        frontier_prefixes=len(prefixes),
        divergences=found.divergences,
    )
