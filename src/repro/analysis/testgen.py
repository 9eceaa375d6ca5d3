"""Model-based test generation (paper sections 5/7).

A learned model is a test-case factory: its transition cover, W-method
suite, or random walks exercise exactly the behaviours the model claims,
and replaying those against *another* implementation
(:func:`repro.learn.teacher.replay`) is differential testing with
high-quality inputs -- "something that is typically hard in a closed-box
setting" (section 7).  Divergences against the implementation the model
was learned from are learner bugs; against another implementation they
are behavioural differences of exactly the kind section 6.2 turns into
findings.
"""

from __future__ import annotations

import random
from typing import Literal

from ..core.mealy import MealyMachine
from ..core.trace import Word, random_word

SuiteKind = Literal["transition-cover", "wmethod", "random"]


def generate_test_suite(
    model: MealyMachine,
    kind: SuiteKind = "wmethod",
    extra_states: int = 0,
    num_random: int = 100,
    max_length: int = 10,
    seed: int = 0,
) -> list[Word]:
    """Input words derived from a learned model.

    * ``transition-cover``: one word per transition (cheap smoke suite);
    * ``wmethod``: the full W-method suite (conformance-grade);
    * ``random``: random walks through the *model's* structure.
    """
    if kind == "transition-cover":
        return model.transition_cover()
    if kind == "wmethod":
        return model.w_method_suite(extra_states)
    rng = random.Random(seed)
    symbols = list(model.input_alphabet)
    if not symbols:
        return []  # an empty alphabet admits no non-empty words
    return [random_word(rng, symbols, 1, max_length) for _ in range(num_random)]
