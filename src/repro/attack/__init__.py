"""Model-guided attack synthesis: from learned models to confirmed attacks.

The subsystem closes the loop from *analysis* to *adversary*:

* :mod:`~repro.attack.automata` -- attacker automata (capability-guarded
  moves over the SUL alphabet, goal states) and the string-keyed
  :data:`~repro.attack.automata.ATTACK_REGISTRY` of built-ins;
* :mod:`~repro.attack.search` -- Dijkstra over the learned-model x
  attacker product, returning ddmin-minimized
  :class:`~repro.attack.search.AttackStrategy` objects;
* :mod:`~repro.attack.replay` -- live-SUL confirmation
  (CONFIRMED/REFUTED/DIVERGED) through the executor stack, JSONL corpus
  emission, and the :func:`~repro.attack.replay.run_attacks`
  orchestrator behind ``repro attack``;
* :mod:`~repro.attack.fuzzer` -- a deterministic model-guided fuzzer
  mutating at frontier states.
"""

from .automata import ATTACK_REGISTRY, AttackerAutomaton, Move, resolve_attacker
from .fuzzer import FuzzReport, fuzz_frontier
from .replay import (
    VERDICT_CONFIRMED,
    VERDICT_DIVERGED,
    VERDICT_REFUTED,
    AttackReport,
    ReplayResult,
    replay_strategies,
    run_attacks,
)
from .search import AttackStrategy, synthesize_attack

__all__ = [
    "ATTACK_REGISTRY",
    "AttackReport",
    "AttackStrategy",
    "AttackerAutomaton",
    "FuzzReport",
    "Move",
    "ReplayResult",
    "VERDICT_CONFIRMED",
    "VERDICT_DIVERGED",
    "VERDICT_REFUTED",
    "fuzz_frontier",
    "replay_strategies",
    "resolve_attacker",
    "run_attacks",
    "synthesize_attack",
]
