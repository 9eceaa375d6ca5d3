"""A1 -- Attack synthesis: product-search and replay-confirmation rates.

The attack subsystem's operational claims, measured:

* **Synthesis throughput** -- strategies found and product states
  expanded per second when searching the learned-model x attacker
  product over every applicable built-in adversary.
* **Replay confirmation throughput** -- confirmed strategies per second
  when replaying candidate sets against the live SUL, serial vs a
  thread-pooled executor, with the usual identity bar: pooling may only
  change wall-clock, never a verdict or a strategy byte.
"""

import json
import time

from conftest import report

from repro.attack.automata import resolve_attacker
from repro.attack.replay import VERDICT_CONFIRMED, replay_strategies
from repro.attack.search import synthesize_attack
from repro.framework import Prognosis
from repro.registry import attacks_for
from repro.spec import ExperimentSpec

TARGETS = ("tcp", "tcp-no-challenge-ack", "http2-buggy", "http3-buggy")
SYNTH_ROUNDS = 100
REPLAY_ROUNDS = 20


def _learn(target: str, **overrides):
    # name is pinned: pool SULs embed worker info in their name, which
    # would leak into model bytes and mask real (non-)identity.
    spec = ExperimentSpec(target=target, seed=7, name=target, **overrides)
    return Prognosis.from_spec(spec)


def test_synthesis_throughput():
    """Strategies found and product states expanded per second, offline."""

    out = {}
    for target in TARGETS:
        with _learn(target) as prognosis:
            model = prognosis.learn().model
        attackers = [resolve_attacker(n) for n in attacks_for(target)]
        start = time.perf_counter()
        strategies = 0
        expanded = 0
        for _ in range(SYNTH_ROUNDS):
            for attacker in attackers:
                strategy = synthesize_attack(model, attacker)
                if strategy is not None:
                    strategies += 1
                    expanded += strategy.states_expanded
        elapsed = time.perf_counter() - start
        out[target] = {
            "attackers": len(attackers),
            "strategies_found": strategies,
            "strategies_per_s": round(strategies / elapsed, 1),
            "states_expanded_per_s": round(expanded / elapsed, 1),
        }
    report(
        "A1 synthesis throughput",
        [
            (
                target,
                f"{row['attackers']} attackers",
                f"{row['strategies_per_s']}/s strategies, "
                f"{row['states_expanded_per_s']}/s product states",
            )
            for target, row in out.items()
        ],
    )
    for target, row in out.items():
        assert row["strategies_found"] > 0, f"{target}: nothing synthesized"
        assert row["states_expanded_per_s"] > 0


def test_replay_confirmation_serial_vs_pooled():
    """Confirmed replays per second, serial vs thread pool; identical bytes."""
    cells = (("serial", 1), ("thread", 4))

    out = {}
    for target in TARGETS:
        with _learn(target) as prognosis:
            model = prognosis.learn().model
        pairs = []
        for name in attacks_for(target):
            attacker = resolve_attacker(name)
            strategy = synthesize_attack(model, attacker)
            if strategy is not None:
                pairs.append((attacker, strategy))
        if not pairs:
            continue
        per_executor = {}
        for kind, workers in cells:
            with _learn(
                target,
                workers=workers,
                executor={"kind": kind, "workers": workers},
            ) as prognosis:
                prognosis.learn()
                start = time.perf_counter()
                for _ in range(REPLAY_ROUNDS):
                    results = replay_strategies(pairs, prognosis.oracle)
                elapsed = time.perf_counter() - start
            confirmed = sum(1 for r in results if r.verdict == VERDICT_CONFIRMED)
            per_executor[kind] = {
                "confirmed": confirmed,
                "confirmations_per_s": round(REPLAY_ROUNDS * confirmed / elapsed, 1),
                "verdicts": [r.verdict for r in results],
                "strategy_json": json.dumps(
                    [r.strategy.to_dict() for r in results], sort_keys=True
                ),
            }
        out[target] = per_executor
    report(
        "A1 replay confirmation",
        [
            (
                target,
                f"{row['serial']['confirmations_per_s']}/s serial",
                f"{row['thread']['confirmations_per_s']}/s pooled",
            )
            for target, row in out.items()
        ],
    )
    for target, row in out.items():
        assert row["serial"]["confirmed"] > 0, f"{target}: nothing confirmed"
        # The identity bar: pooling never changes a verdict or a byte.
        assert row["serial"]["verdicts"] == row["thread"]["verdicts"]
        assert row["serial"]["strategy_json"] == row["thread"]["strategy_json"]
