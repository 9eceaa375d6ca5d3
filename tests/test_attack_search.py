"""Product-search strategy synthesis: edge cases, minimality, determinism."""

import json

import pytest

from repro.analysis.ltl import parse_ltl
from repro.attack.automata import AttackerAutomaton, Move, resolve_attacker
from repro.attack.search import AttackStrategy, synthesize_attack
from repro.core.alphabet import Alphabet, TCPSymbol, parse_tcp_symbol
from repro.core.mealy import mealy_from_table
from repro.framework import Prognosis
from repro.spec import ExperimentSpec

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["ACK", "SYN"])
NIL = parse_tcp_symbol("NIL")
RST = parse_tcp_symbol("RST(?,?,0)")


def toy_attacker() -> AttackerAutomaton:
    return AttackerAutomaton(
        name="toy",
        description="reach the RST answer",
        initial="start",
        moves=(
            Move("start", "SYN(?,?,0)", outcomes=(("~SYN", "in"), ("*", "start"))),
            Move("in", "SYN(?,?,0)", outcomes=(("~RST", "goal"), ("*", None))),
        ),
        goals=frozenset({"goal"}),
        capabilities=frozenset({"client"}),
        targets=("tcp",),
    )


def toy_model():
    """s0 --SYN/SYN+ACK--> s1; s1 --SYN/RST--> s1; ACK is a NIL no-op."""
    alphabet = Alphabet.of([SYN, ACK])
    return mealy_from_table(
        "s0",
        alphabet,
        [
            ("s0", SYN, SYNACK, "s1"),
            ("s0", ACK, NIL, "s0"),
            ("s1", SYN, RST, "s1"),
            ("s1", ACK, NIL, "s1"),
        ],
        name="toy-tcp",
    )


class TestSynthesis:
    def test_finds_shortest_goal_word(self):
        strategy = synthesize_attack(toy_model(), toy_attacker())
        assert strategy is not None
        assert strategy.word == (SYN, SYN)
        assert strategy.expected_outputs == (SYNACK, RST)
        assert strategy.goal == "goal"
        assert strategy.cost == 2.0

    def test_minimized_is_subsequence_no_longer_than_shortest(self):
        strategy = synthesize_attack(toy_model(), toy_attacker())
        assert len(strategy.minimized) <= len(strategy.word)
        # subsequence check: every minimized symbol appears in order
        it = iter(strategy.word)
        assert all(symbol in it for symbol in strategy.minimized)

    def test_move_costs_steer_dijkstra(self):
        # Make the SYN self-loop on start expensive via a costly detour
        # alternative: a cheap 2-step path must beat a cheap 1-step path
        # whose move costs 10.
        cheap_long = AttackerAutomaton(
            name="costed",
            description="",
            initial="start",
            moves=(
                Move("start", "SYN(?,?,0)", outcomes=(("*", "goal"),), cost=10.0),
                Move("start", "ACK(?,?,0)", outcomes=(("*", "mid"),), cost=1.0),
                Move("mid", "SYN(?,?,0)", outcomes=(("*", "goal"),), cost=1.0),
            ),
            goals=frozenset({"goal"}),
            capabilities=frozenset({"client"}),
            targets=("tcp",),
        )
        strategy = synthesize_attack(toy_model(), cheap_long, minimize=False)
        assert strategy.word == (ACK, SYN)
        assert strategy.cost == 2.0


class TestEdgeCases:
    def test_empty_alphabet_returns_none(self):
        machine = mealy_from_table(
            "s0", Alphabet.of([]), [], name="mute"
        )
        assert synthesize_attack(machine, toy_attacker()) is None

    def test_unreachable_goal_returns_none_not_exception(self):
        # The model never answers RST, so the attacker's second move
        # always prunes: search must exhaust and return None.
        alphabet = Alphabet.of([SYN, ACK])
        model = mealy_from_table(
            "s0",
            alphabet,
            [
                ("s0", SYN, SYNACK, "s0"),
                ("s0", ACK, NIL, "s0"),
            ],
        )
        assert synthesize_attack(model, toy_attacker()) is None

    def test_attacker_symbol_outside_model_alphabet_returns_none(self):
        # The attacker wants to inject RST but the model only speaks SYN:
        # missing symbols are skipped, not crashed on.
        attacker = AttackerAutomaton(
            name="rst-only",
            description="",
            initial="start",
            moves=(Move("start", "RST(?,?,0)", outcomes=(("*", "goal"),)),),
            goals=frozenset({"goal"}),
            capabilities=frozenset({"client"}),
            targets=("tcp",),
        )
        model = mealy_from_table(
            "s0", Alphabet.of([SYN]), [("s0", SYN, NIL, "s0")]
        )
        assert synthesize_attack(model, attacker) is None

    def test_one_state_model(self):
        model = mealy_from_table(
            "only",
            Alphabet.of([SYN]),
            [("only", SYN, RST, "only")],
            name="one-state",
        )
        attacker = AttackerAutomaton(
            name="one-shot",
            description="",
            initial="start",
            moves=(Move("start", "SYN(?,?,0)", outcomes=(("~RST", "goal"),)),),
            goals=frozenset({"goal"}),
            capabilities=frozenset({"client"}),
            targets=("tcp",),
        )
        strategy = synthesize_attack(model, attacker)
        assert strategy is not None
        assert strategy.word == (SYN,)
        assert strategy.minimized == (SYN,)

    def test_initial_goal_yields_empty_strategy(self):
        attacker = AttackerAutomaton(
            name="already-there",
            description="",
            initial="goal",
            moves=(),
            goals=frozenset({"goal"}),
            capabilities=frozenset({"client"}),
            targets=("tcp",),
        )
        strategy = synthesize_attack(toy_model(), attacker)
        assert strategy is not None
        assert strategy.word == ()
        assert strategy.cost == 0.0


class TestObjective:
    def test_objective_must_be_violated(self):
        # The toy strategy's trace ends in RST, violating G (out != RST):
        # the goal path passes the filter.
        violated = parse_ltl("G (out != RST(?,?,0))")
        strategy = synthesize_attack(
            toy_model(), toy_attacker(), objective=violated,
            objective_text="G (out != RST(?,?,0))",
        )
        assert strategy is not None
        assert strategy.objective == "G (out != RST(?,?,0))"

    def test_objective_that_holds_suppresses_the_attack(self):
        # G (out != NIL2) holds on every toy trace, so no goal path
        # violates it: the search must come back empty-handed.
        holds = parse_ltl("G (out != NIL2)")
        assert (
            synthesize_attack(toy_model(), toy_attacker(), objective=holds)
            is None
        )

    def test_history_dependent_objective_is_not_pruned(self):
        """The cheap goal path ACK satisfies the objective; the costlier
        SYN ACK violates it but reaches the same (model, attacker) pair
        as the empty word.  Only the objective's residual tells the two
        apart, so it must be part of the search node."""
        model = mealy_from_table(
            "s", Alphabet.of([SYN, ACK]),
            [("s", SYN, SYNACK, "s"), ("s", ACK, RST, "s")],
            name="one-state",
        )
        attacker = AttackerAutomaton(
            name="history",
            description="an objective only a SYN first violates",
            initial="a",
            moves=(
                Move("a", str(ACK), outcomes=(("*", "goal"),), cost=1),
                Move("a", str(SYN), outcomes=(("*", "a"),), cost=2),
            ),
            goals=frozenset({"goal"}),
            capabilities=frozenset({"client"}),
            targets=("tcp",),
        )
        objective = parse_ltl(f"G (out != {SYNACK})")
        strategy = synthesize_attack(model, attacker, objective=objective)
        assert strategy is not None
        assert strategy.word == (SYN, ACK)
        assert strategy.cost == 3.0
        assert model.run(strategy.word) == strategy.expected_outputs
        assert not objective.holds(strategy.trace)


class TestSerialization:
    def test_strategy_json_round_trip(self):
        strategy = synthesize_attack(toy_model(), toy_attacker())
        data = json.loads(strategy.to_json())
        assert AttackStrategy.from_dict(data) == strategy

    def test_render_mentions_goal_and_witness(self):
        text = synthesize_attack(toy_model(), toy_attacker()).render()
        assert "goal 'goal' reachable" in text
        assert "witness" in text


class TestDeterminism:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_byte_identical_strategy_json(self, executor):
        """Same spec + seed => byte-identical strategy JSON, serial and pooled."""
        attacker = resolve_attacker("challenge-ack-exhaust")
        blobs = []
        for _ in range(2):
            spec = ExperimentSpec(
                target="tcp",
                seed=7,
                name="tcp",
                workers=1 if executor == "serial" else 2,
                executor={"kind": executor},
            )
            with Prognosis.from_spec(spec) as prognosis:
                model = prognosis.learn().model
            blobs.append(synthesize_attack(model, attacker).to_json())
        assert blobs[0] == blobs[1]
        # and identical across executors too: stash per-executor blobs
        TestDeterminism._blobs = getattr(TestDeterminism, "_blobs", {})
        TestDeterminism._blobs[executor] = blobs[0]
        if len(TestDeterminism._blobs) == 2:
            assert len(set(TestDeterminism._blobs.values())) == 1
