"""Unit tests for extended (register) Mealy machines."""

import copy
import pickle

import pytest

from repro.core.alphabet import Alphabet, TCPSymbol, parse_tcp_symbol
from repro.core.extended import (
    ConcreteStep,
    ExtendedMealyMachine,
    FrozenDict,
    TransitionAnnotation,
)
from repro.core.mealy import mealy_from_table
from repro.synth.terms import ConstTerm, InputTerm, PlusOne, RegisterTerm

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["SYN", "ACK"])
NIL = parse_tcp_symbol("NIL")


@pytest.fixture
def handshake_skeleton():
    alphabet = Alphabet.of([SYN, ACK])
    table = [
        ("s0", SYN, SYNACK, "s1"),
        ("s0", ACK, NIL, "s0"),
        ("s1", SYN, NIL, "s1"),
        ("s1", ACK, NIL, "s2"),
        ("s2", SYN, NIL, "s2"),
        ("s2", ACK, NIL, "s2"),
    ]
    return mealy_from_table("s0", alphabet, table, "handshake")


@pytest.fixture
def fig3c_machine(handshake_skeleton):
    """Fig. 3(c): on SYN the server acks sn+1 via register r."""
    hold = {"r": RegisterTerm("r")}
    annotations = {
        ("s0", SYN): TransitionAnnotation(
            updates={"r": PlusOne(InputTerm("sn"))},
            outputs={"an": RegisterTerm("r")},
        ),
        ("s0", ACK): TransitionAnnotation(updates=hold),
        ("s1", SYN): TransitionAnnotation(updates=hold),
        ("s1", ACK): TransitionAnnotation(updates=hold),
        ("s2", SYN): TransitionAnnotation(updates=hold),
        ("s2", ACK): TransitionAnnotation(updates=hold),
    }
    return ExtendedMealyMachine(
        skeleton=handshake_skeleton,
        register_names=("r",),
        initial_registers={"r": 0},
        annotations=annotations,
        name="fig3c",
    )


def _step(symbol, out_symbol, sn, an, **outputs):
    return ConcreteStep(symbol, out_symbol, {"sn": sn, "an": an}, outputs)


class TestExecution:
    def test_register_update_and_output(self, fig3c_machine):
        steps = [_step(SYN, SYNACK, sn=100, an=0)]
        predictions = fig3c_machine.execute(steps)
        assert predictions == [{"an": 101}]

    def test_registers_persist_across_steps(self, fig3c_machine):
        steps = [
            _step(SYN, SYNACK, sn=7, an=0),
            _step(ACK, NIL, sn=8, an=1),
        ]
        predictions = fig3c_machine.execute(steps)
        assert predictions[0] == {"an": 8}
        assert predictions[1] == {}  # no outputs modelled on that edge

    def test_consistency_check_passes(self, fig3c_machine):
        # Steps are read-only: the observed output goes in at construction.
        steps = [ConcreteStep(SYN, SYNACK, {"sn": 41, "an": 0}, {"an": 42})]
        assert fig3c_machine.consistent_with(steps)

    def test_consistency_check_fails_on_wrong_value(self, fig3c_machine):
        # Steps are read-only: the observed output goes in at construction.
        steps = [ConcreteStep(SYN, SYNACK, {"sn": 41, "an": 0}, {"an": 99})]
        assert not fig3c_machine.consistent_with(steps)

    def test_unobserved_params_are_ignored(self, fig3c_machine):
        steps = [_step(SYN, SYNACK, sn=41, an=0)]  # no observed outputs
        assert fig3c_machine.consistent_with(steps)

    def test_missing_input_field_is_inconsistent(self, fig3c_machine):
        step = ConcreteStep(SYN, SYNACK, {}, {"an": 42})
        assert not fig3c_machine.consistent_with([step])


class TestValidation:
    def test_missing_annotation_rejected(self, handshake_skeleton):
        with pytest.raises(ValueError):
            ExtendedMealyMachine(
                skeleton=handshake_skeleton,
                register_names=("r",),
                initial_registers={"r": 0},
                annotations={},
            )

    def test_dot_rendering_includes_terms(self, fig3c_machine):
        dot = fig3c_machine.to_dot()
        assert "sn+1" in dot
        assert "an=r" in dot


class TestConstTerm:
    def test_constant_output(self, handshake_skeleton):
        annotations = {
            (state, symbol): TransitionAnnotation(
                updates={"r": RegisterTerm("r")},
                outputs={"msd": ConstTerm(0)},
            )
            for state in handshake_skeleton.states
            for symbol in handshake_skeleton.input_alphabet
        }
        machine = ExtendedMealyMachine(
            handshake_skeleton, ("r",), {"r": 0}, annotations, "const"
        )
        steps = [_step(SYN, SYNACK, sn=1, an=2)]
        assert machine.execute(steps) == [{"msd": 0}]


class TestConcreteStepPickling:
    """A step crosses a process boundary as its constructor arguments."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_is_an_equal_read_only_step(self, protocol):
        step = ConcreteStep(SYN, SYNACK, {"sn": 41, "an": 0}, {"an": 42})
        copied = pickle.loads(pickle.dumps(step, protocol))
        assert copied == step and hash(copied) == hash(step)
        assert type(copied.input_params) is type(copied.output_params) is FrozenDict
        assert copied.input_symbol is parse_tcp_symbol("SYN(?,?,0)")
        with pytest.raises(TypeError):
            copied.output_params["an"] = 0

    def test_deepcopy_is_an_equal_step(self):
        step = ConcreteStep(SYN, NIL, {}, {"an": 1})
        copied = copy.deepcopy(step)
        assert copied == step and type(copied.output_params) is FrozenDict
