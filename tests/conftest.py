"""Shared fixtures: small machines, alphabets, SULs and oracle factories
used across tests."""

from __future__ import annotations

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.core.alphabet import (
    Alphabet,
    TCPSymbol,
    parse_tcp_symbol,
    quic_alphabet,
    tcp_alphabet,
    tcp_handshake_alphabet,
)
from repro.core.mealy import MealyMachine, mealy_from_table
from repro.learn.cache import CachedMembershipOracle
from repro.learn.teacher import SULMembershipOracle


class FlakySUL(MealySUL):
    """Deterministic machine whose last output flips with period ``period``.

    The periodic blip models transient nondeterminism (a lost datagram, a
    stateless reset): repeated queries disagree occasionally, which the
    majority-vote layer must absorb and the cache layer must flag.
    """

    def __init__(self, machine, flip_symbol, alt_output, period=3):
        super().__init__(machine)
        self._flip_symbol = flip_symbol
        self._alt_output = alt_output
        self._period = period
        self._count = 0

    def snapshot(self):
        return None  # the flip counter lives outside the machine state

    def _step_impl(self, symbol):
        output, i, o = super()._step_impl(symbol)
        if symbol == self._flip_symbol:
            self._count += 1
            if self._count % self._period == 0:
                return self._alt_output, i, o
        return output, i, o


class VolatileSUL(MealySUL):
    """Answers the first ``stable_queries`` queries faithfully, then flips
    the output of ``flip_symbol`` permanently -- a SUL whose behaviour
    drifts between observations, which the cache must flag."""

    def __init__(self, machine, flip_symbol, alt_output, stable_queries=1):
        super().__init__(machine)
        self._flip_symbol = flip_symbol
        self._alt_output = alt_output
        self._stable_queries = stable_queries

    def snapshot(self):
        return None  # behaviour depends on the query count, not the state

    def _step_impl(self, symbol):
        output, i, o = super()._step_impl(symbol)
        if symbol == self._flip_symbol and self.stats.queries > self._stable_queries:
            return self._alt_output, i, o
        return output, i, o


@pytest.fixture(scope="session")
def make_flaky_sul():
    """Factory for the periodically-flipping SUL (see :class:`FlakySUL`)."""
    return FlakySUL


@pytest.fixture(scope="session")
def make_volatile_sul():
    """Factory for the drifting SUL (see :class:`VolatileSUL`)."""
    return VolatileSUL


@pytest.fixture(scope="session")
def cached_oracle_for():
    """Factory: a cache-fronted membership oracle over a machine-backed SUL
    (the standard stack learner unit tests run against)."""

    def make(machine) -> CachedMembershipOracle:
        return CachedMembershipOracle(SULMembershipOracle(MealySUL(machine)))

    return make


@pytest.fixture(scope="session")
def assert_identical_models():
    """Byte-identical model check: same states, initial state, transitions.

    The acceptance bar for every serial-vs-pooled comparison -- parallel
    execution may only change wall-clock, never what is learned.
    """

    def check(a, b):
        assert a.states == b.states
        assert a.initial_state == b.initial_state
        assert set(a.input_alphabet) == set(b.input_alphabet)
        for state in a.states:
            for symbol in a.input_alphabet:
                assert a.step(state, symbol) == b.step(state, symbol), (
                    f"transition ({state}, {symbol}) differs"
                )

    return check


@pytest.fixture
def ab_alphabet() -> Alphabet:
    """A tiny two-symbol alphabet for automata unit tests."""
    return Alphabet.of(
        [TCPSymbol.make(["SYN"]), TCPSymbol.make(["ACK"])]
    )


@pytest.fixture
def out_symbols() -> tuple:
    return (
        TCPSymbol.make(["ACK", "SYN"]),
        parse_tcp_symbol("NIL"),
    )


@pytest.fixture
def rst_symbol() -> TCPSymbol:
    return parse_tcp_symbol("RST(?,?,0)")


@pytest.fixture
def toy_machine(ab_alphabet, out_symbols, rst_symbol) -> MealyMachine:
    """A minimal 3-state machine: open, established (RSTs a SYN), closed."""
    syn, ack = ab_alphabet.symbols
    synack, nil = out_symbols
    table = [
        ("s0", syn, synack, "s1"),
        ("s0", ack, nil, "s0"),
        ("s1", syn, rst_symbol, "s1"),
        ("s1", ack, nil, "s2"),
        ("s2", syn, nil, "s2"),
        ("s2", ack, nil, "s2"),
    ]
    return mealy_from_table("s0", ab_alphabet, table, name="toy")


@pytest.fixture
def redundant_machine(ab_alphabet, out_symbols, rst_symbol) -> MealyMachine:
    """The toy machine with a duplicated (mergeable) initial state."""
    syn, ack = ab_alphabet.symbols
    synack, nil = out_symbols
    table = [
        ("s0", syn, synack, "s1"),
        ("s0", ack, nil, "s0b"),
        ("s0b", syn, synack, "s1"),
        ("s0b", ack, nil, "s0"),
        ("s1", syn, rst_symbol, "s1"),
        ("s1", ack, nil, "s2"),
        ("s2", syn, nil, "s2"),
        ("s2", ack, nil, "s2"),
    ]
    return mealy_from_table("s0", ab_alphabet, table, name="toy-redundant")


@pytest.fixture(scope="session")
def full_tcp_alphabet() -> Alphabet:
    return tcp_alphabet()


@pytest.fixture(scope="session")
def handshake_alphabet() -> Alphabet:
    return tcp_handshake_alphabet()


@pytest.fixture(scope="session")
def seven_quic_symbols() -> Alphabet:
    return quic_alphabet()
