"""Tests for the adapter layer: SUL interface, queue, TCP/QUIC adapters."""

import random

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.queue import PacketQueue
from repro.adapter.quic_adapter import QUICAdapterSUL
from repro.adapter.tcp_adapter import TCPAdapterSUL, abstract_segment
from repro.core.alphabet import (
    parse_quic_symbol,
    parse_tcp_symbol,
    tcp_handshake_alphabet,
)
from repro.quic.impls.quiche import quiche_server
from repro.tcp.segment import SEQ_MODULUS, TCPSegment

SYN = parse_tcp_symbol("SYN(?,?,0)")
ACK = parse_tcp_symbol("ACK(?,?,0)")


class TestPacketQueue:
    def test_fifo_within_key(self):
        queue = PacketQueue()
        queue.push("k", 1)
        queue.push("k", 2)
        assert queue.find("k") == 1
        assert queue.find("k") == 2
        assert queue.find("k") is None

    def test_miss_counting(self):
        queue = PacketQueue()
        queue.push("a", 1)
        queue.find("b")
        queue.find("a")
        assert queue.hits == 1
        assert queue.misses == 1
        assert queue.hit_rate == 0.5

    def test_clear(self):
        queue = PacketQueue()
        queue.push("a", 1)
        queue.clear()
        assert len(queue) == 0


class _LastISS(random.Random):
    """Draws every initial sequence number as 2**32 - 1."""

    def randrange(self, *args):
        return SEQ_MODULUS - 1


class TestAbstraction:
    def test_tcp_alpha_strips_numbers(self):
        segment = TCPSegment(1, 2, 12345, 999, flags=frozenset({"SYN", "ACK"}))
        assert str(abstract_segment(segment)) == "ACK+SYN(?,?,0)"

    def test_tcp_alpha_caps_payload_length(self):
        segment = TCPSegment(1, 2, 0, 0, flags=frozenset({"ACK"}), payload=b"xyz")
        assert abstract_segment(segment).payload_len == 1


class TestTCPAdapterSUL:
    def test_query_records_oracle_entry(self):
        sul = TCPAdapterSUL(alphabet=tcp_handshake_alphabet())
        outputs = sul.query((SYN, ACK))
        assert str(outputs[0]) == "ACK+SYN(?,?,0)"
        entry = sul.oracle_table.lookup((SYN, ACK))
        assert entry is not None
        # relative numbering: the server acks client ISS + 1 -> an == 1
        assert entry.steps[0].output_params["an"] == 1

    def test_stats_accumulate(self):
        sul = TCPAdapterSUL(alphabet=tcp_handshake_alphabet())
        sul.query((SYN,))
        sul.query((SYN, ACK))
        assert sul.stats.queries == 2
        assert sul.stats.resets == 2
        assert sul.stats.steps == 3

    def test_determinism_across_queries(self):
        sul = TCPAdapterSUL(alphabet=tcp_handshake_alphabet())
        first = sul.query((SYN, ACK, SYN))
        second = sul.query((SYN, ACK, SYN))
        assert first == second

    def test_relative_numbers_wrap_around_the_sequence_space(self):
        word = tuple(
            parse_tcp_symbol(text)
            for text in ("SYN(?,?,0)", "ACK+PSH(?,?,1)", "FIN+ACK(?,?,0)", "ACK(?,?,0)")
        )
        wrapped, unwrapped = TCPAdapterSUL(), TCPAdapterSUL()
        wrapped.server._rng = wrapped.client._rng = _LastISS()
        wrapped.query(word)
        unwrapped.query(word)
        steps = wrapped.oracle_table.lookup(word).steps
        assert steps == unwrapped.oracle_table.lookup(word).steps
        assert wrapped.client.iss == SEQ_MODULUS - 1
        # The SYN-ACK acks ISS + 1 = 0 on the wire: relative 1, not 0.
        assert (steps[0].output_params["sn"], steps[0].output_params["an"]) == (0, 1)
        assert (steps[1].input_params["sn"], steps[1].input_params["an"]) == (1, 1)

    def test_foreign_symbol_rejected(self):
        sul = TCPAdapterSUL()
        with pytest.raises(TypeError):
            sul.query((parse_quic_symbol("INITIAL(?,?)[CRYPTO]"),))


class TestQUICAdapterSUL:
    def test_handshake_abstraction(self):
        sul = QUICAdapterSUL(lambda n: quiche_server(n))
        ch = parse_quic_symbol("INITIAL(?,?)[CRYPTO]")
        outputs = sul.query((ch,))
        assert (
            str(outputs[0])
            == "{HANDSHAKE(?,?)[CRYPTO],HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}"
        )

    def test_oracle_params_capture_packet_numbers(self):
        sul = QUICAdapterSUL(lambda n: quiche_server(n))
        ch = parse_quic_symbol("INITIAL(?,?)[CRYPTO]")
        sul.query((ch,))
        entry = sul.oracle_table.lookup((ch,))
        assert entry.steps[0].input_params["pn"] == 0
        assert "pn" in entry.steps[0].output_params

    def test_determinism_across_queries(self):
        sul = QUICAdapterSUL(lambda n: quiche_server(n))
        ch = parse_quic_symbol("INITIAL(?,?)[CRYPTO]")
        hc = parse_quic_symbol("HANDSHAKE(?,?)[ACK,CRYPTO]")
        assert sul.query((ch, hc)) == sul.query((ch, hc))


class TestMealySUL:
    def test_replays_machine(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul = MealySUL(toy_machine)
        assert sul.query((syn, ack)) == toy_machine.run((syn, ack))

    def test_reset_between_queries(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        sul = MealySUL(toy_machine)
        sul.query((syn,))
        assert sul.query((syn,)) == toy_machine.run((syn,))
