"""Unit tests: transport params, flow control, streams, packet spaces."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.flowcontrol import (
    FlowControlError,
    ReceiveFlowController,
    SendFlowController,
)
from repro.quic.frames import AckFrame, AckRange
from repro.quic.packetspace import PacketNumberSpace
from repro.quic.streams import ReceiveStream, SendStream, StreamError
from repro.quic.transport_params import TransportParameters


class TestTransportParameters:
    def test_roundtrip_defaults(self):
        params = TransportParameters()
        decoded = TransportParameters.decode(params.encode())
        assert decoded.initial_max_data == params.initial_max_data
        assert (
            decoded.initial_max_stream_data_bidi_remote
            == params.initial_max_stream_data_bidi_remote
        )

    def test_roundtrip_custom(self):
        params = TransportParameters(
            max_idle_timeout=5,
            initial_max_data=123,
            initial_max_stream_data_bidi_local=7,
            initial_max_stream_data_bidi_remote=9,
            initial_max_streams_bidi=2,
            original_dcid=b"\x01\x02",
        )
        decoded = TransportParameters.decode(params.encode())
        assert decoded.original_dcid == b"\x01\x02"
        assert decoded.initial_max_streams_bidi == 2

    def test_unknown_params_preserved(self):
        params = TransportParameters(unknown={0x7F: b"xyz"})
        decoded = TransportParameters.decode(params.encode())
        assert decoded.unknown == {0x7F: b"xyz"}

    def test_retry_source_cid(self):
        params = TransportParameters(retry_source_cid=b"retry-id")
        decoded = TransportParameters.decode(params.encode())
        assert decoded.retry_source_cid == b"retry-id"

    def test_frozen_and_decoded_whole(self):
        # Connections and their SUL snapshots share instances.
        params = TransportParameters.decode(
            TransportParameters(initial_max_data=77, unknown={0x7F: b"x"}).encode()
        )
        assert params == TransportParameters(initial_max_data=77, unknown={0x7F: b"x"})
        with pytest.raises(FrozenInstanceError):
            params.initial_max_data = 1


class TestSendFlowController:
    def test_consume_within_limit(self):
        flow = SendFlowController(limit=10)
        assert flow.consume(6) == 6
        assert not flow.is_blocked

    def test_consume_cut_short_records_blocked_at(self):
        flow = SendFlowController(limit=10)
        assert flow.consume(15) == 10
        assert flow.is_blocked
        assert flow.blocked_at == 10

    def test_raise_limit_unblocks(self):
        flow = SendFlowController(limit=5)
        flow.consume(7)
        assert flow.is_blocked
        assert flow.raise_limit(12)
        assert not flow.is_blocked
        assert flow.available() == 7

    def test_limits_never_regress(self):
        flow = SendFlowController(limit=10)
        assert not flow.raise_limit(5)
        assert flow.limit == 10

    def test_receive_side_enforces_limit(self):
        flow = ReceiveFlowController(limit=10)
        flow.on_data(10)
        with pytest.raises(FlowControlError):
            flow.on_data(11)

    def test_receive_grant(self):
        flow = ReceiveFlowController(limit=10)
        assert flow.grant(5) == 15


class TestReceiveStream:
    def test_in_order_reassembly(self):
        stream = ReceiveStream()
        stream.flow.limit = 100
        stream.on_frame(0, b"ab", fin=False)
        stream.on_frame(2, b"cd", fin=False)
        assert stream.readable() == b"abcd"

    def test_out_of_order_reassembly(self):
        stream = ReceiveStream()
        stream.flow.limit = 100
        stream.on_frame(2, b"cd", fin=False)
        assert stream.readable() == b""
        stream.on_frame(0, b"ab", fin=False)
        assert stream.readable() == b"abcd"

    def test_consume_pops_prefix(self):
        stream = ReceiveStream()
        stream.flow.limit = 100
        stream.on_frame(0, b"abcdef", fin=False)
        assert stream.consume(4) == b"abcd"
        assert stream.readable() == b"ef"

    def test_final_size_enforced(self):
        stream = ReceiveStream()
        stream.flow.limit = 100
        stream.on_frame(0, b"ab", fin=True)
        with pytest.raises(StreamError):
            stream.on_frame(2, b"c", fin=False)

    def test_conflicting_final_sizes(self):
        stream = ReceiveStream()
        stream.flow.limit = 100
        stream.on_frame(0, b"ab", fin=True)
        with pytest.raises(StreamError):
            stream.on_frame(0, b"a", fin=True)

    def test_finished(self):
        stream = ReceiveStream()
        stream.flow.limit = 100
        stream.on_frame(0, b"ab", fin=True)
        stream.consume(2)
        assert stream.finished


class TestSendStream:
    def test_drain_under_credit(self):
        stream = SendStream()
        stream.flow.limit = 10
        stream.write(b"hello")
        offset, data, fin = stream.drain()
        assert (offset, data, fin) == (0, b"hello", False)

    def test_drain_blocked(self):
        stream = SendStream()
        stream.flow.limit = 3
        stream.write(b"hello")
        offset, data, fin = stream.drain()
        assert data == b"hel"
        assert stream.is_blocked
        assert stream.flow.blocked_at == 3

    def test_fin_on_last_byte(self):
        stream = SendStream()
        stream.flow.limit = 10
        stream.write(b"hi", fin=True)
        _, _, fin = stream.drain()
        assert fin
        assert stream.fin_sent

    def test_write_after_fin_rejected(self):
        stream = SendStream()
        stream.write(b"x", fin=True)
        with pytest.raises(StreamError):
            stream.write(b"y")

    def test_offsets_advance(self):
        stream = SendStream()
        stream.flow.limit = 100
        stream.write(b"abc")
        stream.drain()
        stream.write(b"def")
        offset, data, _ = stream.drain()
        assert offset == 3
        assert data == b"def"


class TestPacketNumberSpace:
    def test_take_increments(self):
        space = PacketNumberSpace()
        assert [space.take_packet_number() for _ in range(3)] == [0, 1, 2]

    def test_duplicate_detection(self):
        space = PacketNumberSpace()
        assert space.on_received(5)
        assert not space.on_received(5)

    def test_ack_covers_received(self):
        space = PacketNumberSpace()
        for pn in (0, 1, 2, 5):
            space.on_received(pn)
        ack = space.build_ack()
        assert ack.largest_acknowledged == 5
        assert ack.acknowledges(1)
        assert not ack.acknowledges(4)

    def test_empty_space_has_no_ack(self):
        assert PacketNumberSpace().build_ack() is None

    def test_reset_forgets_everything(self):
        space = PacketNumberSpace()
        space.take_packet_number()
        space.on_received(3)
        space.reset()
        assert space.next_packet_number == 0
        assert space.build_ack() is None

    def test_on_ack_tracks_largest(self):
        space = PacketNumberSpace()
        space.on_ack(AckFrame(7, 0, (AckRange(0, 7),)))
        assert space.largest_acked_by_peer == 7


@given(
    chunks=st.lists(st.binary(min_size=1, max_size=10), min_size=1, max_size=8)
)
@settings(max_examples=100, deadline=None)
def test_reassembly_order_independent(chunks):
    """Delivering segments in any order yields the same byte stream."""
    offsets = []
    cursor = 0
    for chunk in chunks:
        offsets.append((cursor, chunk))
        cursor += len(chunk)
    expected = b"".join(chunks)

    in_order = ReceiveStream()
    in_order.flow.limit = 10_000
    for offset, chunk in offsets:
        in_order.on_frame(offset, chunk, fin=False)

    reversed_stream = ReceiveStream()
    reversed_stream.flow.limit = 10_000
    for offset, chunk in reversed(offsets):
        reversed_stream.on_frame(offset, chunk, fin=False)

    assert in_order.readable() == expected
    assert reversed_stream.readable() == expected
