"""Unit and property tests for QUIC frame codecs (all 20 frame types)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alphabet import QUIC_FRAME_TYPES
from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    DataBlockedFrame,
    Frame,
    FrameError,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    MaxStreamsFrame,
    NewConnectionIdFrame,
    NewTokenFrame,
    PaddingFrame,
    PathChallengeFrame,
    PathResponseFrame,
    PingFrame,
    ResetStreamFrame,
    StopSendingFrame,
    StreamDataBlockedFrame,
    StreamFrame,
    StreamsBlockedFrame,
    decode_frames,
    encode_frames,
    frame_kinds,
)

ALL_EXAMPLE_FRAMES: list[Frame] = [
    PaddingFrame(length=3),
    PingFrame(),
    AckFrame(largest_acknowledged=9, ack_delay=1, ranges=(AckRange(7, 9), AckRange(1, 3))),
    ResetStreamFrame(stream_id=4, error_code=1, final_size=100),
    StopSendingFrame(stream_id=4, error_code=2),
    CryptoFrame(offset=10, data=b"hello"),
    NewTokenFrame(token=b"tok"),
    StreamFrame(stream_id=0, offset=5, data=b"data", fin=True),
    MaxDataFrame(maximum_data=1000),
    MaxStreamDataFrame(stream_id=0, maximum_stream_data=400),
    MaxStreamsFrame(maximum_streams=8, bidirectional=True),
    DataBlockedFrame(limit=1000),
    StreamDataBlockedFrame(stream_id=0, maximum_stream_data=100),
    StreamsBlockedFrame(limit=8, bidirectional=False),
    NewConnectionIdFrame(
        sequence_number=1,
        retire_prior_to=0,
        connection_id=b"\x01" * 8,
        stateless_reset_token=b"\x02" * 16,
    ),
    # RETIRE_CONNECTION_ID, PATH_CHALLENGE, PATH_RESPONSE below
    PathChallengeFrame(data=b"\x03" * 8),
    PathResponseFrame(data=b"\x04" * 8),
    ConnectionCloseFrame(error_code=10, frame_type=0, reason=b"violation"),
    ConnectionCloseFrame(error_code=3, reason=b"app", application_close=True),
    HandshakeDoneFrame(),
]


class TestRoundtrip:
    @pytest.mark.parametrize("frame", ALL_EXAMPLE_FRAMES, ids=lambda f: f.kind)
    def test_each_frame_roundtrips(self, frame):
        decoded = decode_frames(encode_frames([frame]))
        assert len(decoded) == 1
        assert decoded[0] == frame

    def test_sequence_roundtrip(self):
        frames = [f for f in ALL_EXAMPLE_FRAMES if f.kind != "PADDING"]
        assert decode_frames(encode_frames(frames)) == frames

    def test_padding_runs_decode_whole(self):
        payload = b"\0" * 1100 + encode_frames([PingFrame()]) + b"\0" * 3
        assert decode_frames(payload) == [
            PaddingFrame(length=1100), PingFrame(), PaddingFrame(length=3)
        ]

    def test_all_twenty_kinds_constructible(self):
        from repro.quic.frames import RetireConnectionIdFrame

        kinds = {f.kind for f in ALL_EXAMPLE_FRAMES}
        kinds.add(RetireConnectionIdFrame(sequence_number=1).kind)
        assert kinds == set(QUIC_FRAME_TYPES)

    def test_retire_connection_id_roundtrip(self):
        from repro.quic.frames import RetireConnectionIdFrame

        frame = RetireConnectionIdFrame(sequence_number=3)
        assert decode_frames(encode_frames([frame])) == [frame]


class TestAck:
    def test_acknowledges(self):
        frame = AckFrame(9, 0, (AckRange(7, 9), AckRange(1, 3)))
        assert frame.acknowledges(8)
        assert frame.acknowledges(1)
        assert not frame.acknowledges(5)

    def test_empty_ranges_rejected_on_encode(self):
        from repro.quic.varint import Buffer

        with pytest.raises(FrameError):
            AckFrame(0, 0, ()).encode(Buffer())

    def test_bad_range_rejected(self):
        with pytest.raises(FrameError):
            AckRange(5, 3)


class TestValidation:
    def test_unknown_frame_type(self):
        with pytest.raises(FrameError):
            decode_frames(b"\x3f")

    def test_truncated_frame(self):
        wire = encode_frames([CryptoFrame(offset=0, data=b"abcdef")])
        with pytest.raises(FrameError):
            decode_frames(wire[:-3])

    def test_new_token_requires_token(self):
        from repro.quic.varint import Buffer

        with pytest.raises(FrameError):
            NewTokenFrame(token=b"").encode(Buffer())

    def test_frame_kinds_sorted_unique(self):
        kinds = frame_kinds([PingFrame(), PingFrame(), CryptoFrame()])
        assert kinds == ("CRYPTO", "PING")


@given(
    stream_id=st.integers(0, 2**20),
    offset=st.integers(0, 2**20),
    data=st.binary(max_size=100),
    fin=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_stream_frame_roundtrip(stream_id, offset, data, fin):
    frame = StreamFrame(stream_id=stream_id, offset=offset, data=data, fin=fin)
    assert decode_frames(encode_frames([frame])) == [frame]


@given(
    largest=st.integers(0, 2**16),
    spans=st.lists(st.tuples(st.integers(0, 50), st.integers(2, 50)), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_ack_frame_roundtrip(largest, spans):
    # Build non-overlapping descending ranges from (span, gap) pairs.
    ranges = []
    cursor = largest
    for span, gap in spans:
        if cursor < 0:
            break
        smallest = max(0, cursor - span)
        ranges.append(AckRange(smallest, cursor))
        cursor = smallest - gap - 2
    if not ranges or ranges[0].largest != largest:
        ranges = [AckRange(largest, largest)] + ranges[1:]
    frame = AckFrame(largest_acknowledged=largest, ack_delay=0, ranges=tuple(ranges))
    decoded = decode_frames(encode_frames([frame]))
    assert decoded == [frame]
