"""The per-endpoint QUIC wire memo (:mod:`repro.quic.wire`).

The memoised ``seal``/``open`` and packet and frame codecs must answer
exactly like the raw functions, never cache an exception, and live as
long as their SUL: two learns in one process each start cold.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.framework import Prognosis
from repro.quic.connection import CID_LENGTH
from repro.quic.crypto import TAG_LENGTH, CryptoError, DirectionalKey
from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    FrameError,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    NewTokenFrame,
    PingFrame,
    StreamDataBlockedFrame,
    StreamFrame,
    decode_frames,
    encode_frames,
)
from repro.quic.packet import (
    PacketError,
    PacketHeader,
    PacketType,
    decode_packet,
    encode_packet,
)
from repro.quic.wire import WIRE_MEMO_SIZE, WireMemo
from repro.spec import ExperimentSpec

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

keys = st.builds(
    DirectionalKey, st.binary(min_size=32, max_size=32), st.sampled_from(["a", "b"])
)
packet_numbers = st.integers(0, 2**32 - 1)
varints = st.integers(0, 2**30)
data = st.binary(max_size=64)
cids = st.binary(min_size=CID_LENGTH, max_size=CID_LENGTH)

frames = st.one_of(
    st.just(PingFrame()),
    st.just(HandshakeDoneFrame()),
    st.builds(
        lambda largest, span, delay: AckFrame(
            largest, delay, (AckRange(largest - min(span, largest), largest),)
        ),
        varints, varints, varints,
    ),
    st.builds(CryptoFrame, offset=varints, data=data),
    st.builds(NewTokenFrame, token=st.binary(min_size=1, max_size=32)),
    st.builds(StreamFrame, stream_id=varints, offset=varints, data=data, fin=st.booleans()),
    st.builds(MaxDataFrame, maximum_data=varints),
    st.builds(MaxStreamDataFrame, stream_id=varints, maximum_stream_data=varints),
    st.builds(StreamDataBlockedFrame, stream_id=varints, maximum_stream_data=varints),
    st.builds(
        ConnectionCloseFrame,
        error_code=varints,
        reason=data,
        application_close=st.booleans(),
    ),
)
headers = st.builds(
    PacketHeader,
    packet_type=st.sampled_from(
        [PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.ZERO_RTT, PacketType.SHORT]
    ),
    destination_cid=cids,
    source_cid=cids,
    packet_number=packet_numbers,
    token=data,
    payload=st.binary(min_size=TAG_LENGTH, max_size=96),
)


def _outcome(fn, *args):
    """``fn(*args)``'s result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


class TestDifferential:
    """Each memoised function equals its raw function, cold and warm."""

    @given(key=keys, pn=packet_numbers, header=data, plaintext=st.binary(max_size=128))
    @settings(max_examples=100, deadline=None)
    def test_seal_and_open(self, key, pn, header, plaintext):
        memo = WireMemo()
        sealed = key.seal(pn, header, plaintext)
        for _ in range(2):
            assert memo.seal(key, pn, header, plaintext) == sealed
            assert memo.open(key, pn, header, sealed) == plaintext
        # An equal key built again hits the same entry.
        twin = DirectionalKey(key.key, key.label)
        assert memo.seal(twin, pn, header, plaintext) == sealed
        assert memo.seal.cache_info().misses == 1

    @given(header=headers)
    @settings(max_examples=100, deadline=None)
    def test_packet_codec(self, header):
        memo = WireMemo()
        encoded = encode_packet(header)
        for _ in range(2):
            assert memo.encode_packet(header) == encoded
            assert memo.decode_packet(encoded, CID_LENGTH) == decode_packet(
                encoded, CID_LENGTH
            )

    @given(raw=st.binary(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_decode_alike(self, raw):
        memo = WireMemo()
        for _ in range(2):
            assert _outcome(memo.decode_packet, raw, CID_LENGTH) == _outcome(
                decode_packet, raw, CID_LENGTH
            )
            assert _outcome(memo.decode_frames, raw) == _outcome(
                lambda payload: tuple(decode_frames(payload)), raw
            )

    @given(frame_list=st.lists(frames, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_frame_codec(self, frame_list):
        memo = WireMemo()
        payload = encode_frames(frame_list)
        for _ in range(2):
            assert memo.encode_frames(tuple(frame_list)) == payload
            decoded = memo.decode_frames(payload)
            assert isinstance(decoded, tuple)
            assert decoded == tuple(decode_frames(payload))


class TestErrorsAreNeverCached:
    def test_tampered_tag_raises_every_time(self):
        memo = WireMemo()
        key = DirectionalKey(b"k" * 32, "test")
        sealed = memo.seal(key, 7, b"header", b"payload")
        tampered = sealed[:-1] + bytes([sealed[-1] ^ 1])
        for _ in range(2):
            with pytest.raises(CryptoError):
                memo.open(key, 7, b"header", tampered)
        assert memo.open.cache_info().currsize == 0
        assert memo.open(key, 7, b"header", sealed) == b"payload"

    @pytest.mark.parametrize(
        "raw",
        [
            b"",  # empty datagram
            # An INITIAL whose length field overruns the datagram.
            bytes([0xC3]) + (1).to_bytes(4, "big") + b"\x00\x00" + b"\x00" + b"\x3f",
        ],
    )
    def test_malformed_packet_raises_every_time(self, raw):
        memo = WireMemo()
        for _ in range(2):
            with pytest.raises(PacketError):
                memo.decode_packet(raw, CID_LENGTH)
        assert memo.decode_packet.cache_info().currsize == 0

    @pytest.mark.parametrize("raw", [b"\xff", b"\x06", b"\x02\x05"])
    def test_malformed_frames_raise_every_time(self, raw):
        memo = WireMemo()
        for _ in range(2):
            with pytest.raises(FrameError):
                memo.decode_frames(raw)
        assert memo.decode_frames.cache_info().currsize == 0


def test_memo_is_bounded():
    memo = WireMemo()
    for name in WireMemo.FUNCTIONS:
        assert getattr(memo, name).cache_info().maxsize == WIRE_MEMO_SIZE


def _learn_quic_google():
    spec = ExperimentSpec(target="quic-google", target_params={"seed": 11}, seed=11)
    with Prognosis.from_spec(spec) as prognosis:
        report = prognosis.learn()
        info = prognosis.sul.wire_memo_info()
    misses = {
        side: {name: entry.misses for name, entry in functions.items()}
        for side, functions in info.items()
    }
    return report.model.to_dict(), misses


def test_each_learn_starts_cold():
    """The memos belong to the SUL: a second learn in the same process
    misses exactly as often as the first, and both learn the reference."""
    reference = json.loads((REFERENCE_DIR / "quic-google.json").read_text())
    reference.pop("name")
    first_model, first_misses = _learn_quic_google()
    second_model, second_misses = _learn_quic_google()
    assert first_misses == second_misses
    for model in (first_model, second_model):
        model.pop("name")
        assert model == reference
    for side in ("client", "server"):
        assert set(first_misses[side]) == set(WireMemo.FUNCTIONS)
        assert 0 < max(first_misses[side].values()) <= 500


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_pooled_quiche_learns_the_serial_model(backend):
    def learn(**executor):
        spec = ExperimentSpec(
            target="quic-quiche",
            target_params={"seed": 11},
            seed=11,
            name="quic-quiche",
            **executor,
        )
        with Prognosis.from_spec(spec) as prognosis:
            return prognosis.learn().model.to_dict()

    assert learn(workers=2, executor=backend) == learn()
