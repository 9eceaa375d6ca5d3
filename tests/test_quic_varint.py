"""Unit and property tests for QUIC varints and the Buffer helper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.varint import (
    Buffer,
    VARINT_MAX,
    VarintError,
    decode_varint,
    encode_varint,
    varint_length,
)


class TestVarint:
    def test_known_encodings(self):
        # Examples from RFC 9000 appendix A.1.
        assert encode_varint(151_288_809_941_952_652) == bytes.fromhex(
            "c2197c5eff14e88c"
        )
        assert encode_varint(494_878_333) == bytes.fromhex("9d7f3e7d")
        assert encode_varint(15_293) == bytes.fromhex("7bbd")
        assert encode_varint(37) == bytes.fromhex("25")

    def test_lengths(self):
        assert varint_length(63) == 1
        assert varint_length(64) == 2
        assert varint_length(16383) == 2
        assert varint_length(16384) == 4

    def test_out_of_range(self):
        with pytest.raises(VarintError):
            encode_varint(-1)
        with pytest.raises(VarintError):
            encode_varint(VARINT_MAX + 1)

    def test_truncated(self):
        with pytest.raises(VarintError):
            decode_varint(b"")
        with pytest.raises(VarintError):
            decode_varint(bytes.fromhex("c2197c"))

    def test_decode_offset(self):
        data = b"\xff" + encode_varint(37)
        value, end = decode_varint(data, offset=1)
        assert value == 37
        assert end == 2


@given(st.integers(min_value=0, max_value=VARINT_MAX))
@settings(max_examples=300, deadline=None)
def test_varint_roundtrip(value):
    encoded = encode_varint(value)
    decoded, end = decode_varint(encoded)
    assert decoded == value
    assert end == len(encoded)
    assert len(encoded) == varint_length(value)


class TestBuffer:
    def test_push_pull_roundtrip(self):
        buf = Buffer()
        buf.push_uint8(7).push_uint(513, 2).push_varint(99).push_varint_bytes(b"abc")
        reader = Buffer(buf.getvalue())
        assert reader.pull_uint8() == 7
        assert reader.pull_uint(2) == 513
        assert reader.pull_varint() == 99
        assert reader.pull_varint_bytes() == b"abc"
        assert reader.eof

    def test_underrun(self):
        with pytest.raises(VarintError):
            Buffer(b"ab").pull_bytes(3)

    def test_remaining(self):
        reader = Buffer(b"abcd")
        reader.pull_bytes(1)
        assert reader.remaining == 3

    def test_pull_varint_mid_buffer(self):
        reader = Buffer(b"x" + encode_varint(15293) + encode_varint(7))
        reader.pull_uint8()
        assert (reader.pull_varint(), reader.pull_varint()) == (15293, 7)
        assert reader.eof
        with pytest.raises(VarintError):
            Buffer(encode_varint(15293)[:1]).pull_varint()

    @pytest.mark.parametrize("data, run", [(b"", 0), (b"a", 0), (b"\0\0a\0", 2), (b"\0" * 5, 5)])
    def test_pull_zeros(self, data, run):
        reader = Buffer(data)
        assert reader.pull_zeros() == run
        assert reader.remaining == len(data) - run
