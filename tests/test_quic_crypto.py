"""Unit and property tests for the simulated QUIC key schedule and AEAD."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.crypto import (
    CryptoError,
    address_validation_token,
    application_keys,
    handshake_keys,
    initial_keys,
    retry_integrity_tag,
    stateless_reset_token,
)
from repro.quic.wire import WireMemo


class TestKeySchedule:
    def test_initial_keys_deterministic_from_dcid(self):
        a = initial_keys(b"\x01" * 8)
        b = initial_keys(b"\x01" * 8)
        assert a.client.key == b.client.key
        assert a.server.key == b.server.key

    def test_initial_keys_differ_per_dcid(self):
        assert initial_keys(b"\x01" * 8).client.key != initial_keys(b"\x02" * 8).client.key

    def test_directions_differ(self):
        keys = initial_keys(b"\x01" * 8)
        assert keys.client.key != keys.server.key

    def test_handshake_requires_both_randoms(self):
        a = handshake_keys(b"c" * 32, b"s" * 32)
        b = handshake_keys(b"c" * 32, b"x" * 32)
        assert a.client.key != b.client.key

    def test_levels_are_independent(self):
        hs = handshake_keys(b"c" * 32, b"s" * 32)
        app = application_keys(b"c" * 32, b"s" * 32)
        assert hs.client.key != app.client.key


class TestSealOpen:
    def test_roundtrip(self):
        keys = initial_keys(b"\x07" * 8)
        sealed = keys.client.seal(3, b"header", b"payload")
        assert keys.client.open(3, b"header", sealed) == b"payload"

    def test_wrong_key_fails(self):
        a = initial_keys(b"\x07" * 8)
        b = initial_keys(b"\x08" * 8)
        sealed = a.client.seal(3, b"h", b"p")
        with pytest.raises(CryptoError):
            b.client.open(3, b"h", sealed)

    def test_wrong_direction_fails(self):
        keys = initial_keys(b"\x07" * 8)
        sealed = keys.client.seal(3, b"h", b"p")
        with pytest.raises(CryptoError):
            keys.server.open(3, b"h", sealed)

    def test_wrong_pn_fails(self):
        keys = initial_keys(b"\x07" * 8)
        sealed = keys.client.seal(3, b"h", b"p")
        with pytest.raises(CryptoError):
            keys.client.open(4, b"h", sealed)

    def test_header_tamper_fails(self):
        keys = initial_keys(b"\x07" * 8)
        sealed = keys.client.seal(3, b"h", b"p")
        with pytest.raises(CryptoError):
            keys.client.open(3, b"H", sealed)

    def test_ciphertext_tamper_fails(self):
        keys = initial_keys(b"\x07" * 8)
        sealed = bytearray(keys.client.seal(3, b"h", b"payload"))
        sealed[0] ^= 0xFF
        with pytest.raises(CryptoError):
            keys.client.open(3, b"h", bytes(sealed))

    def test_too_short_rejected(self):
        keys = initial_keys(b"\x07" * 8)
        with pytest.raises(CryptoError):
            keys.client.open(0, b"h", b"short")


def _plaintext(length):
    return bytes((7 * i + 3) % 256 for i in range(length))


#: Known-answer ``seal`` vectors: (keys, packet number, header, plaintext
#: length, sealed hex).  Lengths straddle the 32-byte keystream block.
INITIAL = initial_keys(b"\x07" * 8).client
HANDSHAKE = handshake_keys(b"c" * 32, b"s" * 32).server
APPLICATION = application_keys(b"c" * 32, b"s" * 32).client
SEAL_VECTORS = [
    (INITIAL, 0, b"", 0, "94f8d427253b0aa6e4be244af63c43a1"),
    (INITIAL, 1, b"h", 1, "3b0b8bddae3f371cd81b67d28637929fc2"),
    (
        INITIAL, 7, b"header", 32,
        "f3de216afecdbb09c68653149f78a742dc5c1ee2513d1c342251a0122f6cd1c3"
        "7b19bc9cb64120f811f4821b3321d76c",
    ),
    (
        INITIAL, 2**20, b"\xc3\x00", 33,
        "d69a421adb94cf5903780e566da4d3643d32f44efd2b2eb572063100e17c20de"
        "2c5994feb18df4e9ae16619c2a7aa0dd18",
    ),
    (
        INITIAL, 2**30 + 5, b"x" * 20, 65,
        "f69762fc130820079ace9d89c9aac5c421ca460e0fde47507aad44cb46e51be5"
        "f08ea7846d2b0bb1cf6108b113407e23e91096657e21c28ef8146ee5d66dae34"
        "faa5e0e00694a5b46dc095e0c095ed8d32",
    ),
    (HANDSHAKE, 0, b"", 0, "33186dac7226cc00279188c231a274a5"),
    (
        HANDSHAKE, 2**30 + 5, b"x" * 20, 65,
        "44dac9868f39dd3c68d5d7bcfaf6a8feb27ccbce9a573b8650f1289824f198bd"
        "6d4d6f3935d004d446b9ae66192dad6b7ecb13904b988229b17afac709e75014"
        "5f0a973f60a51a7fe229a78a1d05c2f1b5",
    ),
    (
        APPLICATION, 2**30 + 5, b"x" * 20, 65,
        "63255b59172a1ce61cf2eb51c537a13847bce7e370ab73e1ec837071a39d626a"
        "f4337cb1c433adaab3616465a23cc2757b4d95364d0b02265a2ebe65d99e0015"
        "ec3142b7510ceb01631a5787495c7e82be",
    ),
]
#: SHA-256 of ``seal(9, b"long", _plaintext(300))`` per key.
LONG_SEAL_DIGESTS = [
    (INITIAL, "b358ff35789a9d87936ac0679768de661328264c108e7994f1f812d99f01b71f"),
    (HANDSHAKE, "f56e004a15bc4ac0b9c6d44efe9456737851f96b9d1a9b64ecf25bb85cceb43d"),
    (APPLICATION, "7431bf2d7c7526c76673783ca29094ab4cdb4f83fd3653b59b21b2966ff629b3"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key, pn, header, length, sealed", SEAL_VECTORS)
    def test_seal_matches_vector(self, key, pn, header, length, sealed):
        assert key.seal(pn, header, _plaintext(length)).hex() == sealed
        assert key.open(pn, header, bytes.fromhex(sealed)) == _plaintext(length)

    @pytest.mark.parametrize("key, digest", LONG_SEAL_DIGESTS)
    def test_long_seal_matches_digest(self, key, digest):
        sealed = key.seal(9, b"long", _plaintext(300))
        assert hashlib.sha256(sealed).hexdigest() == digest
        assert key.open(9, b"long", sealed) == _plaintext(300)

    @pytest.mark.parametrize("key, pn, header, length, sealed", SEAL_VECTORS)
    def test_wire_memo_matches_vector(self, key, pn, header, length, sealed):
        memo = WireMemo()
        for _ in range(2):  # a miss, then a hit
            assert memo.seal(key, pn, header, _plaintext(length)).hex() == sealed
            assert memo.open(key, pn, header, bytes.fromhex(sealed)) == _plaintext(length)

    @pytest.mark.parametrize("key, digest", LONG_SEAL_DIGESTS)
    def test_wire_memo_matches_digest(self, key, digest):
        memo = WireMemo()
        for _ in range(2):
            sealed = memo.seal(key, 9, b"long", _plaintext(300))
            assert hashlib.sha256(sealed).hexdigest() == digest
            assert memo.open(key, 9, b"long", sealed) == _plaintext(300)

    def test_repeated_seals_are_stable(self):
        # Keyed hash state is reused across calls; it must not leak between
        # packets.
        first = APPLICATION.seal(3, b"h", _plaintext(40))
        APPLICATION.seal(4, b"other", _plaintext(90))
        assert APPLICATION.seal(3, b"h", _plaintext(40)) == first


class TestTokens:
    def test_reset_token_deterministic(self):
        assert stateless_reset_token(b"cid") == stateless_reset_token(b"cid")
        assert len(stateless_reset_token(b"cid")) == 16

    def test_address_token_binds_port(self):
        # The heart of Issue 3: a token from a different port fails.
        a = address_validation_token("client", 40400, b"")
        b = address_validation_token("client", 55555, b"")
        assert a != b

    def test_retry_tag_binds_dcid(self):
        assert retry_integrity_tag(b"a", b"pseudo") != retry_integrity_tag(b"b", b"pseudo")


@given(
    payload=st.binary(max_size=256),
    header=st.binary(max_size=32),
    pn=st.integers(0, 2**30),
)
@settings(max_examples=150, deadline=None)
def test_seal_open_roundtrip_property(payload, header, pn):
    keys = application_keys(b"c" * 32, b"s" * 32)
    sealed = keys.server.seal(pn, header, payload)
    assert keys.server.open(pn, header, sealed) == payload
    assert len(sealed) == len(payload) + 16
