"""Simulated QUIC-TLS key schedule and packet protection.

The real QUIC handshake derives per-level secrets through TLS 1.3 and
protects packets with AEAD ciphers.  Reproducing actual TLS is out of scope
(and irrelevant to the closed-box learning pipeline), so this module
implements a *shape-faithful* substitute built on HMAC-SHA256:

* Initial secrets are derived from the client's destination connection id
  with a fixed salt -- exactly like RFC 9001, so any party observing the
  first datagram can decrypt Initial packets and nothing else.
* Handshake and application secrets mix the client and server randoms
  exchanged in the simulated ClientHello/ServerHello, so a party must
  process the CRYPTO stream to obtain them.
* Packet protection is an authenticated stream cipher: an HMAC-derived
  keystream XOR plus a 16-byte HMAC tag over header and ciphertext.
  Tampering or a wrong key fails authentication, which the servers treat as
  an undecryptable packet (silently dropped), mirroring real QUIC.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

INITIAL_SALT = b"prognosis-repro-initial-salt-v1"
TAG_LENGTH = 16
RANDOM_LENGTH = 32


class CryptoError(Exception):
    """Raised when packet protection fails to authenticate."""


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    return hmac.new(salt, input_key_material, hashlib.sha256).digest()


def hkdf_expand_label(secret: bytes, label: bytes, length: int = 32) -> bytes:
    """Simplified HKDF-Expand-Label: iterated HMAC blocks."""
    return _expand(hmac.new(secret, digestmod=hashlib.sha256), label, length)


def _expand(mac: "hmac.HMAC", label: bytes, length: int) -> bytes:
    """The blocks of :func:`hkdf_expand_label`, from a keyed HMAC state."""
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = _digest(mac, block + label + bytes([counter]))
        output += block
        counter += 1
    return output[:length]


def _digest(mac: "hmac.HMAC", data: bytes) -> bytes:
    step = mac.copy()
    step.update(data)
    return step.digest()


@dataclass(frozen=True)
class DirectionalKey:
    """Key material protecting one direction at one encryption level.

    The keyed HMAC-SHA256 state is built once per key and copied for each
    keystream block and tag.  Keys are immutable, so deep copies (SUL
    snapshots) share them.
    """

    key: bytes
    label: str
    _mac: "hmac.HMAC" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_mac", hmac.new(self.key, digestmod=hashlib.sha256))

    def __reduce__(self):
        return (DirectionalKey, (self.key, self.label))

    def __deepcopy__(self, memo) -> "DirectionalKey":
        return self

    def _xor(self, nonce: bytes, data: bytes) -> bytes:
        stream = _expand(self._mac, b"ks" + nonce, len(data))
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(len(data), "big")

    def seal(self, packet_number: int, header: bytes, plaintext: bytes) -> bytes:
        """Encrypt and authenticate ``plaintext`` bound to ``header``."""
        nonce = packet_number.to_bytes(8, "big")
        ciphertext = self._xor(nonce, plaintext)
        tag = _digest(self._mac, b"tag" + nonce + header + ciphertext)[:TAG_LENGTH]
        return ciphertext + tag

    def open(self, packet_number: int, header: bytes, sealed: bytes) -> bytes:
        """Verify and decrypt; raises :class:`CryptoError` on failure."""
        if len(sealed) < TAG_LENGTH:
            raise CryptoError("sealed payload shorter than tag")
        ciphertext, tag = sealed[:-TAG_LENGTH], sealed[-TAG_LENGTH:]
        nonce = packet_number.to_bytes(8, "big")
        expected = _digest(self._mac, b"tag" + nonce + header + ciphertext)[:TAG_LENGTH]
        if not hmac.compare_digest(tag, expected):
            raise CryptoError(f"authentication failed for {self.label}")
        return self._xor(nonce, ciphertext)


@dataclass(frozen=True)
class KeyPair:
    """Client-direction and server-direction keys for one level."""

    client: DirectionalKey
    server: DirectionalKey

    def __deepcopy__(self, memo) -> "KeyPair":
        return self


def initial_keys(destination_cid: bytes) -> KeyPair:
    """Initial-level keys, derivable by anyone who saw the first datagram."""
    secret = hkdf_extract(INITIAL_SALT, destination_cid)
    return KeyPair(
        client=DirectionalKey(
            hkdf_expand_label(secret, b"client in"), "initial/client"
        ),
        server=DirectionalKey(
            hkdf_expand_label(secret, b"server in"), "initial/server"
        ),
    )


def handshake_keys(client_random: bytes, server_random: bytes) -> KeyPair:
    """Handshake-level keys, requiring both hello randoms."""
    secret = hkdf_extract(b"hs", client_random + server_random)
    return KeyPair(
        client=DirectionalKey(hkdf_expand_label(secret, b"c hs"), "handshake/client"),
        server=DirectionalKey(hkdf_expand_label(secret, b"s hs"), "handshake/server"),
    )


def application_keys(client_random: bytes, server_random: bytes) -> KeyPair:
    """1-RTT keys, derived alongside the handshake keys."""
    secret = hkdf_extract(b"app", client_random + server_random)
    return KeyPair(
        client=DirectionalKey(hkdf_expand_label(secret, b"c ap"), "application/client"),
        server=DirectionalKey(hkdf_expand_label(secret, b"s ap"), "application/server"),
    )


def retry_integrity_tag(original_dcid: bytes, retry_pseudo_packet: bytes) -> bytes:
    """16-byte integrity tag appended to RETRY packets (RFC 9001 section 5.8)."""
    return hmac.new(
        b"retry" + original_dcid, retry_pseudo_packet, hashlib.sha256
    ).digest()[:TAG_LENGTH]


def stateless_reset_token(connection_id: bytes) -> bytes:
    """The 16-byte stateless reset token for a connection id."""
    return hmac.new(b"reset-token", connection_id, hashlib.sha256).digest()[:TAG_LENGTH]


def address_validation_token(host: str, port: int, original_dcid: bytes) -> bytes:
    """A RETRY token binding the client's source address (Issue 3 depends on
    this binding: a token returned from a different port fails validation)."""
    material = f"{host}:{port}".encode() + original_dcid
    return hmac.new(b"retry-token", material, hashlib.sha256).digest()
