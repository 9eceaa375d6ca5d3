"""Per-endpoint memos of the pure QUIC wire functions.

The trie walk restores saved SUL states, so both ends of a simulated QUIC
connection seal, open, encode and parse the same few datagrams again and
again: at seed 11 a quic-google learn encodes 3,785 packets, of which 390
are distinct.  Packet protection and the packet and frame codecs are pure
functions of their arguments (keys included), so each endpoint -- the
:class:`~repro.quic.impls.tracker.TrackerClient` and the
:class:`~repro.quic.connection.QUICServer` -- owns a :class:`WireMemo`:
bounded ``functools.lru_cache`` wrappers built with the endpoint and
dropped with it.  ``reset()`` and SUL restores keep them, so a memo lives
exactly as long as its SUL and every learn starts cold.

Exceptions are never cached: a tampered tag or malformed bytes raise
:class:`~repro.quic.crypto.CryptoError`, :class:`~repro.quic.packet
.PacketError` or :class:`~repro.quic.frames.FrameError` on every call.
Decoded frames come back as a tuple, so a cached answer is immutable.
"""

from __future__ import annotations

from functools import lru_cache

from .crypto import DirectionalKey
from .frames import Frame, decode_frames, encode_frames
from .packet import decode_packet, encode_packet

#: Entries per memoised function and endpoint.  A quic-google learn at
#: seed 11 gives no function more than 232 distinct inputs per endpoint.
WIRE_MEMO_SIZE = 4096


def _decode_frames(payload: bytes) -> tuple[Frame, ...]:
    return tuple(decode_frames(payload))


class WireMemo:
    """One endpoint's memoised ``seal``, ``open`` and packet/frame codecs.

    Each attribute takes its arguments positionally: ``seal(key, pn,
    header, plaintext)``, ``open(key, pn, header, sealed)``,
    ``encode_packet(header)``, ``decode_packet(data, short_cid_length)``,
    ``encode_frames(frames)`` with ``frames`` a tuple, and
    ``decode_frames(payload)``.
    """

    FUNCTIONS = (
        "seal", "open", "encode_packet", "decode_packet", "encode_frames", "decode_frames",
    )

    def __init__(self) -> None:
        memo = lru_cache(maxsize=WIRE_MEMO_SIZE)
        self.seal = memo(DirectionalKey.seal)
        self.open = memo(DirectionalKey.open)
        self.encode_packet = memo(encode_packet)
        self.decode_packet = memo(decode_packet)
        self.encode_frames = memo(encode_frames)
        self.decode_frames = memo(_decode_frames)

    def info(self) -> dict:
        """``cache_info()`` of each memoised function, by name."""
        return {name: getattr(self, name).cache_info() for name in self.FUNCTIONS}
