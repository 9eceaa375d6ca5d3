"""Abstract symbols and alphabets.

Prognosis distinguishes three alphabet levels (paper section 3):

* the *native* alphabet -- raw bytes on the wire,
* the *concrete* alphabet -- structured packet descriptions (JSON-like),
* the *abstract* alphabet -- the simplified symbols the learner sees.

This module implements the abstract level.  Abstract symbols render exactly
like the paper writes them, e.g. ``SYN(?,?,0)`` for TCP or
``INITIAL(?,?)[ACK,CRYPTO]`` for QUIC, and are hashable so they can key
observation tables and transition maps.

Symbols are interned per text: each ``parse_*`` function is a bounded
memo, so decoding a label the process has already seen is one dict
lookup and returns the very object the alphabet factories hold.  A
symbol hashes by its label alone (a cached ``str`` hash), since equal
symbols always share a label.
"""

from __future__ import annotations

import copyreg
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence


class SymbolError(ValueError):
    """Raised when an abstract symbol cannot be parsed or validated."""


#: Entries per text parser memo; a target has a few dozen distinct labels.
SYMBOL_MEMO_SIZE = 4096


@dataclass(frozen=True, order=True)
class AbstractSymbol:
    """Base class for abstract alphabet symbols.

    Subclasses provide protocol-specific structure; the base class only
    promises a stable, human-readable ``label`` used for hashing, ordering
    and rendering.
    """

    label: str

    # Equal symbols share a label, and a str caches its hash.  Every
    # subclass re-assigns this, or @dataclass(frozen=True) would generate
    # a hash over all its fields.
    def __hash__(self) -> int:
        return hash(self.label)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


@dataclass(frozen=True, order=True)
class TCPSymbol(AbstractSymbol):
    """A TCP abstract symbol such as ``SYN+ACK(?,?,0)``.

    ``flags`` is the canonical ``+``-joined flag string (sorted so that the
    same flag set always renders identically), and ``seq``/``ack`` are either
    the literal ``"?"`` placeholder or a concrete integer rendered in the
    label.  ``payload_len`` is the abstracted payload length (the paper's
    alphabet carries 0 or 1).
    """

    __hash__ = AbstractSymbol.__hash__

    flags: tuple[str, ...] = ()
    seq: str = "?"
    ack: str = "?"
    payload_len: int = 0

    _FLAG_ORDER = ("ACK", "SYN", "FIN", "RST", "PSH", "URG")

    @classmethod
    def make(
        cls,
        flags: Iterable[str],
        seq: str | int = "?",
        ack: str | int = "?",
        payload_len: int = 0,
    ) -> "TCPSymbol":
        """Build a symbol from a flag collection, canonicalizing flag order."""
        flag_set = {f.upper() for f in flags}
        unknown = flag_set - set(cls._FLAG_ORDER)
        if unknown:
            raise SymbolError(f"unknown TCP flags: {sorted(unknown)}")
        ordered = tuple(f for f in cls._FLAG_ORDER if f in flag_set)
        seq_s, ack_s = str(seq), str(ack)
        label = f"{'+'.join(ordered) or 'NIL'}({seq_s},{ack_s},{payload_len})"
        return cls(
            label=label, flags=ordered, seq=seq_s, ack=ack_s, payload_len=payload_len
        )

    @property
    def is_nil(self) -> bool:
        """True for the empty (no packet) output symbol."""
        return not self.flags


#: Canonical "no output" symbol for TCP models.
TCP_NIL = TCPSymbol(label="NIL", flags=(), seq="?", ack="?", payload_len=0)

_TCP_SYMBOL_RE = re.compile(
    r"^(?P<flags>[A-Z+]+)\((?P<seq>[^,]+),(?P<ack>[^,]+),(?P<plen>\d+)\)$"
)


@lru_cache(maxsize=SYMBOL_MEMO_SIZE)
def parse_tcp_symbol(text: str) -> TCPSymbol:
    """Parse a paper-style TCP symbol, e.g. ``ACK+PSH(?,?,1)`` or ``NIL``."""
    text = text.strip()
    if text == "NIL":
        return TCP_NIL
    match = _TCP_SYMBOL_RE.match(text)
    if match is None:
        raise SymbolError(f"malformed TCP symbol: {text!r}")
    flags = match.group("flags").split("+")
    return TCPSymbol.make(
        flags,
        seq=match.group("seq"),
        ack=match.group("ack"),
        payload_len=int(match.group("plen")),
    )


#: QUIC packet types (paper: "QUIC provides 7 packet types").
QUIC_PACKET_TYPES = (
    "INITIAL",
    "HANDSHAKE",
    "SHORT",
    "ZERO_RTT",
    "RETRY",
    "VERSION_NEGOTIATION",
    "STATELESS_RESET",
)

#: QUIC frame types (paper: "20 frame types", RFC 9000 section 12.4).
QUIC_FRAME_TYPES = (
    "PADDING",
    "PING",
    "ACK",
    "RESET_STREAM",
    "STOP_SENDING",
    "CRYPTO",
    "NEW_TOKEN",
    "STREAM",
    "MAX_DATA",
    "MAX_STREAM_DATA",
    "MAX_STREAMS",
    "DATA_BLOCKED",
    "STREAM_DATA_BLOCKED",
    "STREAMS_BLOCKED",
    "NEW_CONNECTION_ID",
    "RETIRE_CONNECTION_ID",
    "PATH_CHALLENGE",
    "PATH_RESPONSE",
    "CONNECTION_CLOSE",
    "HANDSHAKE_DONE",
)


@dataclass(frozen=True, order=True)
class QUICSymbol(AbstractSymbol):
    """A QUIC abstract symbol such as ``INITIAL(?,?)[ACK,CRYPTO]``.

    ``packet_type`` is one of :data:`QUIC_PACKET_TYPES`; ``frames`` is the
    tuple of frame-type names carried by the packet, in canonical (sorted)
    order; ``version`` and ``packet_number`` are ``"?"`` placeholders unless a
    richer abstraction pins them to concrete values.
    """

    __hash__ = AbstractSymbol.__hash__

    packet_type: str = "INITIAL"
    frames: tuple[str, ...] = ()
    version: str = "?"
    packet_number: str = "?"

    @classmethod
    def make(
        cls,
        packet_type: str,
        frames: Iterable[str],
        version: str | int = "?",
        packet_number: str | int = "?",
    ) -> "QUICSymbol":
        """Build a canonical symbol, validating packet and frame types."""
        packet_type = packet_type.upper()
        if packet_type not in QUIC_PACKET_TYPES:
            raise SymbolError(f"unknown QUIC packet type: {packet_type!r}")
        frame_tuple = tuple(sorted(f.upper() for f in frames))
        unknown = set(frame_tuple) - set(QUIC_FRAME_TYPES)
        if unknown:
            raise SymbolError(f"unknown QUIC frame types: {sorted(unknown)}")
        ver, pn = str(version), str(packet_number)
        label = f"{packet_type}({ver},{pn})[{','.join(frame_tuple)}]"
        return cls(
            label=label,
            packet_type=packet_type,
            frames=frame_tuple,
            version=ver,
            packet_number=pn,
        )


_QUIC_SYMBOL_RE = re.compile(
    r"^(?P<ptype>[A-Z_]+)\((?P<ver>[^,]+),(?P<pn>[^)]+)\)\[(?P<frames>[A-Z_,]*)\]$"
)


@lru_cache(maxsize=SYMBOL_MEMO_SIZE)
def parse_quic_symbol(text: str) -> QUICSymbol:
    """Parse a paper-style QUIC symbol, e.g. ``SHORT(?,?)[ACK,STREAM]``."""
    match = _QUIC_SYMBOL_RE.match(text.strip())
    if match is None:
        raise SymbolError(f"malformed QUIC symbol: {text!r}")
    frames = [f for f in match.group("frames").split(",") if f]
    return QUICSymbol.make(
        match.group("ptype"),
        frames,
        version=match.group("ver"),
        packet_number=match.group("pn"),
    )


@dataclass(frozen=True, order=True)
class QUICOutput(AbstractSymbol):
    """An abstract QUIC *output*: the multiset of packets sent in response.

    The appendix models render outputs as ``{HANDSHAKE(?,?)[CRYPTO],...}``;
    an empty response is ``{}``.  Packets are kept in canonical sorted order
    (with multiplicity) so two equal multisets always compare equal.
    """

    __hash__ = AbstractSymbol.__hash__

    packets: tuple[QUICSymbol, ...] = ()

    @classmethod
    def make(cls, packets: Iterable[QUICSymbol]) -> "QUICOutput":
        ordered = tuple(sorted(packets))
        label = "{" + ",".join(p.label for p in ordered) + "}"
        return cls(label=label, packets=ordered)

    @property
    def is_empty(self) -> bool:
        return not self.packets

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[QUICSymbol]:
        return iter(self.packets)

    def frame_types(self) -> frozenset[str]:
        """All frame types appearing anywhere in the response."""
        return frozenset(f for p in self.packets for f in p.frames)


#: Canonical empty QUIC output, rendered ``{}`` like the appendix figures.
QUIC_EMPTY_OUTPUT = QUICOutput.make(())


@lru_cache(maxsize=SYMBOL_MEMO_SIZE)
def parse_quic_output(text: str) -> QUICOutput:
    """Parse an appendix-style output multiset such as
    ``{HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}``."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise SymbolError(f"malformed QUIC output: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return QUIC_EMPTY_OUTPUT
    # Split on commas that are not inside (...) or [...] groups.
    parts, depth, start = [], 0, 0
    for idx, char in enumerate(body):
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(body[start:idx])
            start = idx + 1
    parts.append(body[start:])
    return QUICOutput.make(parse_quic_symbol(part) for part in parts)


#: HTTP/2 frame types (RFC 9113 section 6).
HTTP2_FRAME_KINDS = (
    "DATA",
    "HEADERS",
    "PRIORITY",
    "RST_STREAM",
    "SETTINGS",
    "PUSH_PROMISE",
    "PING",
    "GOAWAY",
    "WINDOW_UPDATE",
    "CONTINUATION",
)

#: HTTP/2 frame flag names the abstraction renders (RFC 9113 section 6).
HTTP2_FLAG_NAMES = ("ACK", "END_HEADERS", "END_STREAM", "PADDED", "PRIORITY")


@dataclass(frozen=True, order=True)
class HTTP2Symbol(AbstractSymbol):
    """An HTTP/2 abstract symbol such as ``HEADERS[END_HEADERS,END_STREAM]``.

    ``kind`` is one of :data:`HTTP2_FRAME_KINDS`; ``flags`` is the tuple of
    set flag names in canonical (sorted) order.  Stream identifiers and
    payloads are abstracted away -- they live in the Oracle Table's concrete
    parameters, where the stream-id monotonicity check reads them back.
    """

    __hash__ = AbstractSymbol.__hash__

    kind: str = "PING"
    flags: tuple[str, ...] = ()

    @classmethod
    def make(cls, kind: str, flags: Iterable[str] = ()) -> "HTTP2Symbol":
        """Build a canonical symbol, validating frame kind and flag names."""
        kind = kind.upper()
        if kind not in HTTP2_FRAME_KINDS:
            raise SymbolError(f"unknown HTTP/2 frame kind: {kind!r}")
        flag_tuple = tuple(sorted(f.upper() for f in flags))
        unknown = set(flag_tuple) - set(HTTP2_FLAG_NAMES)
        if unknown:
            raise SymbolError(f"unknown HTTP/2 frame flags: {sorted(unknown)}")
        label = f"{kind}[{','.join(flag_tuple)}]"
        return cls(label=label, kind=kind, flags=flag_tuple)


_HTTP2_SYMBOL_RE = re.compile(r"^(?P<kind>[A-Z_]+)\[(?P<flags>[A-Z_,]*)\]$")


@lru_cache(maxsize=SYMBOL_MEMO_SIZE)
def parse_http2_symbol(text: str) -> HTTP2Symbol:
    """Parse an HTTP/2 frame symbol, e.g. ``SETTINGS[ACK]`` or ``DATA[]``."""
    match = _HTTP2_SYMBOL_RE.match(text.strip())
    if match is None:
        raise SymbolError(f"malformed HTTP/2 symbol: {text!r}")
    flags = [f for f in match.group("flags").split(",") if f]
    return HTTP2Symbol.make(match.group("kind"), flags)


@dataclass(frozen=True, order=True)
class HTTP2Output(AbstractSymbol):
    """An abstract HTTP/2 *output*: the frame sequence sent in response.

    Unlike :class:`QUICOutput` (a multiset of independent packets), frame
    order on the HTTP/2 byte stream is meaningful, so the sequence is kept
    as received and rendered ``HEADERS[END_HEADERS]+DATA[END_STREAM]``;
    an empty response is ``NIL``.
    """

    __hash__ = AbstractSymbol.__hash__

    frames: tuple[HTTP2Symbol, ...] = ()

    @classmethod
    def make(cls, frames: Iterable[HTTP2Symbol]) -> "HTTP2Output":
        ordered = tuple(frames)
        label = "+".join(f.label for f in ordered) or "NIL"
        return cls(label=label, frames=ordered)

    @property
    def is_empty(self) -> bool:
        return not self.frames

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[HTTP2Symbol]:
        return iter(self.frames)

    def kinds(self) -> tuple[str, ...]:
        """The frame kinds in response order."""
        return tuple(f.kind for f in self.frames)


#: Canonical empty HTTP/2 output, rendered ``NIL``.
HTTP2_EMPTY_OUTPUT = HTTP2Output.make(())


@lru_cache(maxsize=SYMBOL_MEMO_SIZE)
def parse_http2_output(text: str) -> HTTP2Output:
    """Parse a rendered frame sequence such as
    ``HEADERS[END_HEADERS]+DATA[END_STREAM]`` (or ``NIL``)."""
    text = text.strip()
    if text == "NIL":
        return HTTP2_EMPTY_OUTPUT
    return HTTP2Output.make(parse_http2_symbol(part) for part in text.split("+"))


#: HTTP/3 abstract frame kinds (RFC 9114 section 7.2) plus ``RST`` for a
#: QUIC-level stream reset and ``CANCEL``, the client's abstract request
#: cancellation (concretized as RESET_STREAM with H3_REQUEST_CANCELLED).
H3_FRAME_KINDS = (
    "SETTINGS",
    "HEADERS",
    "DATA",
    "GOAWAY",
    "CANCEL",
    "RST",
    "CANCEL_PUSH",
    "MAX_PUSH_ID",
    "PUSH_PROMISE",
)


@dataclass(frozen=True, order=True)
class H3Symbol(AbstractSymbol):
    """An HTTP/3 abstract symbol such as ``HEADERS[FIN]``.

    HTTP/3 frames carry no flags -- end-of-message is the QUIC stream's
    FIN bit -- so the only modifier is ``fin``, rendered ``KIND[FIN]``.
    Stream identifiers live in the Oracle Table's concrete parameters,
    exactly as for HTTP/2.
    """

    __hash__ = AbstractSymbol.__hash__

    kind: str = "SETTINGS"
    fin: bool = False

    @classmethod
    def make(cls, kind: str, fin: bool = False) -> "H3Symbol":
        """Build a canonical symbol, validating the frame kind."""
        kind = kind.upper()
        if kind not in H3_FRAME_KINDS:
            raise SymbolError(f"unknown HTTP/3 frame kind: {kind!r}")
        label = f"{kind}[FIN]" if fin else kind
        return cls(label=label, kind=kind, fin=fin)


_H3_SYMBOL_RE = re.compile(r"^(?P<kind>[A-Z_]+)(?P<fin>\[FIN\])?$")


@lru_cache(maxsize=SYMBOL_MEMO_SIZE)
def parse_h3_symbol(text: str) -> H3Symbol:
    """Parse an HTTP/3 frame symbol, e.g. ``HEADERS[FIN]`` or ``GOAWAY``."""
    match = _H3_SYMBOL_RE.match(text.strip())
    if match is None:
        raise SymbolError(f"malformed HTTP/3 symbol: {text!r}")
    return H3Symbol.make(match.group("kind"), fin=match.group("fin") is not None)


@dataclass(frozen=True, order=True)
class H3Output(AbstractSymbol):
    """An abstract HTTP/3 *output*: per-stream frame sequences.

    QUIC streams are independent, so -- unlike :class:`HTTP2Output`'s
    single ordered sequence -- a response is a *multiset of streams*,
    each an ordered frame sequence.  Rendered as the sorted, braced form
    ``{HEADERS+DATA[FIN],SETTINGS}``; an empty response is ``{}``.
    """

    __hash__ = AbstractSymbol.__hash__

    streams: tuple[tuple[H3Symbol, ...], ...] = ()

    @classmethod
    def make(cls, streams: Iterable[Iterable[H3Symbol]]) -> "H3Output":
        canonical = tuple(
            sorted(
                (tuple(stream) for stream in streams),
                key=lambda s: "+".join(f.label for f in s),
            )
        )
        label = (
            "{"
            + ",".join("+".join(f.label for f in s) for s in canonical)
            + "}"
        )
        return cls(label=label, streams=canonical)

    @property
    def is_empty(self) -> bool:
        return not self.streams

    def __len__(self) -> int:
        return len(self.streams)

    def __iter__(self) -> Iterator[tuple[H3Symbol, ...]]:
        return iter(self.streams)

    def kinds(self) -> tuple[tuple[str, ...], ...]:
        """Frame kinds per stream, in canonical stream order."""
        return tuple(tuple(f.kind for f in s) for s in self.streams)


#: Canonical empty HTTP/3 output, rendered ``{}``.
H3_EMPTY_OUTPUT = H3Output.make(())


@lru_cache(maxsize=SYMBOL_MEMO_SIZE)
def parse_h3_output(text: str) -> H3Output:
    """Parse a rendered stream multiset such as ``{HEADERS+DATA[FIN]}``."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise SymbolError(f"malformed HTTP/3 output: {text!r}")
    body = text[1:-1]
    if not body:
        return H3_EMPTY_OUTPUT
    return H3Output.make(
        tuple(parse_h3_symbol(part) for part in item.split("+"))
        for item in body.split(",")
    )


@dataclass(frozen=True)
class Alphabet:
    """An ordered, indexable collection of abstract symbols."""

    symbols: tuple[AbstractSymbol, ...]
    _index: dict[AbstractSymbol, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise SymbolError("alphabet contains duplicate symbols")
        object.__setattr__(
            self, "_index", {sym: i for i, sym in enumerate(self.symbols)}
        )

    @classmethod
    def of(cls, symbols: Sequence[AbstractSymbol]) -> "Alphabet":
        return cls(symbols=tuple(symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[AbstractSymbol]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def __getitem__(self, index: int) -> AbstractSymbol:
        return self.symbols[index]

    def index(self, symbol: AbstractSymbol) -> int:
        """Position of ``symbol`` in the alphabet (raises if absent)."""
        try:
            return self._index[symbol]
        except KeyError:
            raise SymbolError(f"symbol not in alphabet: {symbol}") from None


_SYMBOL_PARSERS = {
    "tcp": parse_tcp_symbol,
    "quic": parse_quic_symbol,
    "quic-output": parse_quic_output,
    "http2": parse_http2_symbol,
    "http2-output": parse_http2_output,
    "h3": parse_h3_symbol,
    "h3-output": parse_h3_output,
    "raw": lambda text: AbstractSymbol(label=text),
}

#: The kind of each built-in symbol class, in ``_SYMBOL_PARSERS`` order.
_SYMBOL_KINDS = dict(
    zip([TCPSymbol, QUICSymbol, QUICOutput, HTTP2Symbol, HTTP2Output, H3Symbol, H3Output],
        _SYMBOL_PARSERS)
)


def serialize_symbol(symbol: AbstractSymbol) -> dict:
    """A JSON-able ``{"kind", "text"}`` encoding of an abstract symbol.

    The ``text`` is the symbol's canonical label (exactly what the paper
    prints), so serialized models stay human-readable; ``kind`` picks the
    parser that reconstructs the structured symbol.
    """
    kind = _SYMBOL_KINDS.get(type(symbol)) or next(
        (kind for cls, kind in _SYMBOL_KINDS.items() if isinstance(symbol, cls)), "raw")
    return {"kind": kind, "text": symbol.label}


def _reduce_symbol(symbol: AbstractSymbol) -> tuple:
    """A built-in symbol pickles as its parser and label: it unpickles interned."""
    return _SYMBOL_PARSERS[_SYMBOL_KINDS[type(symbol)]], (symbol.label,)


# Registered per exact class: raw symbols and subclasses pickle by value.
for _symbol_class in _SYMBOL_KINDS:
    copyreg.pickle(_symbol_class, _reduce_symbol)


def deserialize_symbol(data: Mapping) -> AbstractSymbol:
    """Inverse of :func:`serialize_symbol`."""
    try:
        kind, text = data["kind"], data["text"]
    except (KeyError, TypeError):
        raise SymbolError(f"malformed serialized symbol: {data!r}") from None
    if not isinstance(text, str):
        raise SymbolError(f"serialized symbol text is not a string: {data!r}")
    try:
        parser = _SYMBOL_PARSERS[kind]
    except KeyError:
        raise SymbolError(f"unknown serialized symbol kind: {kind!r}") from None
    return parser(text)


def tcp_alphabet() -> Alphabet:
    """The 7-symbol TCP abstract input alphabet of section 6.1."""
    return Alphabet.of(
        [
            parse_tcp_symbol("SYN(?,?,0)"),
            parse_tcp_symbol("ACK+SYN(?,?,0)"),
            parse_tcp_symbol("ACK(?,?,0)"),
            parse_tcp_symbol("ACK+PSH(?,?,1)"),
            parse_tcp_symbol("ACK+FIN(?,?,0)"),
            parse_tcp_symbol("RST(?,?,0)"),
            parse_tcp_symbol("ACK+RST(?,?,0)"),
        ]
    )


def tcp_handshake_alphabet() -> Alphabet:
    """The 2-symbol alphabet used to learn the 3-way handshake (Fig. 3)."""
    return Alphabet.of(
        [parse_tcp_symbol("SYN(?,?,0)"), parse_tcp_symbol("ACK(?,?,0)")]
    )


def http2_alphabet() -> Alphabet:
    """The 7-symbol HTTP/2 abstract input alphabet.

    Mirrors the size of the paper's TCP and QUIC alphabets: the connection
    handshake (SETTINGS), a complete request, an open request plus its
    final body chunk, stream cancellation, liveness, and shutdown.
    """
    return Alphabet.of(
        [
            parse_http2_symbol("SETTINGS[]"),
            parse_http2_symbol("HEADERS[END_HEADERS,END_STREAM]"),
            parse_http2_symbol("HEADERS[END_HEADERS]"),
            parse_http2_symbol("DATA[END_STREAM]"),
            parse_http2_symbol("RST_STREAM[]"),
            parse_http2_symbol("PING[]"),
            parse_http2_symbol("GOAWAY[]"),
        ]
    )


def h3_alphabet() -> Alphabet:
    """The 7-symbol HTTP/3 abstract input alphabet.

    Same shape as the HTTP/2 alphabet -- handshake (SETTINGS), complete
    and open requests, body completion, cancellation, shutdown -- but
    framed in HTTP/3 terms: no flags, FIN is the QUIC stream bit, and
    liveness (PING) has no HTTP/3 frame, its place taken by a bare DATA.
    """
    return Alphabet.of(
        [
            parse_h3_symbol("SETTINGS"),
            parse_h3_symbol("HEADERS[FIN]"),
            parse_h3_symbol("HEADERS"),
            parse_h3_symbol("DATA"),
            parse_h3_symbol("DATA[FIN]"),
            parse_h3_symbol("CANCEL"),
            parse_h3_symbol("GOAWAY"),
        ]
    )


def quic_alphabet() -> Alphabet:
    """The 7-symbol QUIC abstract input alphabet of section 6.2.2."""
    return Alphabet.of(
        [
            parse_quic_symbol("INITIAL(?,?)[CRYPTO]"),
            parse_quic_symbol("INITIAL(?,?)[ACK,HANDSHAKE_DONE]"),
            parse_quic_symbol("HANDSHAKE(?,?)[ACK,CRYPTO]"),
            parse_quic_symbol("HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"),
            parse_quic_symbol("SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]"),
            parse_quic_symbol("SHORT(?,?)[ACK,STREAM]"),
            parse_quic_symbol("SHORT(?,?)[ACK,HANDSHAKE_DONE]"),
        ]
    )
