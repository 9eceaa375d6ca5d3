"""Interned symbol decoding and label hashing (:mod:`repro.core.alphabet`).

Each text parser is a bounded memo, so decoding a label returns the very
object the alphabet factories hold, and every symbol class hashes by its
label.  Malformed text must still raise on every call, and a warm start
from the store or a corpus must learn the model a cold learn does.
"""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import alphabet
from repro.core.alphabet import (
    H3_FRAME_KINDS,
    HTTP2_FLAG_NAMES,
    HTTP2_FRAME_KINDS,
    QUIC_FRAME_TYPES,
    QUIC_PACKET_TYPES,
    AbstractSymbol,
    H3Output,
    H3Symbol,
    HTTP2Output,
    HTTP2Symbol,
    QUICOutput,
    QUICSymbol,
    SymbolError,
    TCPSymbol,
    deserialize_symbol,
    h3_alphabet,
    http2_alphabet,
    quic_alphabet,
    serialize_symbol,
    tcp_alphabet,
)
from repro.framework import Prognosis
from repro.learn.bulk import record_full_corpus
from repro.spec import CorpusSpec, ExperimentSpec, StoreSpec

PARSERS = (
    alphabet.parse_tcp_symbol,
    alphabet.parse_quic_symbol,
    alphabet.parse_quic_output,
    alphabet.parse_http2_symbol,
    alphabet.parse_http2_output,
    alphabet.parse_h3_symbol,
    alphabet.parse_h3_output,
)


def _subsets(names):
    return st.lists(st.sampled_from(names), max_size=3, unique=True)


placeholders = st.sampled_from(["?", 0, 1])
tcp_symbols = st.builds(
    TCPSymbol.make,
    st.lists(st.sampled_from(TCPSymbol._FLAG_ORDER), min_size=1, max_size=2, unique=True),
    placeholders,
    placeholders,
    st.integers(0, 1),
)
quic_symbols = st.builds(
    QUICSymbol.make,
    st.sampled_from(QUIC_PACKET_TYPES[:3]),
    _subsets(QUIC_FRAME_TYPES[:6]),
    placeholders,
    placeholders,
)
http2_symbols = st.builds(
    HTTP2Symbol.make, st.sampled_from(HTTP2_FRAME_KINDS[:4]), _subsets(HTTP2_FLAG_NAMES)
)
h3_symbols = st.builds(H3Symbol.make, st.sampled_from(H3_FRAME_KINDS[:4]), st.booleans())
symbols = st.one_of(
    st.builds(AbstractSymbol, st.sampled_from(["a", "b"])),
    tcp_symbols,
    quic_symbols,
    st.builds(QUICOutput.make, st.lists(quic_symbols, max_size=2)),
    http2_symbols,
    st.builds(HTTP2Output.make, st.lists(http2_symbols, max_size=2)),
    h3_symbols,
    st.builds(
        H3Output.make,
        st.lists(st.lists(h3_symbols, min_size=1, max_size=2), max_size=2),
    ),
)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


@pytest.mark.parametrize(
    "factory", [tcp_alphabet, http2_alphabet, h3_alphabet, quic_alphabet]
)
def test_decoding_returns_the_alphabets_own_symbols(factory):
    for symbol in factory():
        assert deserialize_symbol(serialize_symbol(symbol)) is symbol


@settings(max_examples=300, deadline=None)
@given(symbols, symbols)
def test_equal_symbols_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    copy = dataclasses.replace(a)
    assert copy == a and copy is not a
    assert hash(copy) == hash(a) == hash(a.label)
    decoded = deserialize_symbol(serialize_symbol(a))
    assert decoded == a and hash(decoded) == hash(a)


def test_every_symbol_class_hashes_by_label():
    classes = list(_all_subclasses(AbstractSymbol))
    assert len(classes) >= 7
    for cls in classes:
        assert cls.__hash__ is AbstractSymbol.__hash__, cls.__name__


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "tcp", "text": "SYN(?,?"},
        {"kind": "quic", "text": "INITIAL(?,?)[NOT_A_FRAME]"},
        {"kind": "quic-output", "text": "INITIAL(?,?)[CRYPTO]"},
        {"kind": "http2", "text": "SETTINGS"},
        {"kind": "http2-output", "text": "SETTINGS[]+PING"},
        {"kind": "h3", "text": "settings"},
        {"kind": "h3-output", "text": "{SETTINGS+BOGUS}"},
    ],
)
def test_malformed_text_raises_on_every_call(data):
    for _ in range(2):
        with pytest.raises(SymbolError):
            deserialize_symbol(data)


@pytest.mark.parametrize("text", [5, ["SYN(?,?,0)"], None, {"a": 1}])
@pytest.mark.parametrize("kind", ["tcp", "raw"])
def test_non_string_text_is_a_symbol_error(kind, text):
    with pytest.raises(SymbolError, match="not a string"):
        deserialize_symbol({"kind": kind, "text": text})


def test_every_parser_memo_is_bounded():
    for parser in PARSERS:
        maxsize = parser.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= alphabet.SYMBOL_MEMO_SIZE


@pytest.mark.parametrize("target", ["http2", "quic-quiche"])
def test_warm_starts_learn_the_cold_model(target, tmp_path):
    spec = ExperimentSpec(target=target, target_params={"seed": 11}, seed=11)
    stored = spec.clone(store=StoreSpec(path=str(tmp_path / "store.sqlite")))
    corpus = tmp_path / "corpus.jsonl"
    assert record_full_corpus(spec, corpus) > 0
    reports = []
    for run in (stored, stored, spec.clone(corpus=CorpusSpec(path=str(corpus)))):
        with Prognosis.from_spec(run) as prognosis:
            reports.append(prognosis.learn())
    cold, warm, seeded = reports
    assert cold.sul_queries > 0
    assert warm.sul_queries == seeded.sul_queries == 0
    dicts = [json.dumps(r.model.to_dict(), sort_keys=True) for r in reports]
    assert dicts[0] == dicts[1] == dicts[2]


#: One interned symbol of each of the seven built-in kinds.
INTERNED = [
    alphabet.parse_tcp_symbol("ACK+SYN(?,?,0)"),
    alphabet.parse_quic_symbol("INITIAL(?,?)[CRYPTO]"),
    alphabet.parse_quic_output("{HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}"),
    alphabet.parse_http2_symbol("HEADERS[END_HEADERS,END_STREAM]"),
    alphabet.parse_http2_output("HEADERS[END_HEADERS]+DATA[END_STREAM]"),
    alphabet.parse_h3_symbol("HEADERS[FIN]"),
    alphabet.parse_h3_output("{HEADERS+DATA[FIN],SETTINGS}"),
]


@dataclasses.dataclass(frozen=True, order=True)
class _TaggedTCPSymbol(TCPSymbol):
    """A caller's subclass: not a built-in kind, so it pickles by value."""

    __hash__ = AbstractSymbol.__hash__

    tag: str = ""


def test_interned_cover_every_builtin_kind():
    assert {type(symbol) for symbol in INTERNED} == set(alphabet._SYMBOL_KINDS)


@pytest.mark.parametrize("symbol", INTERNED, ids=lambda symbol: type(symbol).__name__)
def test_pickling_and_copying_return_the_interned_symbol(symbol):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(symbol, protocol)) is symbol
    assert copy.deepcopy(symbol) is symbol
    assert copy.copy(symbol) is symbol
    rebuilt = dataclasses.replace(symbol)
    assert rebuilt is not symbol and pickle.loads(pickle.dumps(rebuilt)) is symbol


@pytest.mark.parametrize(
    "symbol",
    [AbstractSymbol("BOGUS"), _TaggedTCPSymbol(label="SYN(?,?,0)", flags=("SYN",), tag="t")],
    ids=["raw", "subclass"],
)
def test_other_symbols_pickle_by_value(symbol):
    for copied in (pickle.loads(pickle.dumps(symbol)), copy.deepcopy(symbol)):
        assert type(copied) is type(symbol)
        assert dataclasses.astuple(copied) == dataclasses.astuple(symbol)


def test_a_subclass_still_serializes_as_its_builtin_kind():
    symbol = _TaggedTCPSymbol(label="SYN(?,?,0)", flags=("SYN",))
    assert serialize_symbol(symbol) == {"kind": "tcp", "text": "SYN(?,?,0)"}
