"""Parity of the prefix-shared walks with the per-word code they replace.

The cache answers a batch with one walk that resumes each word from the
previous word's trie path, the equivalence oracles predict a batch with
one :meth:`MealyMachine.run_all` walk, seed sources are bits on the one
trie instead of tries of their own, and the W-method suite is built over
alphabet ranks.  The pre-change bodies are kept below, verbatim, as the
references every new path must match -- on random machines, random seed
sets and batches (the empty word, empty sources, words held by two
sources, equal but non-identical symbols) and the pinned perfbench
models.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter.mealy_sul import MealySUL
from repro.core.alphabet import Alphabet, TCPSymbol, parse_tcp_symbol
from repro.core.mealy import MealyError, MealyMachine
from repro.core.trace import EPSILON, Word
from repro.learn.cache import (
    CacheInconsistencyError,
    CachedMembershipOracle,
    QueryCache,
    _drop_covered_prefixes,
)
from repro.learn.teacher import OracleStats, SULMembershipOracle

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
FIN = TCPSymbol.make(["FIN"])
SYMBOLS = [SYN, ACK, FIN]
OUTPUTS = [
    TCPSymbol.make(["ACK", "SYN"]),
    parse_tcp_symbol("NIL"),
    parse_tcp_symbol("RST(?,?,0)"),
]
#: Not in any machine's alphabet: a word holding it has no run.
FOREIGN = TCPSymbol.make(["PSH"])


# ---------------------------------------------------------------------------
# References: the pre-change bodies, verbatim
# ---------------------------------------------------------------------------

def reference_w_method_suite(self, extra_states: int = 0) -> list[Word]:
    """``MealyMachine.w_method_suite`` before the suite was built over ranks."""
    cover = [EPSILON] + self.transition_cover()
    w_set = self.characterization_set()
    middles: list[Word] = [EPSILON]
    frontier: list[Word] = [EPSILON]
    for _ in range(extra_states):
        frontier = [m + (a,) for m in frontier for a in self.input_alphabet]
        middles.extend(frontier)
    suite = {p + m + w for p in cover for m in middles for w in w_set}
    suite.discard(EPSILON)
    return sorted(suite)


class ReferenceCache:
    """The ``cache`` layer before seed sources became trie bits: one
    :class:`QueryCache` per source, and a second walk per source for every
    hit (``seed``, ``_keep``, ``_count_hits``, ``query`` and
    ``query_batch`` verbatim)."""

    def __init__(self, inner, collapse_prefixes: bool = True) -> None:
        self.inner = inner
        self.input_alphabet = inner.input_alphabet
        self.cache = QueryCache()
        self.stats = OracleStats()
        self.collapse_prefixes = collapse_prefixes
        self.hits = 0
        self.misses = 0
        self.batch_deduped = 0
        self.prefix_collapsed = 0
        self.seeds: dict[str, QueryCache] = {}
        self.hits_by_source: dict[str, int] = {}
        self.store = None
        self.fingerprint = ""

    def seed(self, name, observations) -> None:
        trie = QueryCache()
        for word, outputs in observations:
            self._keep(word, outputs)
            trie.insert(word, outputs)
        self.seeds[name] = trie
        self.hits_by_source[name] = 0

    def seed_from_store(self, store, fingerprint: str) -> None:
        self.store, self.fingerprint = store, fingerprint
        self.seed("store", store.observations(fingerprint))

    def _keep(self, word: Word, outputs: Word) -> None:
        """Insert an observation; with a store, append it if the rows lack it."""
        self.cache.insert(word, outputs)
        stored = self.seeds.get("store")
        if stored is not None and self.store is not None and stored.lookup(word) is None:
            self.store.append(self.fingerprint, word, outputs)

    def _count_hits(self, word: Word, count: int = 1) -> None:
        self.hits += count
        for name, trie in self.seeds.items():
            if trie.lookup(word) is not None:
                self.hits_by_source[name] += count

    def query(self, word) -> Word:
        word = tuple(word)
        self.stats.note(word)
        cached = self.cache.lookup(word)
        if cached is not None:
            self._count_hits(word)
            return cached
        self.misses += 1
        outputs = tuple(self.inner.query(word))
        self._keep(word, outputs)
        return outputs

    def query_batch(self, words) -> list[Word]:
        words = [tuple(word) for word in words]
        for word in words:
            self.stats.note(word)
        results: list[Word | None] = [None] * len(words)

        # 1. Answer what the trie already knows.
        pending: dict[Word, list[int]] = {}
        for index, word in enumerate(words):
            cached = self.cache.lookup(word)
            if cached is not None:
                self._count_hits(word)
                results[index] = cached
            else:
                pending.setdefault(word, []).append(index)
        if not pending:
            return results  # type: ignore[return-value]

        # 2. Dedup within the batch, then collapse words that are prefixes
        #    of other batch members: the longer run answers both.
        unique = list(pending)
        self.batch_deduped += sum(
            len(indices) for indices in pending.values()
        ) - len(unique)
        if self.collapse_prefixes and len(unique) > 1:
            survivors = _drop_covered_prefixes(unique)
            self.prefix_collapsed += len(unique) - len(survivors)
        else:
            survivors = unique

        # 3. One inner batch for the survivors; everything else is answered
        #    from the trie the survivors just populated.
        answers = self.inner.query_batch(survivors)
        for word, outputs in zip(survivors, answers):
            self._keep(word, tuple(outputs))
        executed = set(survivors)
        for word, indices in pending.items():
            outputs = self.cache.lookup(word)
            assert outputs is not None  # survivors cover every pending word
            if word in executed:
                self.misses += 1
                self._count_hits(word, len(indices) - 1)
            else:
                self._count_hits(word, len(indices))
            for index in indices:
                results[index] = outputs
        return results  # type: ignore[return-value]


class RecordingStore:
    """The slice of a query store the cache layer uses: rows and appends."""

    def __init__(self, rows) -> None:
        self.rows = list(rows)
        self.appended: list[tuple[str, Word, Word]] = []

    def observations(self, fingerprint: str):
        return iter(self.rows)

    def append(self, fingerprint: str, word: Word, outputs: Word) -> None:
        self.appended.append((fingerprint, word, outputs))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def machines(draw, symbols=SYMBOLS):
    num_states = draw(st.integers(min_value=1, max_value=5))
    table = {}
    for state in range(num_states):
        for symbol in symbols:
            target = draw(st.integers(min_value=0, max_value=num_states - 1))
            table[(state, symbol)] = (target, draw(st.sampled_from(OUTPUTS)))
    return MealyMachine(0, Alphabet.of(symbols), table, "random")


@st.composite
def words(draw, max_size=5):
    """A word whose symbols are sometimes equal but non-identical copies."""
    word = draw(st.lists(st.sampled_from(SYMBOLS), max_size=max_size))
    twins = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return tuple(copy.copy(s) if twin else s for s, twin in zip(word, twins))


def word_lists(pool, max_size=12):
    """Lists of words drawn from ``pool`` and fresh, some of them sorted."""
    return st.tuples(
        st.lists(st.one_of(st.sampled_from(pool), words()), max_size=max_size),
        st.booleans(),
    ).map(lambda drawn: sorted(drawn[0]) if drawn[1] else drawn[0])


def test_copies_are_equal_but_not_identical():
    twin = copy.copy(SYN)
    assert twin == SYN and twin is not SYN and hash(twin) == hash(SYN)


# ---------------------------------------------------------------------------
# W-method suite
# ---------------------------------------------------------------------------

@given(machines(), st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_suite_matches_reference_on_random_machines(machine, extra_states):
    assert machine.w_method_suite(extra_states) == reference_w_method_suite(
        machine, extra_states
    )


@pytest.mark.parametrize("extra_states", [0, 1, 2])
@pytest.mark.parametrize(
    "model", sorted(path.stem for path in REFERENCE_DIR.glob("*.json"))
)
def test_suite_matches_reference_on_pinned_models(model, extra_states):
    machine = MealyMachine.from_dict(
        json.loads((REFERENCE_DIR / f"{model}.json").read_text())
    )
    suite = machine.w_method_suite(extra_states)
    assert suite == reference_w_method_suite(machine, extra_states)
    # Decoded into the alphabet's own symbols, so sorted neighbours share
    # prefixes by identity.
    alphabet = {id(symbol) for symbol in machine.input_alphabet}
    assert all(id(symbol) in alphabet for word in suite for symbol in word)


def test_pinned_models_are_all_there():
    assert len(list(REFERENCE_DIR.glob("*.json"))) == 8


# ---------------------------------------------------------------------------
# run_all and lookup_all
# ---------------------------------------------------------------------------

def _until_error(runs):
    """The outputs ``runs`` yields before its first MealyError, and that error."""
    outputs = []
    try:
        for output in runs:
            outputs.append(output)
    except MealyError as error:
        return outputs, str(error)
    return outputs, None


@given(machines(), st.data())
@settings(max_examples=80, deadline=None)
def test_run_all_matches_run(machine, data):
    batch = data.draw(word_lists([EPSILON, (SYN,), (SYN, ACK)]))
    if batch and data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(batch) - 1))
        position = data.draw(st.integers(0, len(batch[index])))
        word = batch[index]
        batch[index] = word[:position] + (FOREIGN,) + word[position:]
    expected = _until_error(machine.run(word) for word in batch)
    assert _until_error(machine.run_all(batch)) == expected


def test_run_all_raises_the_run_error():
    machine = MealyMachine(0, Alphabet.of([SYN]), {(0, SYN): (0, OUTPUTS[0])})
    with pytest.raises(MealyError) as from_run:
        machine.run((SYN, FOREIGN))
    with pytest.raises(MealyError) as from_run_all:
        list(machine.run_all([(SYN,), (SYN, FOREIGN)]))
    assert str(from_run_all.value) == str(from_run.value)


@given(machines(), st.lists(words(), max_size=10), st.data())
@settings(max_examples=80, deadline=None)
def test_lookup_all_matches_lookup(machine, stored, data):
    cache = QueryCache()
    for word in stored:
        cache.insert(word, machine.run(word))
    batch = data.draw(word_lists(stored or [EPSILON]))
    assert cache.lookup_all(batch) == [cache.lookup(word) for word in batch]


# ---------------------------------------------------------------------------
# Seed sources as trie bits
# ---------------------------------------------------------------------------

SOURCES = ("shared", "store", "corpus")


def _layer_state(layer):
    return (
        layer.hits,
        layer.misses,
        layer.batch_deduped,
        layer.prefix_collapsed,
        list(layer.hits_by_source.items()),
        layer.cache.entries,
        layer.cache.nodes,
    )


@given(machines(), st.data())
@settings(max_examples=120, deadline=None)
def test_seeded_accounting_matches_per_source_tries(machine, data):
    pool = data.draw(st.lists(words(), min_size=1, max_size=8)) + [EPSILON]
    names = [name for name in SOURCES if data.draw(st.booleans())]
    seeds = {
        name: [
            (word, machine.run(word))
            for word in data.draw(st.lists(st.sampled_from(pool), max_size=6))
        ]
        for name in names
    }
    layers = []
    for factory in (CachedMembershipOracle, ReferenceCache):
        layer = factory(SULMembershipOracle(MealySUL(machine)))
        for name in names:
            if name == "store":
                layer.seed_from_store(RecordingStore(seeds[name]), "fp")
            else:
                layer.seed(name, iter(seeds[name]))
        layers.append(layer)
    new, old = layers
    assert _layer_state(new) == _layer_state(old)
    assert list(new.seeds) == list(old.seeds)
    for name in names:
        assert new.seeds[name].entries == old.seeds[name].entries
        for word in pool + [(FIN, FIN, FIN, FIN, FIN, FIN)]:
            assert new.seeds[name].lookup(word) == old.seeds[name].lookup(word)

    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            batch = data.draw(word_lists(pool))
            assert new.query_batch(batch) == old.query_batch(batch)
        else:
            word = data.draw(st.sampled_from(pool) | words())
            assert new.query(word) == old.query(word)
        assert _layer_state(new) == _layer_state(old)
    if "store" in names:
        assert new.store.appended == old.store.appended


def test_epsilon_and_an_empty_source_count_for_every_source(toy_machine, ab_alphabet):
    syn, ack = ab_alphabet.symbols
    layer = CachedMembershipOracle(SULMembershipOracle(MealySUL(toy_machine)))
    layer.seed("shared", [((syn, ack), toy_machine.run((syn, ack)))])
    layer.seed("corpus", [])
    assert layer.query_batch([(), (syn,), (ack,)])[0] == ()
    assert layer.hits_by_source == {"shared": 2, "corpus": 1}
    assert layer.seeds["corpus"].lookup(()) == ()
    assert layer.seeds["corpus"].lookup((syn,)) is None
    assert layer.seeds["corpus"].entries == 0


def test_a_word_held_by_two_sources_counts_for_both(toy_machine, ab_alphabet):
    syn, ack = ab_alphabet.symbols
    observation = ((syn, ack), toy_machine.run((syn, ack)))
    store = RecordingStore([observation])
    layer = CachedMembershipOracle(SULMembershipOracle(MealySUL(toy_machine)))
    layer.seed("shared", [observation])
    layer.seed_from_store(store, "fp")
    layer.seed("corpus", [observation, ((ack,), toy_machine.run((ack,)))])
    layer.query_batch([(syn,), (ack,)])
    assert layer.hits_by_source == {"shared": 1, "store": 1, "corpus": 2}
    # Only the corpus word the store rows lack is appended back.
    assert store.appended == [("fp", (ack,), toy_machine.run((ack,)))]
    assert [view.entries for view in layer.seeds.values()] == [1, 1, 2]


def _conflict(seed):
    """``seed()``'s CacheInconsistencyError as comparable values, or None."""
    try:
        seed()
    except CacheInconsistencyError as error:
        return error.word, error.cached, error.fresh
    return None


@given(machines(), machines(), st.data())
@settings(max_examples=120, deadline=None)
def test_seeding_raises_the_reference_conflict(first, second, data):
    """Rows of two machines, sorted like store rows so neighbours share
    prefixes: the resumed insert must raise on the same word, at the same
    symbol, as a walk from the root."""
    rows = sorted(
        (word, machine.run(word))
        for machine, word in data.draw(
            st.lists(st.tuples(st.sampled_from([first, second]), words()), max_size=8)
        )
    )
    new = CachedMembershipOracle(SULMembershipOracle(MealySUL(first)))
    old = ReferenceCache(SULMembershipOracle(MealySUL(first)))
    assert _conflict(lambda: new.seed("store", rows)) == _conflict(
        lambda: old.seed("store", rows)
    )


def test_a_conflict_on_a_shared_prefix_raises(ab_alphabet, out_symbols):
    syn, ack = ab_alphabet.symbols
    synack, nil = out_symbols
    layer = CachedMembershipOracle(SULMembershipOracle(MealySUL(
        MealyMachine(0, ab_alphabet, {(0, syn): (0, synack), (0, ack): (0, nil)})
    )))
    with pytest.raises(CacheInconsistencyError) as raised:
        layer.seed("store", [((syn,), (synack,)), ((syn, ack), (nil, nil))])
    assert (raised.value.cached, raised.value.fresh) == (synack, nil)


def test_a_short_row_after_a_shared_prefix_is_a_value_error():
    layer = CachedMembershipOracle(SULMembershipOracle(MealySUL(
        MealyMachine(0, Alphabet.of([SYN]), {(0, SYN): (0, OUTPUTS[0])})
    )))
    rows = [((SYN, SYN), OUTPUTS[:1] * 2), ((SYN, SYN, SYN), OUTPUTS[:1])]
    with pytest.raises(ValueError, match="3 inputs has 1 outputs"):
        layer.seed("store", rows)
