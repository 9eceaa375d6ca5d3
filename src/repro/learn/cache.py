"""A prefix-tree query cache (the Oracle-Table optimization of section 3.2).

Active learners re-ask heavily overlapping queries; because a deterministic
SUL's responses are prefix-closed, a trie of past observations answers any
query that is a prefix of (or equal to) something already asked.  The cache
also *detects* nondeterminism for free: a cached output conflicting with a
fresh observation can only mean the SUL (or the abstraction) is not
deterministic.

:meth:`CachedMembershipOracle.query_batch` additionally acts as the batch
*planner*: it dedups repeated words within a batch, answers trie hits
without touching the SUL, and collapses words that are prefixes of other
batch members -- prefix-closure means a single SUL run of the longer word
answers both.  Only the surviving words are forwarded to the inner oracle
(majority vote, SUL pool, ...) in one batch.

The layer is the framework's only query cache.  Observations from outside
the run -- a campaign's shared trie, a persistent store's rows, a bulk
trace corpus -- are *seed sources* of the same layer, each with its own
hit count; a store also receives the run's fresh observations.  A source
is one bit on the nodes of the one trie, not a trie of its own: seeding
inserts each observation once, marking its path, and the bits on a hit's
final node say which sources held the word.  This
module only sees the store through its ``observations``/``append``/
``record_usage``/``close`` methods, so it stays importable by
:mod:`repro.store`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..core.alphabet import AbstractSymbol, Alphabet
from ..core.trace import Word
from ..registry import MIDDLEWARE_REGISTRY
from .teacher import MembershipOracle, OracleStats


class CacheInconsistencyError(Exception):
    """A fresh observation contradicts the cache: nondeterminism."""

    def __init__(self, word: Word, cached: AbstractSymbol, fresh: AbstractSymbol):
        self.word = word
        self.cached = cached
        self.fresh = fresh
        rendered = " ".join(str(symbol) for symbol in word)
        super().__init__(
            f"nondeterministic SUL: on {rendered} cache says {cached}, SUL says {fresh}"
        )


#: ``_TrieNode.terminal`` bit of every stored word; seed sources take the
#: higher bits (``2, 4, 8, ...``).
_STORED = 1


@dataclass(slots=True)
class _TrieNode:
    children: dict = field(default_factory=dict)  # symbol -> (output, _TrieNode)
    #: ``_STORED`` when a stored word ends exactly here, plus the bit of
    #: each seed source holding that word.
    terminal: int = 0
    #: Bits of the seed sources with an observation through this node.
    sources: int = 0


class QueryCache:
    """The trie itself, usable standalone (also backs the EQ oracles).

    ``entries`` counts *stored words* (queries whose full observation was
    inserted); ``nodes`` counts trie nodes, i.e. the number of distinct
    (word-prefix, output) steps held.  Earlier versions conflated the two.

    :meth:`lookup_all` and :meth:`insert_all` walk sorted word lists once
    per distinct prefix: each word resumes from the previous word's path
    for as long as its symbols are the *identical* objects (interned
    symbols always are).  An equal but distinct symbol only ends the
    sharing there; the rest of the word is looked up as usual.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self.entries = 0
        self.nodes = 0

    def lookup(self, word: Sequence[AbstractSymbol]) -> Word | None:
        """Cached outputs for ``word``, or None on any cache miss."""
        found = self._find(word)
        return None if found is None else found[0]

    def lookup_all(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word | None]:
        """``[lookup(word) for word in words]``, walking shared prefixes once."""
        return [None if found is None else found[0] for found in self._find_all(words)]

    def _find(self, word: Sequence[AbstractSymbol]) -> tuple[Word, _TrieNode] | None:
        """``word``'s cached outputs and final node, or None on a miss."""
        node = self._root
        outputs: list[AbstractSymbol] = []
        for symbol in word:
            slot = node.children.get(symbol)
            if slot is None:
                return None
            output, node = slot
            outputs.append(output)
        return tuple(outputs), node

    def _find_all(
        self, words: Iterable[Sequence[AbstractSymbol]]
    ) -> Iterator[tuple[Word, _TrieNode] | None]:
        """:meth:`_find` of each word, resuming from the previous word's path.

        ``path[i]`` is the node after ``previous[:i]`` and ``outputs`` the
        outputs along it.  Inserts between two words only add branches, so
        the saved path stays valid.
        """
        previous: Sequence[AbstractSymbol] = ()
        path = [self._root]
        outputs: list[AbstractSymbol] = []
        for word in words:
            depth, limit = 0, min(len(path) - 1, len(word))
            while depth < limit and word[depth] is previous[depth]:
                depth += 1
            del path[depth + 1 :], outputs[depth:]
            previous, node = word, path[depth]
            for symbol in word[depth:]:
                slot = node.children.get(symbol)
                if slot is None:
                    yield None
                    break
                output, node = slot
                outputs.append(output)
                path.append(node)
            else:
                yield tuple(outputs), node

    def insert(
        self, word: Sequence[AbstractSymbol], outputs: Sequence[AbstractSymbol]
    ) -> _TrieNode:
        """Store an observation; raises on conflicts with cached outputs.

        Returns the word's final node.  A word and outputs of different
        lengths are not an observation and raise :class:`ValueError`.
        """
        return self._insert([self._root], word, outputs, 0)

    def insert_all(
        self, observations: Iterable[tuple[Word, Word]], mark: int
    ) -> Iterator[tuple[Word, Word, _TrieNode, bool]]:
        """Insert each observation of the seed source ``mark``, resuming
        from the previous one's path.

        Yields ``(word, outputs, final node, added)`` after each insert,
        where ``added`` says the source did not hold the word yet.  Every
        node on the path, the root included, gains ``mark`` in its
        ``sources``.
        """
        self._root.sources |= mark
        previous: Word = ()
        previous_outputs: Word = ()
        path = [self._root]
        for word, outputs in observations:
            # A length mismatch walks no shared prefix and fails in _insert.
            depth, limit = 0, min(len(previous), len(word), len(outputs))
            while depth < limit and word[depth] is previous[depth]:
                cached, output = previous_outputs[depth], outputs[depth]
                if cached is not output and cached != output:
                    raise CacheInconsistencyError(tuple(word), cached, output)
                depth += 1
            del path[depth + 1 :]
            node = self._insert(path, word, outputs, mark)
            added = not node.terminal & mark
            node.terminal |= mark
            previous, previous_outputs = word, outputs
            yield word, outputs, node, added

    def _insert(
        self,
        path: list[_TrieNode],
        word: Sequence[AbstractSymbol],
        outputs: Sequence[AbstractSymbol],
        mark: int,
    ) -> _TrieNode:
        """Insert ``word`` below ``path`` (its first ``len(path) - 1``
        symbols already walked), appending the nodes it passes to ``path``
        and marking them with ``mark``; returns the final node.
        """
        if len(word) != len(outputs):
            raise ValueError(
                f"observation of {len(word)} inputs has {len(outputs)} outputs"
            )
        node = path[-1]
        for index in range(len(path) - 1, len(word)):
            symbol, output = word[index], outputs[index]
            slot = node.children.get(symbol)
            if slot is None:
                child = _TrieNode(sources=mark)
                node.children[symbol] = (output, child)
                node = child
                self.nodes += 1
            else:
                cached, node = slot
                if cached is not output and cached != output:
                    raise CacheInconsistencyError(tuple(word), cached, output)
                node.sources |= mark
            path.append(node)
        if not node.terminal & _STORED:
            node.terminal |= _STORED
            self.entries += 1
        return node

    def clear(self) -> None:
        self._root = _TrieNode()
        self.entries = 0
        self.nodes = 0

    def dump(self) -> Iterator[tuple[Word, Word]]:
        """All stored ``(word, outputs)`` observations, depth-first.

        Every trie path ends at a terminal node (inserts mark their end),
        so re-inserting the dumped words into an empty trie reproduces the
        full structure -- the transfer :meth:`merge_from` relies on.
        """
        stack: list[tuple[_TrieNode, Word, Word]] = [(self._root, (), ())]
        while stack:
            node, word, outputs = stack.pop()
            if node.terminal:
                yield word, outputs
            for symbol, (output, child) in node.children.items():
                stack.append((child, word + (symbol,), outputs + (output,)))

    def check_consistent(
        self, word: Sequence[AbstractSymbol], outputs: Sequence[AbstractSymbol]
    ) -> None:
        """Raise :class:`CacheInconsistencyError` if the observation
        conflicts with the trie.  Never mutates; a missing path is fine
        (only *disagreeing* outputs along a shared prefix are conflicts).
        """
        node = self._root
        for symbol, output in zip(word, outputs):
            slot = node.children.get(symbol)
            if slot is None:
                return
            cached_output, node = slot
            if cached_output != output:
                raise CacheInconsistencyError(tuple(word), cached_output, output)

    def merge_from(self, other: "QueryCache") -> None:
        """Absorb every observation stored in ``other``.

        Raises :class:`CacheInconsistencyError` if the two tries disagree
        on any output -- merging observations of *different* SULs is a
        caller bug (or genuine nondeterminism).  The merge is atomic:
        every observation is checked against this trie before any is
        inserted, so a failed merge leaves the destination untouched
        instead of half-poisoned.
        """
        observations = list(other.dump())
        for word, outputs in observations:
            self.check_consistent(word, outputs)
        for word, outputs in observations:
            self.insert(word, outputs)


def _drop_covered_prefixes(words: Sequence[Word]) -> list[Word]:
    """Words from ``words`` that are not proper prefixes of another member.

    One SUL execution of a word also answers every prefix of it, so only
    the maximal words of a (deduplicated) batch need to run.  Order of the
    survivors follows the input order.
    """
    trie: dict = {}
    for word in words:
        node = trie
        for symbol in word:
            node = node.setdefault(symbol, {})
    survivors: list[Word] = []
    for word in words:
        node = trie
        for symbol in word:
            node = node[symbol]
        if not node:  # nothing extends this word: it must run
            survivors.append(word)
    return survivors


class SeedView:
    """One seed source's observations, read from the layer's single trie.

    A word lies inside the source when its final node carries the
    source's bit.  ``entries`` counts the distinct words the source held.
    """

    __slots__ = ("_cache", "bit", "entries")

    def __init__(self, cache: QueryCache, bit: int) -> None:
        self._cache = cache
        self.bit = bit
        self.entries = 0

    def lookup(self, word: Sequence[AbstractSymbol]) -> Word | None:
        """The source's outputs for ``word``, or None if it lacks the word."""
        found = self._cache._find(word)
        if found is None or not found[1].sources & self.bit:
            return None
        return found[0]


@MIDDLEWARE_REGISTRY.register("cache")
class CachedMembershipOracle:
    """Membership oracle layer that answers from the trie when possible.

    ``collapse_prefixes`` toggles the within-batch prefix collapse (kept
    switchable for the ablation benchmark); dedup and trie answering are
    always on.

    Observations from outside this run arrive as named *seed sources*
    (:meth:`seed`).  :func:`repro.spec.assemble` seeds the campaign's
    shared trie (``"shared"``), then the spec's store rows (``"store"``,
    :meth:`seed_from_store`), then the spec's corpus (``"corpus"``).  Each
    source is one bit on the nodes of the one trie, :attr:`seeds` holds a
    read-only :class:`SeedView` per source, and :attr:`hits_by_source`
    counts a hit for a source only when the whole word lies inside that
    source's observations.

    With a store, every observation its rows lack -- fresh SUL answers and
    sources seeded after it -- is appended to it, and :meth:`close` flushes
    and records this session's usage.
    """

    def __init__(self, inner: MembershipOracle, collapse_prefixes: bool = True) -> None:
        self.inner = inner
        self.input_alphabet: Alphabet = inner.input_alphabet
        self.cache = QueryCache()
        self.stats = OracleStats()
        self.collapse_prefixes = collapse_prefixes
        self.hits = 0
        self.misses = 0
        self.batch_deduped = 0
        self.prefix_collapsed = 0
        self.seeds: dict[str, SeedView] = {}
        self.hits_by_source: dict[str, int] = {}
        #: The durable backing (a :class:`~repro.store.query_store.QueryStore`)
        #: and the SUL fingerprint keying its rows, once seeded from a store.
        self.store = None
        self.fingerprint = ""

    # -- seed sources --------------------------------------------------------
    def seed(self, name: str, observations: Iterable[tuple[Word, Word]]) -> None:
        """Answer from ``observations`` too, counting their hits as ``name``'s.

        Seed before the first query.  An observation that contradicts an
        earlier seed raises :class:`CacheInconsistencyError`; a source whose
        conflicts are findings rather than errors filters them out before
        they get here (see :func:`repro.learn.bulk.accept_traces`).
        """
        bit = max((view.bit for view in self.seeds.values()), default=_STORED) << 1
        view = SeedView(self.cache, bit)
        for word, outputs, node, added in self.cache.insert_all(observations, bit):
            view.entries += added
            self._append_if_unstored(word, outputs, node)
        self.seeds[name] = view
        self.hits_by_source[name] = 0

    def seed_from_store(self, store, fingerprint: str) -> None:
        """Seed from ``store``'s rows for ``fingerprint`` and keep it as
        this layer's durable backing (the ``"store"`` source)."""
        self.store, self.fingerprint = store, fingerprint
        self.seed("store", store.observations(fingerprint))

    def _keep(self, word: Word, outputs: Word) -> None:
        """Insert a fresh observation; with a store, append it if the rows lack it."""
        self._append_if_unstored(word, outputs, self.cache.insert(word, outputs))

    def _append_if_unstored(self, word: Word, outputs: Word, node: _TrieNode) -> None:
        """With a store, append an observation its rows lack."""
        stored = self.seeds.get("store")
        if stored is not None and self.store is not None and not node.sources & stored.bit:
            self.store.append(self.fingerprint, word, outputs)

    def _count_hits(self, node: _TrieNode, count: int = 1) -> None:
        """Count ``count`` hits on the word ending at ``node``."""
        self.hits += count
        if node.sources:
            for name, view in self.seeds.items():
                if node.sources & view.bit:
                    self.hits_by_source[name] += count

    # -- querying ------------------------------------------------------------
    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        word = tuple(word)
        self.stats.note(word)
        found = self.cache._find(word)
        if found is not None:
            self._count_hits(found[1])
            return found[0]
        self.misses += 1
        outputs = tuple(self.inner.query(word))
        self._keep(word, outputs)
        return outputs

    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        words = [tuple(word) for word in words]
        for word in words:
            self.stats.note(word)
        results: list[Word | None] = [None] * len(words)

        # 1. Answer what the trie already knows.
        pending: dict[Word, list[int]] = {}
        for index, found in enumerate(self.cache._find_all(words)):
            if found is not None:
                self._count_hits(found[1])
                results[index] = found[0]
            else:
                pending.setdefault(words[index], []).append(index)
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
        for (word, indices), found in zip(pending.items(), self.cache._find_all(pending)):
            if found is None:
                raise RuntimeError(f"inner oracle left {word} unanswered")
            outputs, node = found
            if word in executed:
                self.misses += 1
                self._count_hits(node, len(indices) - 1)
            else:
                self._count_hits(node, len(indices))
            for index in indices:
                results[index] = outputs
        return results  # type: ignore[return-value]

    # -- accounting ----------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def source_hit_rate(self, name: str) -> float:
        """Share of membership queries the seed source ``name`` answered."""
        total = self.hits + self.misses
        return self.hits_by_source.get(name, 0) / total if total else 0.0

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush the store's appends and record this session's usage.

        Idempotent; does nothing without a store.
        """
        store, self.store = self.store, None
        if store is None:
            return
        if self.hits or self.misses:
            store.record_usage(
                self.fingerprint,
                hits=self.hits_by_source.get("store", 0),
                misses=self.misses,
            )
        store.close()
