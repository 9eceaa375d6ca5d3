"""Bulk-trace passive learning: stream a corpus, fold, actively refine.

The production half of the passive story (ROADMAP: "millions of users
means traces arrive in bulk, not one active query at a time"):

* **Corpus IO** -- :func:`read_jsonl_corpus` / :func:`write_jsonl_corpus`
  stream ``{"inputs": [...], "outputs": [...]}`` JSONL trace files using
  the :func:`~repro.core.alphabet.serialize_symbol` codec, and
  :func:`generate_corpus` random-walks a registered (netsim-backed)
  target to produce session logs.  :func:`record_full_corpus` dumps one
  active run's entire observation set -- a *covering* corpus, the bulk
  analogue of a warm persistent store.
* **Corpus seeding** -- :func:`accept_traces` streams the traces of a
  corpus that agree with everything seeded before them (the one
  corpus-conflict rule: a contradicting trace is skipped and counted, or
  raises :class:`~repro.learn.passive.TraceConflictError` without
  ``skip_conflicts``).  :func:`repro.spec.assemble` feeds it to the
  ``cache`` layer as its ``"corpus"`` seed source, after the shared trie
  and the store rows; with a store, the accepted traces persist.
* **The pipeline** -- :func:`bulk_passive_learn` folds the cache's corpus
  seed into a :class:`~repro.learn.passive.PartialMealyMachine` (hardened
  RPNI), turns its undetermined ``(state, symbol)`` cells into targeted
  membership queries through the spec's oracle/executor stack, then runs
  the spec's active learner over the warmed cache.  Behaviour the corpus
  already determines costs zero SUL resets, mirroring ``repro ci``'s
  warm path; the refined model is byte-identical to a pure-active run
  because cache warmth never changes a deterministic SUL's answers.

Specs opt in declaratively via their ``corpus`` section
(:class:`~repro.spec.CorpusSpec`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..core.alphabet import SymbolError, deserialize_symbol, serialize_symbol
from ..core.trace import IOTrace, Word, random_word, render_word
from ..registry import SUL_REGISTRY, load_builtins
from .cache import CacheInconsistencyError, QueryCache
from .passive import (
    PartialMealyMachine,
    TraceConflictError,
    fold_prefix_tree,
    prefix_tree_from_cache,
)

class CorpusFormatError(ValueError):
    """A corpus file line that is not a well-formed serialized trace."""


@dataclass
class CorpusConflict:
    """One skipped trace: it contradicted the corpus read so far."""

    trace_index: int | None
    word: Word
    cached: object
    fresh: object

    def to_dict(self) -> dict:
        return {
            "trace_index": self.trace_index,
            "word": render_word(self.word),
            "cached": str(self.cached),
            "fresh": str(self.fresh),
        }


@dataclass
class CorpusStats:
    """Accounting for one streaming corpus pass."""

    traces: int = 0
    #: Input symbols across the accepted traces (the "trace token" unit
    #: of the states-recovered-per-trace-token benchmark).
    tokens: int = 0
    #: Distinct observations the corpus trie holds (dedup'd traces).
    words: int = 0
    skipped: list[CorpusConflict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "traces": self.traces,
            "tokens": self.tokens,
            "words": self.words,
            "skipped": [conflict.to_dict() for conflict in self.skipped],
        }


# ---------------------------------------------------------------------------
# Corpus IO
# ---------------------------------------------------------------------------

def write_jsonl_corpus(path, traces: Iterable) -> int:
    """Write traces as one-JSON-object-per-line; returns the count.

    ``traces`` is either an iterable of :class:`IOTrace` (written in
    arrival order) or of ``(index, IOTrace)`` pairs -- the form attack
    replay emits -- which are **sorted by index before writing**, so a
    corpus assembled from concurrently confirmed strategies always
    round-trips through :func:`stream_corpus` in the same trace order.
    """
    entries = list(traces)
    if entries and not isinstance(entries[0], IOTrace):
        entries = [trace for _, trace in sorted(entries, key=lambda e: e[0])]
    count = 0
    with open(path, "w") as handle:
        for trace in entries:
            handle.write(
                json.dumps(
                    {
                        "inputs": [serialize_symbol(s) for s in trace.inputs],
                        "outputs": [serialize_symbol(s) for s in trace.outputs],
                    }
                )
                + "\n"
            )
            count += 1
    return count


def read_jsonl_corpus(path) -> Iterator[IOTrace]:
    """Stream traces from a JSONL corpus file, one line at a time.

    Malformed lines raise :class:`CorpusFormatError` with the line
    number; they are *format* bugs, unlike nondeterministic traces,
    which are findings the caller may skip-and-report.
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                inputs = tuple(deserialize_symbol(s) for s in data["inputs"])
                outputs = tuple(deserialize_symbol(s) for s in data["outputs"])
                trace = IOTrace(inputs, outputs)
            except (KeyError, TypeError, ValueError, SymbolError) as error:
                raise CorpusFormatError(
                    f"{path}, line {lineno}: not a serialized trace ({error})"
                ) from None
            yield trace


def iter_corpus(source) -> Iterator[IOTrace]:
    """Traces from a JSONL path or any in-memory iterable of traces."""
    if isinstance(source, (str, Path)):
        yield from read_jsonl_corpus(source)
    else:
        yield from source


def stream_corpus(source, max_traces: int | None = None) -> Iterator[IOTrace]:
    """The public streaming reader: traces in deterministic file order.

    A thin, bounded wrapper over :func:`iter_corpus`: traces come back
    exactly in corpus order (which :func:`write_jsonl_corpus` made
    index-sorted for pair-form writers), and ``max_traces`` caps the
    read without consuming the rest of the file.
    """
    for index, trace in enumerate(iter_corpus(source)):
        if max_traces is not None and index >= max_traces:
            return
        yield trace


def accept_traces(
    source,
    against: QueryCache,
    stats: CorpusStats,
    skip_conflicts: bool = True,
    max_traces: int | None = None,
) -> Iterator[tuple[Word, Word]]:
    """Stream the corpus traces that agree with ``against``, as observations.

    The caller inserts every yielded observation into ``against`` before
    asking for the next, so each trace is checked against everything
    seeded before it -- earlier traces included.  A contradicting trace
    is skipped and recorded in ``stats`` when ``skip_conflicts``
    (nondeterministic logs are a finding, not a crash), or raises
    :class:`~repro.learn.passive.TraceConflictError` otherwise.
    ``max_traces`` bounds the accepted traces.
    """
    for index, trace in enumerate(iter_corpus(source)):
        if max_traces is not None and stats.traces >= max_traces:
            break
        try:
            against.check_consistent(trace.inputs, trace.outputs)
        except CacheInconsistencyError as error:
            if not skip_conflicts:
                raise TraceConflictError(
                    error.word, error.cached, error.fresh, trace_index=index
                ) from None
            stats.skipped.append(
                CorpusConflict(index, error.word, error.cached, error.fresh)
            )
            continue
        stats.traces += 1
        stats.tokens += len(trace)
        yield trace.inputs, trace.outputs


def load_corpus_cache(
    source,
    skip_conflicts: bool = True,
    max_traces: int | None = None,
) -> tuple[QueryCache, CorpusStats]:
    """One streaming pass: corpus -> prefix-tree trie + accounting.

    The returned :class:`~repro.learn.cache.QueryCache` *is* the passive
    learner's prefix tree (:func:`~repro.learn.passive
    .prefix_tree_from_cache`); conflicts follow :func:`accept_traces`.
    """
    cache, stats = QueryCache(), CorpusStats()
    for word, outputs in accept_traces(
        source, cache, stats, skip_conflicts=skip_conflicts, max_traces=max_traces
    ):
        cache.insert(word, outputs)
    stats.words = cache.entries
    return cache, stats


def accepted_corpus_cache(source, stats: CorpusStats) -> QueryCache:
    """The trie of the corpus traces ``stats`` records as accepted.

    Re-streams ``source`` in corpus order, skipping ``stats.skipped`` and
    stopping after ``stats.traces`` traces: exactly the observations
    :func:`accept_traces` yielded, in a trie of their own.
    """
    skipped = {conflict.trace_index for conflict in stats.skipped}
    cache = QueryCache()
    accepted = 0
    for index, trace in enumerate(iter_corpus(source)):
        if accepted == stats.traces:
            break
        if index not in skipped:
            cache.insert(trace.inputs, trace.outputs)
            accepted += 1
    return cache


# ---------------------------------------------------------------------------
# Corpus generation (netsim-backed session logs, covering corpora)
# ---------------------------------------------------------------------------

def log_sessions(
    sul, num_sessions: int = 200, max_len: int = 8, seed: int = 0
) -> list[IOTrace]:
    """Random-walk session logs from a live SUL (netsim traffic shapes).

    Each session resets the SUL and drives a random input word through
    it -- the closest in-process stand-in for "pcap-shaped" production
    logs arriving in bulk.
    """
    rng = random.Random(seed)
    symbols = list(sul.input_alphabet)
    traces = []
    for _ in range(num_sessions):
        word = random_word(rng, symbols, 1, max_len)
        traces.append(IOTrace(word, tuple(sul.query(word))))
    return traces


def generate_corpus(
    spec, path, num_sessions: int = 200, max_len: int = 8
) -> int:
    """Random-walk a spec's registered target into a JSONL corpus file."""
    load_builtins()
    factory = SUL_REGISTRY.get(spec.target)
    sul = factory(**spec.target_params)
    try:
        traces = log_sessions(
            sul, num_sessions=num_sessions, max_len=max_len, seed=spec.seed
        )
    finally:
        close = getattr(sul, "close", None)
        if callable(close):
            close()
    return write_jsonl_corpus(path, traces)


def record_full_corpus(spec, path) -> int:
    """Dump a *covering* corpus: one active run's entire observation set.

    Re-running the same spec against this corpus pre-answers every
    membership query its learner will ask, so the passive->active
    pipeline completes with **zero SUL resets** -- the bulk-trace
    analogue of a warm persistent store.
    """
    from ..framework import Prognosis

    clean = spec.clone(corpus=None, store=None)
    with Prognosis.from_spec(clean) as prognosis:
        prognosis.learn()
        observations = list(prognosis.cache_oracle.cache.dump())
    return write_jsonl_corpus(
        path, (IOTrace(word, outputs) for word, outputs in observations)
    )


# ---------------------------------------------------------------------------
# The passive -> active pipeline
# ---------------------------------------------------------------------------

@dataclass
class BulkLearnResult:
    """Everything one bulk passive->active run produced."""

    spec: object
    corpus_stats: CorpusStats
    passive_model: PartialMealyMachine
    #: The active-refinement learning report (None with ``refine=False``).
    refined: object | None = None
    #: Membership queries issued for the partial machine's undetermined
    #: ``(state, symbol)`` cells, and how many of them the corpus had
    #: already answered.
    targeted_queries: int = 0
    targeted_covered: int = 0

    @property
    def model(self):
        return None if self.refined is None else self.refined.model

    def summary(self) -> str:
        stats = self.corpus_stats
        lines = [
            f"corpus: {stats.traces} traces, {stats.tokens} tokens, "
            f"{stats.words} distinct words"
            + (f", {len(stats.skipped)} skipped conflicts" if stats.skipped else ""),
            f"passive: {self.passive_model.num_states} states, "
            f"{self.passive_model.completeness:.0%} complete",
        ]
        if self.refined is not None:
            lines.append(
                f"refinement: {self.targeted_queries} targeted queries "
                f"({self.targeted_covered} corpus-covered); "
                + self.refined.summary()
                + f", {self.refined.sul_resets} SUL resets"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "corpus": self.corpus_stats.to_dict(),
            "passive_model": self.passive_model.to_dict(),
            "targeted_queries": self.targeted_queries,
            "targeted_covered": self.targeted_covered,
            "refined": None if self.refined is None else self.refined.to_dict(),
        }


def bulk_passive_learn(spec, *, refine: bool = True, shared_cache=None) -> BulkLearnResult:
    """The full pipeline: stream corpus -> fold -> targeted refinement.

    Requires a spec with a ``corpus`` section.  The corpus seeds the
    cache layer (its ``"corpus"`` source), which warms the active
    learner's cache.  The traces that seeding accepted are then re-read
    into a trie of their own (:func:`accepted_corpus_cache`) and folded
    into the passive :class:`~repro.learn.passive.PartialMealyMachine`:
    the layer's trie also holds any shared or store observations seeded
    first, which would change the prefix tree's state order.  With ``refine``,
    each undetermined ``(state, symbol)`` cell becomes one targeted
    membership query (access word + missing symbol) batched through the
    spec's oracle/executor stack, then the spec's active learner runs
    over the warmed cache.  Cache warmth never changes a deterministic
    SUL's answers, so the refined model is byte-identical to a
    pure-active run of the same spec -- and a covering corpus
    (:func:`record_full_corpus`) completes with zero SUL resets.
    """
    from ..framework import Prognosis
    from ..spec import SpecError

    if spec.corpus is None:
        raise SpecError("bulk_passive_learn needs a spec with a corpus section")
    spec.validate()
    with Prognosis.from_spec(spec, shared_cache=shared_cache) as prognosis:
        stats = prognosis.corpus_stats
        corpus_cache = accepted_corpus_cache(spec.corpus.path, stats)
        passive_model = fold_prefix_tree(
            prefix_tree_from_cache(corpus_cache), prognosis.oracle.input_alphabet
        )
        targeted = covered = 0
        refined = None
        if refine:
            access = passive_model.access_words()
            words = [
                access[state] + (symbol,)
                for state, symbol in passive_model.undetermined_cells()
            ]
            targeted = len(words)
            covered = sum(
                found is not None for found in corpus_cache.lookup_all(words)
            )
            for start in range(0, len(words), spec.batch_size):
                prognosis.oracle.query_batch(words[start : start + spec.batch_size])
            refined = prognosis.learn()
    return BulkLearnResult(
        spec=spec,
        corpus_stats=stats,
        passive_model=passive_model,
        refined=refined,
        targeted_queries=targeted,
        targeted_covered=covered,
    )
