"""The durable membership-query store (sqlite, WAL, append-only).

Campaigns re-learn from scratch because :class:`~repro.learn.cache
.QueryCache` lives and dies with one process.  A :class:`QueryStore`
persists the same ``(word, outputs)`` observations in a sqlite file keyed
by :meth:`~repro.spec.ExperimentSpec.sul_fingerprint`, so a spec learned
today warm-starts tomorrow's run -- in another process, on another
machine sharing the file, or under the process executor where several
campaign workers append concurrently.

Design points:

* **Append-only.**  Observations are immutable facts about a
  deterministic SUL; rows are only ever inserted (``INSERT OR IGNORE``
  on the ``(fingerprint, word)`` primary key) or dropped wholesale by
  :meth:`QueryStore.gc`.  Two processes racing on the same word write
  the same row.
* **WAL mode.**  Readers never block writers and concurrent writers
  serialize briefly per transaction -- the property that lets campaign
  workers share one store file.
* **Batched flush.**  :meth:`append` buffers in memory and writes
  ``flush_every`` rows per transaction, keeping the hot query path off
  the disk.
* **Consistency at load.**  :meth:`load` replays rows into a prefix
  trie; conflicting observations under one fingerprint (the SUL changed
  behind an unchanged fingerprint, or it is nondeterministic) raise
  :class:`~repro.learn.cache.CacheInconsistencyError` instead of
  silently answering with stale outputs.  ``repro store --gc`` drops
  the poisoned fingerprint.

Words and outputs are stored as canonical JSON arrays of the
``{"kind", "text"}`` symbol encoding from :mod:`repro.core.alphabet`,
so store files are human-inspectable with the sqlite3 CLI.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ..core.alphabet import (
    AbstractSymbol,
    deserialize_symbol,
    serialize_symbol,
)
from ..core.trace import Word
from ..learn.cache import QueryCache


class StoreError(Exception):
    """A malformed or unusable persistent store."""


def encode_word(word: Sequence[AbstractSymbol]) -> str:
    """Canonical JSON text for a word (the sqlite key/value encoding)."""
    return json.dumps(
        [serialize_symbol(symbol) for symbol in word],
        sort_keys=True,
        separators=(",", ":"),
    )


def decode_word(text: str) -> Word:
    """Inverse of :func:`encode_word`."""
    return tuple(deserialize_symbol(data) for data in json.loads(text))


@dataclass
class FingerprintStats:
    """One ``repro store --stats`` row."""

    fingerprint: str
    observations: int
    models: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS observations (
        fingerprint TEXT NOT NULL,
        word        TEXT NOT NULL,
        outputs     TEXT NOT NULL,
        PRIMARY KEY (fingerprint, word)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS usage (
        fingerprint TEXT PRIMARY KEY,
        hits        INTEGER NOT NULL DEFAULT 0,
        misses      INTEGER NOT NULL DEFAULT 0
    )
    """,
)


def open_connection(path: str | Path, timeout_s: float = 30.0) -> sqlite3.Connection:
    """A WAL-mode connection shared by the query and model stores.

    ``check_same_thread=False`` because campaign runs construct their
    store in one executor thread and may close it from another; each
    run still owns exactly one connection (sqlite connections must
    never cross a *process* boundary -- workers open their own).

    Switching a fresh file to WAL upgrades a read lock, and sqlite
    answers "database is locked" at once (no busy wait) when another
    process is doing the same; that switch is retried until
    ``timeout_s``.
    """
    deadline = time.monotonic() + timeout_s
    try:
        conn = sqlite3.connect(
            str(path), timeout=timeout_s, check_same_thread=False
        )
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA synchronous=NORMAL")
    except sqlite3.Error as error:
        raise StoreError(f"cannot open store {path}: {error}") from None
    return conn


class QueryStore:
    """Durable ``(fingerprint, word) -> outputs`` observations.

    Context manager; :meth:`close` flushes the append buffer.  One
    instance wraps one sqlite connection -- cheap enough to open per
    learning run, and the WAL lets many such instances (across threads
    *and* processes) share the file.
    """

    def __init__(
        self,
        path: str | Path,
        flush_every: int = 256,
        timeout_s: float = 30.0,
    ) -> None:
        if flush_every < 1:
            raise StoreError(f"need a positive flush_every, got {flush_every}")
        self.path = str(path)
        self.flush_every = flush_every
        self._conn = open_connection(path, timeout_s)
        with self._conn:
            for statement in _SCHEMA:
                self._conn.execute(statement)
        self._buffer: list[tuple[str, str, str]] = []

    # -- writing -----------------------------------------------------------
    def append(
        self,
        fingerprint: str,
        word: Sequence[AbstractSymbol],
        outputs: Sequence[AbstractSymbol],
    ) -> None:
        """Buffer one observation; flushes every ``flush_every`` rows.

        A word and outputs of different lengths are not an observation:
        the row is rejected with :class:`StoreError`.
        """
        if len(word) != len(outputs):
            raise StoreError(
                f"observation for {fingerprint} has {len(word)} inputs and"
                f" {len(outputs)} outputs: {encode_word(word)}"
            )
        self._buffer.append(
            (fingerprint, encode_word(word), encode_word(outputs))
        )
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write the buffered observations in one transaction."""
        if not self._buffer:
            return
        rows, self._buffer = self._buffer, []
        with self._conn:
            self._conn.executemany(
                "INSERT OR IGNORE INTO observations"
                " (fingerprint, word, outputs) VALUES (?, ?, ?)",
                rows,
            )

    def record_usage(self, fingerprint: str, hits: int, misses: int) -> None:
        """Accumulate one session's hit/miss counters for ``--stats``."""
        with self._conn:
            self._conn.execute(
                "INSERT INTO usage (fingerprint, hits, misses)"
                " VALUES (?, ?, ?)"
                " ON CONFLICT(fingerprint) DO UPDATE SET"
                " hits = hits + excluded.hits,"
                " misses = misses + excluded.misses",
                (fingerprint, hits, misses),
            )

    def gc(self, fingerprint: str) -> int:
        """Drop every observation (and usage row) for ``fingerprint``.

        Returns the number of observations removed.  This is the repair
        path for a fingerprint whose rows became inconsistent (the
        implementation changed behind an unchanged fingerprint).
        """
        self.flush()
        with self._conn:
            cursor = self._conn.execute(
                "DELETE FROM observations WHERE fingerprint = ?", (fingerprint,)
            )
            self._conn.execute(
                "DELETE FROM usage WHERE fingerprint = ?", (fingerprint,)
            )
        return cursor.rowcount

    # -- reading -----------------------------------------------------------
    def observations(self, fingerprint: str) -> Iterator[tuple[Word, Word]]:
        """All stored ``(word, outputs)`` pairs for one fingerprint.

        A row that does not decode (bad JSON, a bad symbol) or whose word
        and outputs differ in length raises :class:`StoreError` naming the
        fingerprint and the row.
        """
        self.flush()
        cursor = self._conn.execute(
            "SELECT word, outputs FROM observations"
            " WHERE fingerprint = ? ORDER BY word",
            (fingerprint,),
        )
        for word_text, outputs_text in cursor:
            try:
                word, outputs = decode_word(word_text), decode_word(outputs_text)
            except (ValueError, TypeError) as error:
                raise StoreError(
                    f"bad row for {fingerprint}: {word_text} -> {outputs_text}: {error}"
                ) from None
            if len(word) != len(outputs):
                raise StoreError(
                    f"bad row for {fingerprint}: {word_text} -> {outputs_text}:"
                    f" {len(word)} inputs but {len(outputs)} outputs"
                )
            yield word, outputs

    def load(self, fingerprint: str) -> QueryCache:
        """The fingerprint's observations as a warm prefix-tree cache.

        Raises :class:`~repro.learn.cache.CacheInconsistencyError` when
        stored rows conflict -- stale entries must be ``gc``-ed, never
        silently merged.
        """
        cache = QueryCache()
        for word, outputs in self.observations(fingerprint):
            cache.insert(word, outputs)
        return cache

    def word_count(self, fingerprint: str) -> int:
        self.flush()
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM observations WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return count

    def fingerprints(self) -> list[str]:
        """Every fingerprint with observations or recorded usage."""
        self.flush()
        cursor = self._conn.execute(
            "SELECT fingerprint FROM observations"
            " UNION SELECT fingerprint FROM usage ORDER BY fingerprint"
        )
        return [row[0] for row in cursor]

    def usage(self, fingerprint: str) -> tuple[int, int]:
        """Accumulated ``(hits, misses)`` recorded for the fingerprint."""
        row = self._conn.execute(
            "SELECT hits, misses FROM usage WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return (0, 0) if row is None else (row[0], row[1])

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.flush()
        self._conn.close()

    def __enter__(self) -> "QueryStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryStore({self.path!r})"
