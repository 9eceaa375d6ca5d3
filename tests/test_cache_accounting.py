"""Golden accounting for the query-cache layer in every stack it serves.

Each stack learns ``toy`` and ``tcp-handshake`` and pins what the run
reports: the model (as a digest of its canonical JSON), the SUL and
oracle counters, the cache planner's counters, the store/corpus hit
attribution and -- where a store is involved -- the store's row count
afterwards.  The stacks:

* ``plain``        -- the default ``cache`` middleware;
* ``cold-store``   -- a ``store`` section over an empty store file;
* ``warm-store``   -- the same spec re-learned over the store it filled;
* ``corpus``       -- a ``corpus`` section with a partial random-walk corpus;
* ``store+corpus`` -- both sections, over an empty store;
* ``shared+store`` -- the second run of a campaign sharing its cache
  across runs, with a store (TTT first, then L* on the warmed cache).

The numbers are the accounting contract of the cache layer: a refactor of
where the cache's answers come from must leave every one of them alone.
"""

import hashlib
import json

import pytest

from repro.campaign import Campaign
from repro.framework import Prognosis
from repro.learn.bulk import generate_corpus
from repro.spec import CorpusSpec, ExperimentSpec, StoreSpec
from repro.store import QueryStore

TARGETS = ("toy", "tcp-handshake")
STACKS = ("plain", "cold-store", "warm-store", "corpus", "store+corpus", "shared+store")

FIELDS = (
    "sul_queries",
    "sul_steps",
    "sul_resets",
    "oracle_queries",
    "cache_hit_rate",
    "prefix_collapsed",
    "batch_deduped",
    "store_hits",
    "corpus_hits",
    "corpus_skipped",
)


def _digest(model) -> str:
    text = json.dumps(model.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _learn(spec):
    with Prognosis.from_spec(spec) as prognosis:
        return prognosis.learn()


def _store_rows(spec) -> int:
    with QueryStore(spec.store.path) as store:
        return store.word_count(spec.sul_fingerprint())


def run_stack(target: str, stack: str, tmp_path) -> dict:
    """Learn ``target`` through ``stack``; the accounting it reports."""
    spec = ExperimentSpec(target=target, name=target)
    store = StoreSpec(path=str(tmp_path / "store.sqlite"))
    corpus_path = tmp_path / "corpus.jsonl"
    generate_corpus(spec, corpus_path, num_sessions=30, max_len=4)
    corpus = CorpusSpec(path=str(corpus_path))

    if stack == "plain":
        report = _learn(spec)
    elif stack == "cold-store":
        spec = spec.clone(store=store)
        report = _learn(spec)
    elif stack == "warm-store":
        spec = spec.clone(store=store)
        _learn(spec)
        report = _learn(spec)
    elif stack == "corpus":
        spec = spec.clone(corpus=corpus)
        report = _learn(spec)
    elif stack == "store+corpus":
        spec = spec.clone(store=store, corpus=corpus)
        report = _learn(spec)
    elif stack == "shared+store":
        specs = [
            spec.clone(learner="ttt", name=f"{target}-ttt"),
            spec.clone(learner="lstar", name=f"{target}-lstar"),
        ]
        results = Campaign(
            specs, workers=1, share_cache=True, store=store.path
        ).run()
        assert all(result.ok for result in results), [r.error for r in results]
        spec = results[1].spec
        report = results[1].report
    else:  # pragma: no cover - parametrization guard
        raise ValueError(stack)

    values = {field: getattr(report, field) for field in FIELDS}
    values["cache_hit_rate"] = round(values["cache_hit_rate"], 6)
    values["model"] = _digest(report.model)
    values["store_rows"] = _store_rows(spec) if spec.store is not None else None
    return values


#: (target, stack) -> the accounting the run must report.
GOLDEN = {
    ("toy", "plain"): dict(
        model="ddb5254c3fc6d345", sul_queries=18, sul_steps=58, sul_resets=18,
        oracle_queries=53, cache_hit_rate=0.660377, prefix_collapsed=0, batch_deduped=0,
        store_hits=0, corpus_hits=0, corpus_skipped=0, store_rows=None,
    ),
    ("toy", "cold-store"): dict(
        model="ddb5254c3fc6d345", sul_queries=18, sul_steps=58, sul_resets=18,
        oracle_queries=53, cache_hit_rate=0.660377, prefix_collapsed=0, batch_deduped=0,
        store_hits=0, corpus_hits=0, corpus_skipped=0, store_rows=18,
    ),
    ("toy", "warm-store"): dict(
        model="ddb5254c3fc6d345", sul_queries=0, sul_steps=0, sul_resets=0,
        oracle_queries=53, cache_hit_rate=1.0, prefix_collapsed=0, batch_deduped=0,
        store_hits=53, corpus_hits=0, corpus_skipped=0, store_rows=18,
    ),
    ("toy", "corpus"): dict(
        model="ddb5254c3fc6d345", sul_queries=8, sul_steps=35, sul_resets=8,
        oracle_queries=53, cache_hit_rate=0.849057, prefix_collapsed=0, batch_deduped=0,
        store_hits=0, corpus_hits=43, corpus_skipped=0, store_rows=None,
    ),
    ("toy", "store+corpus"): dict(
        model="ddb5254c3fc6d345", sul_queries=8, sul_steps=35, sul_resets=8,
        oracle_queries=53, cache_hit_rate=0.849057, prefix_collapsed=0, batch_deduped=0,
        store_hits=0, corpus_hits=43, corpus_skipped=0, store_rows=24,
    ),
    ("toy", "shared+store"): dict(
        model="c0beca6be45eeb29", sul_queries=0, sul_steps=0, sul_resets=0,
        oracle_queries=29, cache_hit_rate=1.0, prefix_collapsed=0, batch_deduped=0,
        store_hits=29, corpus_hits=0, corpus_skipped=0, store_rows=18,
    ),
    ("tcp-handshake", "plain"): dict(
        model="0baf64802112e998", sul_queries=26, sul_steps=94, sul_resets=26,
        oracle_queries=113, cache_hit_rate=0.769912, prefix_collapsed=2,
        batch_deduped=0, store_hits=0, corpus_hits=0, corpus_skipped=0, store_rows=None,
    ),
    ("tcp-handshake", "cold-store"): dict(
        model="0baf64802112e998", sul_queries=26, sul_steps=94, sul_resets=26,
        oracle_queries=113, cache_hit_rate=0.769912, prefix_collapsed=2,
        batch_deduped=0, store_hits=0, corpus_hits=0, corpus_skipped=0, store_rows=26,
    ),
    ("tcp-handshake", "warm-store"): dict(
        model="0baf64802112e998", sul_queries=0, sul_steps=0, sul_resets=0,
        oracle_queries=113, cache_hit_rate=1.0, prefix_collapsed=0, batch_deduped=0,
        store_hits=113, corpus_hits=0, corpus_skipped=0, store_rows=26,
    ),
    ("tcp-handshake", "corpus"): dict(
        model="0baf64802112e998", sul_queries=15, sul_steps=67, sul_resets=15,
        oracle_queries=113, cache_hit_rate=0.867257, prefix_collapsed=0,
        batch_deduped=0, store_hits=0, corpus_hits=85, corpus_skipped=0, store_rows=None,
    ),
    ("tcp-handshake", "store+corpus"): dict(
        model="0baf64802112e998", sul_queries=15, sul_steps=67, sul_resets=15,
        oracle_queries=113, cache_hit_rate=0.867257, prefix_collapsed=0,
        batch_deduped=0, store_hits=0, corpus_hits=85, corpus_skipped=0, store_rows=31,
    ),
    ("tcp-handshake", "shared+store"): dict(
        model="eb0403178a0d018d", sul_queries=0, sul_steps=0, sul_resets=0,
        oracle_queries=37, cache_hit_rate=1.0, prefix_collapsed=0, batch_deduped=0,
        store_hits=37, corpus_hits=0, corpus_skipped=0, store_rows=26,
    ),
}


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("target", TARGETS)
def test_cache_accounting(target, stack, tmp_path):
    assert run_stack(target, stack, tmp_path) == GOLDEN[target, stack]
