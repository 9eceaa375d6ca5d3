"""Incremental re-learning against the stored model lineage (``repro ci``).

A spec that has been learned before does not need a cold L*/TTT run to
find out whether its SUL still behaves the same.  :func:`incremental_learn`
seeds from the last :class:`~repro.store.model_store.ModelStore` record,
replays the stored model's own W-method suite (``extra_states=0``) as
membership queries against the live SUL -- below the store-seeded cache,
so a server that changed behind an unchanged fingerprint cannot be
answered from its own old observations -- and only falls back to a full
learning run when an answer diverges.  The result carries a
:class:`~repro.analysis.diff.ModelDiff` whose witnesses are product-BFS
shortest diverging words, i.e. already minimized.

``baseline`` lets a CI pipeline diff one target against another's lineage
(``repro ci http2-buggy --baseline http2``): observations and the new
model stay keyed by the spec's *own* fingerprint, only the reference
model comes from the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..analysis.diff import ModelDiff, diff_models
from ..core.mealy import MealyMachine
from ..framework import LearningReport, Prognosis
from ..learn.teacher import chunks, replay
from ..spec import ExperimentSpec
from .model_store import ModelStore
from .query_store import QueryStore

#: ``mode`` values of an :class:`IncrementalResult`.
MODE_COLD = "cold"            # no stored baseline: a full learning run
MODE_REVALIDATED = "revalidated"  # stored model confirmed query-by-query
MODE_RELEARNED = "relearned"  # divergence found: full re-learn + diff


@dataclass
class IncrementalResult:
    """What one incremental learning run established."""

    spec: ExperimentSpec
    fingerprint: str
    baseline_fingerprint: str
    mode: str
    drifted: bool
    model: MealyMachine
    baseline_version: int | None = None
    saved_version: int | None = None
    diff: ModelDiff | None = None
    report: LearningReport | None = None
    #: Stored-model transitions re-validated as membership queries.
    revalidated_words: int = 0
    #: SUL queries the revalidation itself sent (every suite word runs live).
    revalidation_sul_queries: int = 0
    store_hits: int = 0
    store_hit_rate: float = 0.0

    def summary(self) -> str:
        name = self.spec.display_name()
        if self.mode == MODE_COLD:
            return (
                f"{name}: cold learn, no stored baseline "
                f"(saved v{self.saved_version})"
            )
        if self.mode == MODE_REVALIDATED:
            return (
                f"{name}: v{self.baseline_version} revalidated "
                f"({self.revalidated_words} words, "
                f"{self.revalidation_sul_queries} SUL queries) -- no drift"
            )
        witnesses = len(self.diff.witnesses) if self.diff is not None else 0
        return (
            f"{name}: DRIFT from v{self.baseline_version} "
            f"({witnesses} witnesses; saved v{self.saved_version})"
        )

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "fingerprint": self.fingerprint,
            "baseline_fingerprint": self.baseline_fingerprint,
            "mode": self.mode,
            "drifted": self.drifted,
            "model": self.model.to_dict(),
            "baseline_version": self.baseline_version,
            "saved_version": self.saved_version,
            "diff": None if self.diff is None else self.diff.to_dict(),
            "report": None if self.report is None else self.report.to_dict(),
            "revalidated_words": self.revalidated_words,
            "revalidation_sul_queries": self.revalidation_sul_queries,
            "store_hits": self.store_hits,
            "store_hit_rate": self.store_hit_rate,
        }


def incremental_learn(
    spec: ExperimentSpec,
    store_path: str | Path,
    *,
    baseline: str | None = None,
    save: bool = True,
) -> IncrementalResult:
    """Learn ``spec`` incrementally against the store at ``store_path``.

    With no stored baseline model this is a plain (store-backed) learning
    run that seeds the lineage.  Otherwise the stored model is
    re-validated transition-by-transition; on any divergence the spec is
    fully re-learned (through the already-warm store cache) and the two
    models are diffed.  ``baseline`` names another SUL target whose
    lineage serves as the reference (cross-variant drift demos); ``save``
    controls whether a *changed* model is appended to the lineage
    (revalidated runs never append -- the model is byte-identical).

    When the spec's own lineage drifted, its stored observations came from
    a SUL that no longer answers the same way: they are dropped
    (:meth:`~repro.store.query_store.QueryStore.gc`) and the spec is
    re-learned cold against the live SUL.
    """
    spec = spec.validate()
    fingerprint = spec.sul_fingerprint()
    baseline_fingerprint = (
        fingerprint
        if baseline is None
        else spec.clone(target=baseline, name=None).sul_fingerprint()
    )
    working = spec if spec.store is not None else spec.clone(store=str(store_path))

    with ModelStore(store_path) as models:
        record = models.latest(baseline_fingerprint)
        baseline_model = None if record is None else record.machine()
        matches, words, sul_queries = False, 0, 0

        with Prognosis.from_spec(working) as prognosis:
            compatible = baseline_model is not None and tuple(
                baseline_model.input_alphabet
            ) == tuple(prognosis.oracle.input_alphabet)
            if compatible:
                # The stored model's own W-method suite covers every one of
                # its transitions.  It goes to the oracle below the cache
                # layer: an answer from the store, a shared trie or a corpus
                # would only check the store against itself.
                suite = baseline_model.w_method_suite(extra_states=0)
                before = prognosis.sul.stats.queries
                matches = replay(
                    baseline_model,
                    prognosis.cache_oracle.inner,
                    chunks(suite, working.batch_size),
                    stop_after=1,
                ).conforms
                words = len(suite)
                sul_queries = prognosis.sul.stats.queries - before
            # Drift in the spec's own lineage: its stored rows came from a
            # SUL that no longer answers the same way, so they must not
            # answer the re-learn.
            stale = compatible and not matches and baseline_fingerprint == fingerprint
            report = None if matches or stale else prognosis.learn()
            cache = prognosis.cache_oracle

        if stale:
            with QueryStore(working.store.path) as rows:
                rows.gc(fingerprint)
            with Prognosis.from_spec(working) as prognosis:
                report = prognosis.learn()
                cache = prognosis.cache_oracle

        if record is None:
            mode = MODE_COLD
        elif matches:
            mode = MODE_REVALIDATED
        else:
            mode = MODE_RELEARNED
        result = IncrementalResult(
            spec=working,
            fingerprint=fingerprint,
            baseline_fingerprint=baseline_fingerprint,
            mode=mode,
            drifted=mode == MODE_RELEARNED,
            model=baseline_model if matches else report.model,
            baseline_version=None if record is None else record.version,
            diff=(
                diff_models(baseline_model, report.model)
                if compatible and not matches
                else None
            ),
            report=report,
            revalidated_words=words,
            revalidation_sul_queries=sul_queries,
            store_hits=cache.hits_by_source["store"],
            store_hit_rate=cache.source_hit_rate("store"),
        )

        if save and result.mode != MODE_REVALIDATED:
            result.saved_version = models.save(
                fingerprint,
                result.model,
                spec=working.to_dict(),
                stats=(
                    {} if result.report is None else result.report.to_dict()
                ),
            )
    return result
