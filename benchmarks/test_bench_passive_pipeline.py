"""P1 -- Bulk-trace passive pipeline: recovery rate, coverage, identity.

The bulk passive->active pipeline's paper-level claims, measured:

* **Recovery rate** -- how many states RPNI recovers per logged input
  symbol ("trace token") as netsim session corpora grow, against the
  pure-active baseline's query bill for the same targets.
* **Full-corpus warm path** -- a covering corpus (one active run's
  observation set) must carry refinement to completion with **zero** SUL
  resets, mirroring ``repro ci``'s warm store path.
* **Identity** -- the refined model must be byte-identical to the
  pure-active model on every target and every executor backend
  (serial == thread == process): corpus seeding and scheduling change
  where answers come from, never what is learned.
"""

import json

from conftest import report

from repro.framework import Prognosis
from repro.learn.bulk import (
    bulk_passive_learn,
    generate_corpus,
    record_full_corpus,
)
from repro.spec import ExperimentSpec

TARGETS = ("tcp", "http2", "http3")
CORPUS_SESSIONS = (50, 200, 800)
EXECUTOR_CELLS = (("serial", 1), ("thread", 2), ("process", 2))


def _active_baseline(target: str):
    # name is pinned everywhere: pool SULs embed worker info in their name,
    # which would leak into model bytes and mask real (non-)identity.
    with Prognosis.from_spec(
        ExperimentSpec(target=target, seed=7, name=target)
    ) as prognosis:
        return prognosis.learn()


def test_states_recovered_per_trace_token(tmp_path_factory):
    """RPNI recovery rate on growing netsim corpora vs the active bill."""
    tmp = tmp_path_factory.mktemp("passive-recovery")

    out = {}
    for target in TARGETS:
        active = _active_baseline(target)
        curve = []
        for sessions in CORPUS_SESSIONS:
            corpus = tmp / f"{target}-{sessions}.jsonl"
            spec = ExperimentSpec(
                target=target,
                seed=7,
                name=target,
                middleware=["cache"],
                corpus=str(corpus),
            )
            generate_corpus(spec, corpus, num_sessions=sessions)
            result = bulk_passive_learn(spec, refine=False)
            tokens = result.corpus_stats.tokens
            states = result.passive_model.num_states
            curve.append(
                {
                    "tokens": tokens,
                    "passive_states": states,
                    "states_per_kilo_token": round(1000 * states / tokens, 3),
                }
            )
        out[target] = {"active_states": active.num_states, "curve": curve}
    report(
        "P1 passive recovery rate",
        [
            (
                f"{target} ({row['curve'][-1]['tokens']} tokens)",
                f"{row['active_states']} states",
                f"{row['curve'][-1]['passive_states']} states "
                f"({row['curve'][-1]['states_per_kilo_token']}/ktoken)",
            )
            for target, row in out.items()
        ],
    )
    for target, row in out.items():
        curve = row["curve"]
        # More sessions never lose states, and the largest corpus should
        # recover most of the true machine.
        states = [point["passive_states"] for point in curve]
        assert states == sorted(states), f"{target}: recovery regressed {states}"
        assert states[-1] >= row["active_states"] - 1


def test_full_corpus_needs_zero_resets(tmp_path_factory):
    """A covering corpus pre-answers everything: 0 SUL resets, same model."""
    tmp = tmp_path_factory.mktemp("passive-full")

    out = {}
    for target in TARGETS:
        corpus = tmp / f"{target}-full.jsonl"
        spec = ExperimentSpec(
            target=target,
            seed=7,
            name=target,
            middleware=["cache"],
            corpus=str(corpus),
        )
        record_full_corpus(spec, corpus)
        result = bulk_passive_learn(spec)
        active = _active_baseline(target)
        out[target] = {
            "sul_resets": result.refined.sul_resets,
            "sul_queries": result.refined.sul_queries,
            "corpus_hit_rate": round(result.refined.corpus_hit_rate, 4),
            "identical": json.dumps(result.model.to_dict(), sort_keys=True)
            == json.dumps(active.model.to_dict(), sort_keys=True),
            "states": result.model.num_states,
        }
    report(
        "P1 full-corpus warm path",
        [
            (
                target,
                "0 resets, identical",
                f"{row['sul_resets']} resets, "
                f"{'identical' if row['identical'] else 'DIVERGED'} "
                f"({row['states']} states)",
            )
            for target, row in out.items()
        ],
    )
    for target, row in out.items():
        assert row["sul_resets"] == 0, f"{target}: warm path touched the SUL"
        assert row["sul_queries"] == 0
        assert row["identical"], f"{target}: refined model diverged from active"
        assert row["corpus_hit_rate"] > 0.99


def test_refined_identity_across_executors(tmp_path_factory):
    """serial == thread == process == pure-active refined model bytes."""
    tmp = tmp_path_factory.mktemp("passive-executors")
    out = {}
    for target in TARGETS:
        corpus = tmp / f"{target}.jsonl"
        base = ExperimentSpec(
            target=target,
            seed=7,
            name=target,
            middleware=["cache"],
            corpus=str(corpus),
        )
        generate_corpus(base, corpus, num_sessions=120)
        active = json.dumps(
            _active_baseline(target).model.to_dict(), sort_keys=True
        )
        models = {}
        for kind, workers in EXECUTOR_CELLS:
            spec = base.clone(
                workers=workers, executor={"kind": kind, "workers": workers}
            )
            result = bulk_passive_learn(spec)
            models[kind] = json.dumps(result.model.to_dict(), sort_keys=True)
        out[target] = {
            "identical_across_executors": len(set(models.values())) == 1,
            "matches_active": all(m == active for m in models.values()),
        }
    report(
        "P1 refined-model identity",
        [
            (
                target,
                "identical",
                "identical"
                if row["identical_across_executors"] and row["matches_active"]
                else "DIVERGED",
            )
            for target, row in out.items()
        ],
    )
    for target, row in out.items():
        assert row["identical_across_executors"], f"{target}: executors diverged"
        assert row["matches_active"], f"{target}: refined != active"
