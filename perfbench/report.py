"""Metrics of one benchmark run, derived from its iterations.

Times are medians over the run's iterations.  End-to-end metrics come
from untraced iterations only; per-layer metrics come from traced ones,
except the per-target learn times, which are untraced.  Iteration and
learn times are reference seconds (see ``pace.py``); span times are wall
seconds, and take in the pace probes that fire inside them (about 0.5 %).
"""

from __future__ import annotations

import resource
import statistics

from workloads import LEARN_TARGETS


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _reports(iteration, modes=None):
    return [
        record.report
        for record in iteration.learns
        if record.report is not None and (modes is None or record.mode in modes)
    ]


def sul_counts(iteration) -> dict[str, int]:
    reports = _reports(iteration)
    return {
        "sul_queries": sum(r.sul_queries for r in reports),
        "sul_steps": sum(r.sul_steps for r in reports),
        "sul_resets": sum(r.sul_resets for r in reports),
    }


def peak_rss_mb(pooled: bool) -> float:
    """Peak resident memory of this process, plus its largest worker."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024


def end_to_end(setup_times, iterations, pooled: bool) -> dict[str, float]:
    """Every end-to-end metric, plus the ones that may read zero."""
    values = {
        "setup_s": _median(setup_times),
        "learn_s": _median(it.learn_s for it in iterations),
        "analyze_s": _median(it.analyze_s for it in iterations),
        "total_s": _median(it.learn_s + it.analyze_s for it in iterations),
        "peak_rss_mb": peak_rss_mb(pooled),
    }
    values.update(sul_counts(iterations[-1]))
    return values


def _weighted(reports, rate: str) -> float:
    """A per-learn hit rate weighted by each learn's learner queries."""
    total = sum(r.oracle_queries for r in reports)
    if not total:
        return 0.0
    return sum(getattr(r, rate) * r.oracle_queries for r in reports) / total


def layer_metrics(iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    trace = iteration.trace
    table = trace.totals()

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def self_s(name):
        return table[name]["self_s"] if name in table else 0.0

    def calls(name):
        return table[name]["calls"] if name in table else 0

    reports = _reports(iteration)
    counts = sul_counts(iteration)
    mq = sum(r.oracle_queries for r in reports)
    eq_words = sum(
        s["words_submitted"] for r in reports for s in r.eq_attribution.values()
    )
    eq_cex = sum(
        s["counterexamples_found"] for r in reports for s in r.eq_attribution.values()
    )
    workers: list[int] = []
    for record in iteration.learns:
        for index, queries in enumerate(record.worker_queries):
            if index == len(workers):
                workers.append(0)
            workers[index] += queries
    sul_query_s = total("sul.query")
    roots = [s for s in trace.spans if s[2] == "target"]
    rooted_s = sum(end - start for _, _, _, start, end, _, _ in roots)
    glue_s = sum(s[5] for s in roots)
    analysis = iteration.analysis
    metrics = {
        "learner.self_s": self_s("learner"),
        "learner.rounds": sum(r.rounds for r in reports),
        "learner.mq": mq,
        "eq.s": total("eq"),
        "eq.self_s": self_s("eq"),
        "eq.suite_s": total("eq.suite"),
        "eq.words": eq_words,
        "eq.cex": eq_cex,
        "eq.share": eq_words / mq if mq else 0.0,
        "cache.self_s": self_s("cache"),
        "cache.hit_rate": _weighted(reports, "cache_hit_rate"),
        "cache.deduped": sum(r.batch_deduped for r in reports),
        "cache.prefix_collapsed": sum(r.prefix_collapsed for r in reports),
        "cache.forwarded": trace.count("cache.forwarded"),
        "cache.trie_nodes": sum(record.cache_nodes for record in iteration.learns),
        "store.open_s": total("store.open"),
        "store.words_loaded": sum(record.store_words for record in iteration.learns),
        "store.hit_rate": _weighted(_reports(iteration, {"store"}), "store_hit_rate"),
        "store.close_s": total("store.close"),
        "corpus.open_s": total("corpus.open"),
        "corpus.hit_rate": _weighted(_reports(iteration, {"corpus"}), "corpus_hit_rate"),
        "pool.start_s": total("pool.start"),
        "pool.map_s": total("pool.map"),
        "pool.parent_s": self_s("pool"),
        "pool.batches": calls("pool"),
        "pool.batch_words": (
            trace.count("cache.forwarded") / calls("pool") if calls("pool") else 0.0
        ),
        "pool.balance": max(workers) / min(workers) if workers and min(workers) else 0.0,
        "sul.query_s": sul_query_s,
        "sul.reset_s": total("sul.reset"),
        "sul.step_us": (
            (sul_query_s - total("sul.reset")) / counts["sul_steps"] * 1e6
            if sul_query_s and counts["sul_steps"]
            else 0.0
        ),
        # Spans are wall seconds, learn_s is reference seconds.
        "sul.share": sul_query_s / rooted_s if rooted_s else 0.0,
        "adapter.exchange_s": total("adapter.exchange"),
        "adapter.abstract_s": total("adapter.abstract"),
        "quic.crypto_s": total("quic.seal", "quic.open"),
        "quic.seal_calls": calls("quic.seal"),
        "quic.open_calls": calls("quic.open"),
        "quic.hkdf_calls": trace.count("quic.hkdf"),
        "quic.frames_calls": trace.count("quic.frames"),
        "quic.varint_calls": trace.count("quic.varint"),
        "quic.server_s": total("quic.server"),
        "tcp.server_s": total("tcp.server"),
        "http2.server_s": total("http2.server"),
        "h3.server_s": total("h3.server"),
        "netsim.self_s": self_s("netsim"),
        "netsim.sent": sum(n.stats["sent"] for n in trace.networks),
        "netsim.delivered": sum(n.stats["delivered"] for n in trace.networks),
        "netsim.events": trace.count("netsim.events"),
        "analysis.check_s": total("analysis.check"),
        "analysis.ltl_evals": trace.count("analysis.ltl_evals"),
        "analysis.diff_s": total("analysis.diff"),
        "attack.search_s": total("attack.search"),
        "attack.states_expanded": analysis.states_expanded if analysis else 0,
        "attack.found": (
            sum(s is not None for s in analysis.attacks.values()) if analysis else 0
        ),
        "trace.coverage": 1 - glue_s / rooted_s if rooted_s else 0.0,
    }
    metrics.update(counts)
    for target in LEARN_TARGETS:
        own = [r.report for r in iteration.learns if r.target == target and r.report]
        metrics[f"target.{target}.sul_queries"] = sum(r.sul_queries for r in own)
        metrics[f"target.{target}.eq_words"] = sum(
            s["words_submitted"] for r in own for s in r.eq_attribution.values()
        )
    return metrics


def per_layer(untraced, traced) -> dict[str, float]:
    """Medians of the traced iterations' layer metrics, plus the untraced
    per-target learn times, ``analyze_s`` and the tracing overhead."""
    per_iteration = [layer_metrics(it) for it in traced]
    values = {
        name: _median(metrics[name] for metrics in per_iteration)
        for name in per_iteration[0]
    }
    for target in LEARN_TARGETS:
        values[f"target.{target}.learn_s"] = _median(
            sum(r.seconds for r in it.learns if r.target == target)
            for it in untraced
        )
    values["analyze_s"] = _median(it.analyze_s for it in untraced)
    untraced_learn_s = _median(it.learn_s for it in untraced)
    values["trace.overhead"] = (
        _median(it.learn_s for it in traced) / untraced_learn_s - 1
    )
    return values
