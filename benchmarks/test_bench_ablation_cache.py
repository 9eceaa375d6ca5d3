"""A2 -- Ablation: the query cache of section 3.2's optimizations."""

from conftest import report

from repro.adapter.tcp_adapter import TCPAdapterSUL
from repro.framework import Prognosis
from repro.spec import ExperimentSpec


def test_ablation_cache_on_off():
    cached_report = Prognosis(
        ExperimentSpec(target="tcp", name="cached"), sul=TCPAdapterSUL(seed=3)
    ).learn()
    uncached_report = Prognosis(
        ExperimentSpec(target="tcp", middleware=[], name="uncached"),
        sul=TCPAdapterSUL(seed=3),
    ).learn()
    report(
        "A2 query cache",
        [
            ("SUL queries with cache", "-", cached_report.sul_queries),
            ("SUL queries without cache", "-", uncached_report.sul_queries),
            ("cache hit rate", "-", f"{cached_report.cache_hit_rate:.0%}"),
            (
                "query savings",
                "substantial",
                f"{uncached_report.sul_queries / cached_report.sul_queries:.2f}x",
            ),
        ],
    )
    assert cached_report.model.num_states == uncached_report.model.num_states
    assert cached_report.sul_queries < uncached_report.sul_queries
    assert cached_report.cache_hit_rate > 0.3
