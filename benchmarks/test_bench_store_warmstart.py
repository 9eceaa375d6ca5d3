"""S2 -- Persistent store warm-start: cold vs warm learning cost.

A learning run through an empty :class:`~repro.store.query_store
.QueryStore` pays the full SUL bill once; re-learning the same spec
through the populated store must answer (nearly) every membership query
from sqlite and touch the SUL **zero** times, while producing a
byte-identical model.  Measured per target (tcp, quic-google, http2):
cold vs warm wall-clock and SUL query counts.

Identity assertions always run; wall-clock numbers are reported but
never asserted (a loaded runner proves nothing about sqlite being faster
than a simulator).
"""

import json
import time
from pathlib import Path

from conftest import report

from repro.campaign import run_spec
from repro.spec import ExperimentSpec

TARGETS = ("tcp", "quic-google", "http2")


def _timed_run(spec: ExperimentSpec, store: Path):
    start = time.perf_counter()
    result = run_spec(spec, store=str(store))
    elapsed = time.perf_counter() - start
    assert result.ok, result.error
    return result, elapsed


def test_store_warmstart_cold_vs_warm(tmp_path):
    rows = []
    for target in TARGETS:
        store = tmp_path / f"{target}.sqlite"
        spec = ExperimentSpec(target=target, name=target)
        cold, cold_s = _timed_run(spec, store)
        warm, warm_s = _timed_run(spec, store)

        assert json.dumps(warm.model.to_dict(), sort_keys=True) == json.dumps(
            cold.model.to_dict(), sort_keys=True
        ), f"{target}: warm model differs from cold"
        assert warm.report.sul_queries == 0, target
        assert warm.report.sul_resets == 0, target
        assert warm.report.store_hit_rate >= 0.9, target

        cold_queries = cold.report.sul_queries
        rows.append(
            (
                f"{target} SUL queries cold->warm",
                f"{cold_queries} -> 0",
                f"{cold_queries} -> {warm.report.sul_queries}",
            )
        )
        rows.append(
            (
                f"{target} wall-clock cold->warm",
                "warm ~free",
                f"{cold_s:.2f}s -> {warm_s:.2f}s",
            )
        )
    report("store-warmstart", rows)
