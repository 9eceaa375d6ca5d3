"""S1 -- Scaling: executor backends vs serial, and prefix collapse.

The batch-first pipeline's levers, measured separately:

* **SUL pooling** -- a latency-injected TCP adapter (0.3 ms per step,
  standing in for the network round-trips a real closed-box SUL pays)
  learned serially vs on a 4-worker thread pool.  Learned models must be
  identical; pooled wall-clock must beat serial; the deterministic
  sharding must keep per-worker load balanced.
* **Executor matrix** -- serial vs thread vs process backends on a
  CPU-bound simulator SUL (where the GIL caps threads and only processes
  scale) and on the real-boundary socket SUL (where threads scale fine,
  because queries wait on the wire).  Every cell's model must equal
  serial's.
* **Prefix collapse** -- one W-method suite submitted through the cache
  planner with collapse on vs off: within-batch prefix-closure answers a
  measurable share of the suite without touching the SUL.

The matrix speedup assertions need >= 4 usable cores -- a 1-core box
cannot exhibit process parallelism regardless of backend correctness.
The model-identity assertions always run.
"""

import json
import os
import statistics
import time

from conftest import report

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.pool import SULPool
from repro.adapter.tcp_adapter import TCPAdapterSUL
from repro.framework import Prognosis
from repro.learn.cache import CachedMembershipOracle
from repro.learn.equivalence import WMethodEquivalenceOracle
from repro.learn.teacher import SULMembershipOracle
from repro.registry import RegistryFactory
from repro.spec import ComponentSpec, ExperimentSpec

STEP_LATENCY = 0.0003  # 0.3 ms per exchanged symbol
POOL_WORKERS = 4
#: Alternating serial/pooled learns in the pool-scaling test; the medians
#: are compared.
PAIRS = 5
#: CPU-bound speedup needs actual CPUs: a 1-core box cannot run worker
#: processes in parallel no matter how correct the backend is, so the
#: timing assertions (never the identity ones) are gated on core count.
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)
ASSERT_TIMINGS = CORES >= POOL_WORKERS
#: Iterations of pure-Python arithmetic per step: ~0.3-0.5 ms of work the
#: GIL refuses to parallelize.
BUSY_LOOP = 4000
#: W-method extra states for the matrix learns.
MATRIX_EXTRA_STATES = 1

MATRIX_CELLS = (("serial", 1), ("thread", POOL_WORKERS), ("process", POOL_WORKERS))


class LatentTCPSUL(TCPAdapterSUL):
    """TCP adapter with a per-step delay standing in for network RTT."""

    def _step_impl(self, symbol):
        time.sleep(STEP_LATENCY)
        return super()._step_impl(symbol)


class BusyTCPSUL(TCPAdapterSUL):
    """TCP adapter that *computes* per step: the CPU-bound scaling case.

    Module-level (hence picklable) so the process backend can build it
    inside its worker processes.
    """

    def _step_impl(self, symbol):
        acc = 0
        for i in range(BUSY_LOOP):
            acc += i * i
        return super()._step_impl(symbol)


def _busy_sul():
    return BusyTCPSUL(seed=3)


def _latent_sul():
    return LatentTCPSUL(seed=3)


def _socket_sul_factory():
    """The real-boundary SUL: the TCP simulator behind its own server
    process, reached over the wire protocol.  A RegistryFactory so the
    process backend can rebuild it in its children."""
    return RegistryFactory(
        "remote", {"target": "tcp", "seed": 3, "step_delay": STEP_LATENCY}
    )


def _learn_on(kind, workers, sul_factory, name):
    spec = ExperimentSpec(
        target=name,
        equivalence=[ComponentSpec("wmethod", {"extra_states": MATRIX_EXTRA_STATES})],
        name=name,
    )
    pool = SULPool(sul_factory, workers, name=name, backend=kind)
    prognosis = Prognosis(spec, sul=pool)
    start = time.perf_counter()
    try:
        learning_report = prognosis.learn()
        per_worker = prognosis.sul.per_worker_queries()
    finally:
        prognosis.close()
    return learning_report, time.perf_counter() - start, per_worker


def _assert_balanced(per_worker):
    """Sharding skews by at most one word per batch, so tiny
    totals get absolute slack; real runs must stay within a tight ratio."""
    assert min(per_worker) > 0
    spread_ok = max(per_worker) - min(per_worker) <= 2
    ratio_ok = max(per_worker) / min(per_worker) < 1.6
    assert spread_ok or ratio_ok, f"unbalanced shards: {per_worker}"


def _run_matrix(sul_factory, label):
    serial_model = None
    rows = {}
    for kind, workers in MATRIX_CELLS:
        learning_report, wall, per_worker = _learn_on(
            kind, workers, sul_factory, name=label
        )
        if kind == "serial":
            serial_model = learning_report.model
            serial_wall = wall
        rows[kind] = {
            "workers": workers,
            "wall_s": round(wall, 4),
            "speedup_vs_serial": round(serial_wall / wall, 3),
            "sul_queries": learning_report.sul_queries,
            "model_matches_serial": (
                learning_report.model.to_dict() == serial_model.to_dict()
            ),
            "per_worker_queries": per_worker,
        }
    return rows


def test_pool_scaling_vs_serial():
    # Alternate serial and pooled learns so drift on a shared box lands
    # on both sides; compare medians, not single samples.
    pairs = [
        (
            _learn_on("serial", 1, _latent_sul, "tcp"),
            _learn_on("thread", POOL_WORKERS, _latent_sul, "tcp"),
        )
        for _ in range(PAIRS)
    ]
    serial_wall = statistics.median(serial[1] for serial, _ in pairs)
    pooled_wall = statistics.median(pooled[1] for _, pooled in pairs)
    (serial_report, _, _), (pooled_report, _, per_worker) = pairs[0]
    report(
        "S1 SUL pool scaling",
        [
            (f"serial wall-clock (median of {PAIRS})", "-", f"{serial_wall:.2f}s"),
            (
                f"pooled wall-clock (w={POOL_WORKERS}, median of {PAIRS})",
                "-",
                f"{pooled_wall:.2f}s",
            ),
            ("speedup", f"< {POOL_WORKERS}x", f"{serial_wall / pooled_wall:.2f}x"),
            ("serial SUL queries", "-", serial_report.sul_queries),
            ("pooled SUL queries", "same", pooled_report.sul_queries),
            ("per-worker queries", "balanced", per_worker),
        ],
    )
    for (serial_report, _, _), (pooled_report, _, per_worker) in pairs:
        # Parallelism must not change what is learned ...
        assert serial_report.model.states == pooled_report.model.states
        assert serial_report.counterexamples == pooled_report.counterexamples
        assert serial_report.sul_queries == pooled_report.sul_queries
        # ... nor skew the deterministic sharding: every worker gets
        # its fair share (small batches pin to low workers, hence the slack).
        assert sum(per_worker) == pooled_report.sul_queries
        _assert_balanced(per_worker)
    # ... only how fast (generous margin: CI boxes are noisy).
    assert pooled_wall < serial_wall


def test_executor_matrix_cpu_bound():
    """Serial vs thread vs process on a SUL that burns CPU per step.

    The paper-level claim behind the process backend: pure-Python SUL
    work is GIL-bound, so threads cannot scale it -- worker processes
    can, while learning the exact same model.
    """
    rows = _run_matrix(_busy_sul, "tcp")
    report(
        "S1 executor matrix (CPU-bound SUL)",
        [
            (
                f"{kind} wall-clock (w={row['workers']})",
                "-",
                f"{row['wall_s']:.2f}s ({row['speedup_vs_serial']:.2f}x)",
            )
            for kind, row in rows.items()
        ],
    )
    for kind, row in rows.items():
        assert row["model_matches_serial"], f"{kind} learned a different model"
        assert row["sul_queries"] == rows["serial"]["sul_queries"]
    _assert_balanced(rows["process"]["per_worker_queries"])
    if ASSERT_TIMINGS:
        assert rows["process"]["speedup_vs_serial"] > 2.0
        assert rows["thread"]["speedup_vs_serial"] < 1.3


def test_executor_matrix_socket_sul():
    """The same matrix across the real process/socket boundary.

    Socket queries wait on the wire, so here the *thread* backend scales
    too -- and the boundary must not change the learned model either.
    """
    rows = _run_matrix(_socket_sul_factory(), "tcp")
    report(
        "S1 executor matrix (socket SUL)",
        [
            (
                f"{kind} wall-clock (w={row['workers']})",
                "-",
                f"{row['wall_s']:.2f}s ({row['speedup_vs_serial']:.2f}x)",
            )
            for kind, row in rows.items()
        ],
    )
    for kind, row in rows.items():
        assert row["model_matches_serial"], f"{kind} learned a different model"
        assert row["sul_queries"] == rows["serial"]["sul_queries"]
    if ASSERT_TIMINGS:
        assert rows["thread"]["speedup_vs_serial"] > 1.5


IDENTITY_TARGETS = ("tcp", "quic-google", "http2")


def test_executor_model_identity_across_targets():
    """serial == thread == process model bytes on every paper target.

    This is the acceptance gate: the executor is a scheduling decision,
    and scheduling must never leak into what gets learned.
    """
    from repro.campaign import run_spec

    out = {}
    for target in IDENTITY_TARGETS:
        models = {}
        for kind, workers in MATRIX_CELLS:
            spec = ExperimentSpec(
                target=target,
                seed=7,
                name=target,
                workers=workers,
                executor={"kind": kind, "workers": workers},
            )
            result = run_spec(spec)
            assert result.ok, f"{target}/{kind}: {result.error}"
            models[kind] = json.dumps(
                result.model.minimize().to_dict(), sort_keys=True
            )
        out[target] = {
            "identical": len(set(models.values())) == 1,
            "states": result.model.minimize().num_states,
        }
    report(
        "S1 executor model identity",
        [
            (
                target,
                "identical",
                f"{'identical' if row['identical'] else 'DIVERGED'} "
                f"({row['states']} states)",
            )
            for target, row in out.items()
        ],
    )
    assert all(row["identical"] for row in out.values())


def test_prefix_collapse_reduces_sul_queries(tcp_full):
    model = tcp_full.model

    def run_suite(collapse: bool):
        sul = MealySUL(model)
        oracle = CachedMembershipOracle(
            SULMembershipOracle(sul), collapse_prefixes=collapse
        )
        eq = WMethodEquivalenceOracle(oracle, extra_states=1, batch_size=256)
        assert eq.find_counterexample(model) is None
        return eq.last_suite_size, sul.stats.queries, oracle.prefix_collapsed

    suite, with_collapse, collapsed = run_suite(collapse=True)
    _, without_collapse, _ = run_suite(collapse=False)
    report(
        "S1 prefix collapse (W-method suite)",
        [
            ("suite words", "-", suite),
            ("SUL runs without collapse", "-", without_collapse),
            ("SUL runs with collapse", "fewer", with_collapse),
            ("words answered by a longer run", "-", collapsed),
            ("saving", "-", f"{1 - with_collapse / without_collapse:.0%}"),
        ],
    )
    assert with_collapse < without_collapse
    assert collapsed == without_collapse - with_collapse
