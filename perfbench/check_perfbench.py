"""The benchmark's own tests.

Run from the root of a checkout (about three minutes)::

    python3 -m pytest perfbench/check_perfbench.py -q

The file name keeps these tests out of the default ``pytest`` run: they
run every workload, which takes longer than the unit tests.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pace  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, LearnStream, load_references  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*argv: str) -> tuple[list[str], dict]:
    """Run ``run.py`` in-process; returns its output lines and last-line JSON."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def one_iteration(workload, tracer=None):
    workload.setup()
    tracer = tracer or Tracer()
    iteration = workload.run(tracer)
    workload.gate(iteration)
    return iteration


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run_benchmark(
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace),
        )
        expected = {m["name"]: m["unit"] for m in DECLARED[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert any("seed: 3" in line for line in lines)
        for name in ("setup_s", "learn_s", "total_s", "peak_rss_mb"):
            if trace == 0:
                assert result["metrics"][name]["value"] > 0


def test_interaction_table_covers_every_per_layer_metric():
    groups = json.loads((BENCH_DIR / "interactions.json").read_text())["groups"]
    listed = [name for group in groups for name in group["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in DECLARED["per_layer"])
    workloads = {w["name"] for w in DECLARED["workloads"]}
    for group in groups:
        for name in group["on"] + group["still"]:
            assert name.split(":")[0] in workloads or name.startswith("the workloads")


def test_planted_wrong_reference_fails_the_gate(tmp_path):
    references = load_references()
    references["tcp"] = references["tcp-no-challenge-ack"]
    workload = LearnStream(1, tmp_path, references=references)
    workload.targets = ("tcp",)
    iteration = one_iteration(workload)
    assert iteration.ops == 1
    assert len(iteration.failures) == 1
    assert "tcp (cold)" in iteration.failures[0]


def test_span_tree_is_well_formed(tmp_path):
    from repro.adapter.sul import SUL

    original = SUL.__dict__["query"]
    workload = LearnStream(1, tmp_path)
    workload.targets = ("tcp", "http3")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.active():
            iteration = one_iteration(workload, tracer)
    finally:
        tracer.uninstall()
    assert SUL.__dict__["query"] is original
    assert not iteration.failures
    spans = {span[0]: span for span in tracer.spans}
    names = {span[2] for span in spans.values()}
    assert {"target", "learner", "eq", "cache", "sul.query", "netsim"} <= names
    for span_id, parent, name, start, end, self_s, _ in spans.values():
        assert start <= end
        assert self_s >= -1e-9, name
        if parent is not None:
            _, _, parent_name, parent_start, parent_end, _, _ = spans[parent]
            assert parent_start <= start and end <= parent_end, (name, parent_name)
    children: dict[int, float] = {}
    for span_id, parent, _, start, end, _, _ in spans.values():
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    for span_id, _, _, start, end, self_s, _ in spans.values():
        assert self_s == pytest.approx(end - start - children.get(span_id, 0.0), abs=1e-9)
    iteration.trace = tracer
    layers = report.layer_metrics(iteration)
    assert layers["trace.coverage"] > 0.9
    assert layers["sul_queries"] == layers["cache.forwarded"]


def test_second_seed_gives_identical_counts_on_learn_stream(tmp_path):
    runs = []
    for seed in (1, 2):
        iteration = one_iteration(LearnStream(seed, tmp_path / str(seed)))
        assert not iteration.failures
        runs.append(iteration)
    assert report.sul_counts(runs[0]) == report.sul_counts(runs[1]) == {
        "sul_queries": 3597,
        "sul_steps": 17335,
        "sul_resets": 3597,
    }
    for first, second in zip(runs[0].learns, runs[1].learns):
        assert first.report.model.to_dict() == second.report.model.to_dict()


def test_pace_turns_wall_into_reference_seconds(monkeypatch):
    clock = iter([10.0, 14.0])
    monkeypatch.setattr(pace, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    p = pace.Pace()
    mark = p.mark()
    # Probes twice as slow as the reference's own pace, 1 s spent probing.
    p.samples = [pace.REFERENCE_PROBE_S * 2 ** (1 / pace.SENSITIVITY)] * 5
    p.probe_s = 1.0
    assert p.since(mark) == pytest.approx((14.0 - 10.0 - 1.0) / 2)


def test_pace_probes_only_while_running():
    p = pace.Pace()
    assert p.since(p.mark()) >= 0  # no samples: wall seconds
    p.start()
    try:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    finally:
        p.stop()
    taken = len(p.samples)
    deadline = time.perf_counter() + 0.25
    while time.perf_counter() < deadline:
        pass
    assert len(p.samples) == taken >= 2
    assert p.probe_s == pytest.approx(sum(p.samples))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
