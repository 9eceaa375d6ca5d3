"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload learn-stream --seed 1 --seconds 20 --trace 0

The run sets the workload up five times (``setup_s`` is the median),
then repeats the workload for ``--seconds`` and reports medians over the
repetitions; it starts no repetition that would end past that time,
once it has two (``--trace 1``: one untraced and one traced).  Times are in reference seconds: wall time
corrected for the machine's pace, which ``pace.py`` probes throughout
the run.  ``--trace 0`` prints the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced repetitions, prints the per-layer metrics and writes the
spans to ``perfbench/out/trace-<workload>.jsonl``.  Every repetition
passes through the correctness gate; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, trace: bool):
    """Set up, then repeat the workload for ``seconds``."""
    from spans import Tracer

    setup_times = [workload.setup() for _ in range(SETUP_ROUNDS)]
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if trace and len(traced) < len(untraced):
            tracer.install()
            mark = tracer.mark()
            try:
                with tracer.active():
                    iteration = workload.run(tracer)
            finally:
                tracer.uninstall()
            iteration.trace = tracer.since(mark)
            traced.append(iteration)
        else:
            iteration = workload.run(tracer)
            untraced.append(iteration)
        workload.gate(iteration)
        now = time.perf_counter()
        enough = bool(traced and untraced) if trace else len(untraced) >= 2
        if enough and now + (now - started) > deadline:
            break
    return setup_times, untraced, traced, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    import report
    from pace import PACE, REFERENCE_PROBE_S
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    PACE.start()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_times, untraced, traced, tracer = measure(
            workload, args.seconds, bool(args.trace)
        )
    finally:
        PACE.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = untraced + traced
    attempted = sum(it.ops for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    e2e = report.end_to_end(
        setup_times, untraced, pooled=args.workload == "learn-pooled"
    )
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"repetitions: {len(untraced)} untraced, {len(traced)} traced")
    print(f"  pace: {len(PACE.samples)} probes, median "
          f"{statistics.median(PACE.samples or [0]) * 1e3:.3f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:.3f} ms)")
    summary = dict(e2e, ops=attempted, ops_failed=len(failures))
    for name, unit in (
        ("setup_s", "s"), ("learn_s", "s"), ("analyze_s", "s"), ("total_s", "s"),
        ("sul_queries", "count"), ("sul_steps", "count"), ("sul_resets", "count"),
        ("peak_rss_mb", "MB"), ("ops", "count"), ("ops_failed", "count"),
    ):
        print(f"  {name:<12} {summary[name]:>12.4f} {unit}" if unit != "count"
              else f"  {name:<12} {summary[name]:>12d} {unit}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    if args.trace:
        values = report.per_layer(untraced, traced)
        tracer.write(str(out_dir / f"trace-{args.workload}.jsonl"))
        wanted = declared["per_layer"]
    else:
        values = e2e
        wanted = declared["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
