"""Pin the reference models the benchmark's correctness gate compares with.

Usage, from the root of a checkout::

    python3 perfbench/pin_reference.py

Learns each of the eight targets live, serially, with its default spec
and default params, and writes ``perfbench/reference/<target>.json``.
Re-pin only when a change is meant to alter a learned model.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.framework import Prognosis  # noqa: E402
from repro.spec import ExperimentSpec  # noqa: E402
from workloads import MODEL_TARGETS, REFERENCE_DIR  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for target in MODEL_TARGETS:
        with Prognosis.from_spec(ExperimentSpec(target=target)) as prognosis:
            report = prognosis.learn()
        path = REFERENCE_DIR / f"{target}.json"
        path.write_text(json.dumps(report.model.to_dict(), indent=1) + "\n")
        print(f"{target}: {report.num_states} states -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
