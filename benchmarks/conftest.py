"""Shared plumbing for the paper-number tests.

Each test runs its experiment once, asserts the paper's (or the
extension's) numbers, and prints a ``paper vs measured`` row block that
``pytest -s`` shows.  These are correctness tests; speed is measured by
``perfbench/`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import pytest


def report(experiment_id: str, rows: list[tuple[str, object, object]]) -> None:
    """Print a paper-vs-measured table row block."""
    print(f"\n[{experiment_id}]")
    for name, paper, measured in rows:
        print(f"  {name:<38} paper: {paper!s:>14}  measured: {measured!s:>14}")


@pytest.fixture(scope="session")
def quic_google():
    from repro.experiments import learn_quic

    return learn_quic("google")


@pytest.fixture(scope="session")
def quic_quiche():
    from repro.experiments import learn_quic

    return learn_quic("quiche")


@pytest.fixture(scope="session")
def tcp_full():
    from repro.experiments import learn_tcp_full

    return learn_tcp_full()
