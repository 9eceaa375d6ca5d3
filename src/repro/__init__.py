"""Prognosis: closed-box learning and analysis of protocol implementations.

A reproduction of "Prognosis: Closed-Box Analysis of Network Protocol
Implementations" (Ferreira, Brewton, D'Antoni, Silva -- SIGCOMM 2021).

Quickstart (a serializable spec; components resolve from the registries)::

    from repro import ExperimentSpec, Prognosis

    with Prognosis(ExperimentSpec(target="tcp")) as prognosis:
        report = prognosis.learn()
    print(report.summary())          # 6 states, 42 transitions
    print(report.model.to_dot())     # appendix-style GraphViz rendering

A ready SUL (a custom implementation or a ``SULPool``) goes in as
``sul=``; the spec still configures the learner, oracles and cache::

    from repro.adapter.tcp_adapter import TCPAdapterSUL

    spec = ExperimentSpec(target="tcp")  # with sul=, target is a label
    report = Prognosis(spec, sul=TCPAdapterSUL(seed=3)).learn()

A campaign runs a grid of specs::

    from repro import Campaign

    results = Campaign.grid(
        targets=("tcp", "quic-google"), learners=("ttt", "lstar")
    ).run()
"""

from .adapter.pool import SULPool
from .campaign import Campaign, RunResult, run_spec
from .framework import LearningReport, Prognosis
from .registry import (
    EQ_ORACLE_REGISTRY,
    LEARNER_REGISTRY,
    MIDDLEWARE_REGISTRY,
    SUL_REGISTRY,
    Registry,
    load_builtins,
)
from .spec import ComponentSpec, ExperimentSpec, SpecError

__version__ = "1.2.0"

__all__ = [
    "Campaign",
    "ComponentSpec",
    "EQ_ORACLE_REGISTRY",
    "ExperimentSpec",
    "LEARNER_REGISTRY",
    "LearningReport",
    "MIDDLEWARE_REGISTRY",
    "Prognosis",
    "Registry",
    "RunResult",
    "SpecError",
    "SUL_REGISTRY",
    "SULPool",
    "load_builtins",
    "run_spec",
    "__version__",
]
