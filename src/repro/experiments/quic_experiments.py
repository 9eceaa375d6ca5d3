"""QUIC experiment drivers: E4 (learned models) and E5 (trace reduction).

Paper targets (section 6.2.2): Google's model has 12 states and 84
transitions (24,301 queries on the authors' setup); Quiche's has 8 states
and 56 transitions (12,301 queries); mvfst cannot be learned
deterministically.  The trace-space statistic: 329,554,456 traces of
length <= 10 over the 7-symbol alphabet versus 1,210 / 715 model traces.

Like the TCP drivers, these wrap :class:`~repro.spec.ExperimentSpec` runs
against the ``quic-<implementation>`` registry targets.
"""

from __future__ import annotations

from dataclasses import asdict

from ..adapter.quic_adapter import QUICAdapterSUL, build_quic_sul
from ..analysis.statistics import TraceReduction, trace_reduction
from ..learn.nondeterminism import NondeterminismPolicy
from ..quic.impls.tracker import TrackerConfig
from ..spec import ComponentSpec, ExperimentSpec
from .base import Experiment

PAPER_GOOGLE_STATES = 12
PAPER_GOOGLE_TRANSITIONS = 84
PAPER_QUICHE_STATES = 8
PAPER_QUICHE_TRANSITIONS = 56
PAPER_GOOGLE_QUERIES = 24_301
PAPER_QUICHE_QUERIES = 12_301
PAPER_TOTAL_TRACES = 329_554_456
PAPER_GOOGLE_MODEL_TRACES = 1210
PAPER_QUICHE_MODEL_TRACES = 715


def make_quic_sul(
    implementation: str,
    seed: int = 5,
    retry_enabled: bool = False,
    tracker_config: TrackerConfig | None = None,
) -> QUICAdapterSUL:
    """Build the SUL for one named implementation (registry-backed)."""
    return build_quic_sul(
        implementation,
        seed=seed,
        retry_enabled=retry_enabled,
        tracker_config=tracker_config,
    )


def learn_quic(
    implementation: str,
    seed: int = 5,
    learner: str = "ttt",
    extra_states: int = 1,
    retry_enabled: bool = False,
    tracker_config: TrackerConfig | None = None,
    nondeterminism_policy: NondeterminismPolicy | None = None,
    workers: int = 1,
) -> Experiment:
    """Learn one QUIC implementation's model.

    Raises :class:`NondeterminismError` for mvfst (with the default
    policy), exactly as Prognosis's nondeterminism check does.  With
    ``workers > 1`` the query batches are fanned across a pool of
    identically-seeded adapter instances.
    """
    if nondeterminism_policy is None and implementation == "mvfst":
        nondeterminism_policy = NondeterminismPolicy(
            min_repeats=3, max_repeats=8, certainty=0.95
        )
    target_params: dict = {"seed": seed, "retry_enabled": retry_enabled}
    if tracker_config is not None:
        target_params["tracker_config"] = asdict(tracker_config)
    middleware = []
    if nondeterminism_policy is not None:
        middleware.append(
            ComponentSpec(
                "majority-vote",
                {
                    "min_repeats": nondeterminism_policy.min_repeats,
                    "max_repeats": nondeterminism_policy.max_repeats,
                    "certainty": nondeterminism_policy.certainty,
                },
            )
        )
    middleware.append(ComponentSpec("cache"))
    return Experiment.run(
        ExperimentSpec(
            target=f"quic-{implementation}",
            target_params=target_params,
            learner=learner,
            equivalence=[ComponentSpec("wmethod", {"extra_states": extra_states})],
            middleware=middleware,
            workers=workers,
            name=f"quic-{implementation}",
        )
    )


def quic_trace_reduction(experiment: Experiment) -> TraceReduction:
    """E5: raw trace count vs model test-suite size for one model."""
    return trace_reduction(experiment.model, max_length=10)
