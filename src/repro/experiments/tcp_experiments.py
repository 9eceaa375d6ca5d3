"""TCP experiment drivers: E1 (Fig. 3b), E2 (Fig. 3c / Fig. 4), E3 (6.1).

Paper targets: the full TCP model has 6 states and 42 transitions (learned
with 4,726 membership queries on the authors' setup); the handshake
fragment is Fig. 3(b); the synthesized register machine recovers
``r = sn + 1`` -- the server acknowledging the client's sequence number.

The drivers are thin wrappers that build an
:class:`~repro.spec.ExperimentSpec` against the ``tcp`` /
``tcp-handshake`` registry targets and run it -- the same path ``repro
run`` and :class:`~repro.campaign.Campaign` use.
"""

from __future__ import annotations

from ..core.mealy import MealyMachine
from ..core.alphabet import parse_tcp_symbol
from ..spec import ComponentSpec, ExperimentSpec
from ..synth.synthesizer import SynthesisResult
from .base import Experiment

PAPER_TCP_STATES = 6
PAPER_TCP_TRANSITIONS = 42
PAPER_TCP_QUERIES = 4726


def learn_tcp_full(
    seed: int = 3, learner: str = "ttt", extra_states: int = 1, workers: int = 1
) -> Experiment:
    """E3: learn the 7-symbol model of the Linux-like stack.

    ``workers > 1`` runs the membership-query batches on a pool of
    identically-seeded adapter instances (same learned model, parallel
    execution).
    """
    return Experiment.run(
        ExperimentSpec(
            target="tcp",
            target_params={"seed": seed},
            learner=learner,
            equivalence=[ComponentSpec("wmethod", {"extra_states": extra_states})],
            workers=workers,
            name="tcp-linux",
        )
    )


def learn_tcp_handshake(seed: int = 3, workers: int = 1) -> Experiment:
    """E1: learn the Fig. 3(b) fragment over the 2-symbol alphabet."""
    return Experiment.run(
        ExperimentSpec(
            target="tcp-handshake",
            target_params={"seed": seed},
            workers=workers,
            name="tcp-handshake",
        )
    )


def synthesize_handshake_registers(
    experiment: Experiment | None = None,
    registers: tuple[str, ...] = ("r",),
) -> SynthesisResult | None:
    """E2: recover the sequence-number logic of Fig. 3(c).

    Synthesizes over the handshake model's oracle table; the expected
    solution outputs ``an = sn + 1`` on the SYN transition (the server
    acknowledges the client's ISN plus one).
    """
    if experiment is None:
        experiment = learn_tcp_handshake()
    return experiment.prognosis.synthesize(
        experiment.model,
        register_names=registers,
        output_fields=("an",),
    )


def handshake_expectation() -> list[tuple[str, str]]:
    """The Fig. 3(b) fragment as (input, output) labels for assertions."""
    return [
        ("SYN(?,?,0)", "ACK+SYN(?,?,0)"),
        ("ACK(?,?,0)", "NIL"),
    ]


def run_handshake(model: MealyMachine) -> list[tuple[str, str]]:
    """Drive the learned model through the 3-way handshake."""
    syn = parse_tcp_symbol("SYN(?,?,0)")
    ack = parse_tcp_symbol("ACK(?,?,0)")
    outputs = model.run((syn, ack))
    return [(str(syn), str(outputs[0])), (str(ack), str(outputs[1]))]
