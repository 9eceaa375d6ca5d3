"""HTTP/2 experiment drivers: the third closed-box workload.

The paper's core claim is that the learner/oracle machinery is
protocol-agnostic: only the adapter pair (alpha, gamma) changes per
target.  These drivers exercise that claim with a protocol none of the
machinery was written against.  The conformant in-process server learns
as a minimal 5-state machine (handshake pending, ready, request open,
ready-after-response, closed); seeding the
RST_STREAM-on-closed-stream bug collapses ready and
ready-after-response into one state, yielding 4 -- a model-level diff a
property check pins to the offending transition.
"""

from __future__ import annotations

from ..spec import ComponentSpec, ExperimentSpec
from .base import Experiment

#: The conformant server's learned model (see module docstring).
EXPECTED_HTTP2_STATES = 5
EXPECTED_HTTP2_TRANSITIONS = 35
#: The ``rst_on_closed_bug`` server's model: two states merge.
EXPECTED_HTTP2_BUGGY_STATES = 4


def learn_http2(
    seed: int = 9,
    learner: str = "ttt",
    extra_states: int = 1,
    workers: int = 1,
    rst_on_closed_bug: bool = False,
) -> Experiment:
    """Learn the in-process HTTP/2 server over the 7-symbol frame alphabet.

    ``rst_on_closed_bug`` seeds the section 5.1 violation;
    ``workers > 1`` fans membership-query batches across a pool of
    identically-seeded adapter instances (same model, parallel execution).
    """
    target_params: dict = {"seed": seed}
    if rst_on_closed_bug:
        target_params["rst_on_closed_bug"] = True
    return Experiment.run(
        ExperimentSpec(
            target="http2",
            target_params=target_params,
            learner=learner,
            equivalence=[ComponentSpec("wmethod", {"extra_states": extra_states})],
            workers=workers,
            name="http2-buggy" if rst_on_closed_bug else "http2",
        )
    )


def run_http2_handshake(model) -> list[tuple[str, str]]:
    """Drive a learned model through the SETTINGS handshake + one request."""
    from ..core.alphabet import parse_http2_symbol

    settings = parse_http2_symbol("SETTINGS[]")
    request = parse_http2_symbol("HEADERS[END_HEADERS,END_STREAM]")
    outputs = model.run((settings, request))
    return [
        (str(settings), str(outputs[0])),
        (str(request), str(outputs[1])),
    ]
