"""Drivers for the four issues of paper section 6.2.

Each function reproduces one issue end to end -- the learning/analysis
pipeline plus the specific evidence the paper reports -- and returns a
small result object the benchmarks and examples assert on and print.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..analysis.diff import ModelDiff, diff_models
from ..core.alphabet import parse_quic_symbol
from ..framework import Prognosis
from ..learn.nondeterminism import (
    NondeterminismError,
    estimate_response_distribution,
)
from ..learn.teacher import SULMembershipOracle
from ..quic.impls.mvfst import MVFST_RESET_PROBABILITY
from ..quic.impls.tracker import TrackerConfig
from ..spec import ExperimentSpec
from ..synth.synthesizer import SynthesisResult
from .base import Experiment
from .quic_experiments import learn_quic, make_quic_sul


# ---------------------------------------------------------------------------
# Issue 1: RFC imprecision around post-RETRY packet-number-space resets
# ---------------------------------------------------------------------------

@dataclass
class Issue1Result:
    """Model-size divergence between strict and lenient implementations."""

    strict: Experiment
    lenient: Experiment
    diff: ModelDiff

    @property
    def sizes(self) -> tuple[int, int]:
        return self.strict.model.num_states, self.lenient.model.num_states


def issue1_retry_divergence(seed: int = 5) -> Issue1Result:
    """Learn Google-like (strict) and Quiche-like (lenient) models with the
    RETRY mechanism enabled and the reference client resetting its packet
    -number spaces on retry (QUIC-Tracker's behaviour).

    The paper noticed "vastly different sizes" between implementations'
    models; exploring the difference exposed the RFC ambiguity that was
    subsequently fixed ("a server MAY abort the connection when a client
    resets their Packet Number Spaces").
    """
    with learn_quic("google", seed=seed, retry_enabled=True) as strict, \
            learn_quic("quiche", seed=seed, retry_enabled=True) as lenient:
        return Issue1Result(
            strict=strict,
            lenient=lenient,
            diff=diff_models(strict.model, lenient.model),
        )


# ---------------------------------------------------------------------------
# Issue 2: nondeterministic stateless resets in mvfst
# ---------------------------------------------------------------------------

@dataclass
class Issue2Result:
    error: NondeterminismError
    distribution: Counter
    reset_rate: float
    expected_rate: float = MVFST_RESET_PROBABILITY


def issue2_nondeterminism(seed: int = 5, samples: int = 200) -> Issue2Result:
    """Reproduce the mvfst bug: after INITIAL[CRYPTO] followed by a
    client-sent HANDSHAKE_DONE the connection closes, and further packets
    are answered with a stateless RESET only ~82% of the time.

    Learning must abort with a NondeterminismError; the response
    distribution of the offending query quantifies the bug.
    """
    try:
        learn_quic("mvfst", seed=seed)
    except NondeterminismError as error:
        nondeterminism = error
    else:
        raise AssertionError("mvfst learning unexpectedly converged")

    # Quantify the reset rate on the paper's trigger sequence.
    sul = make_quic_sul("mvfst", seed=seed + 100)
    try:
        oracle = SULMembershipOracle(sul)
        word = (
            parse_quic_symbol("INITIAL(?,?)[CRYPTO]"),
            parse_quic_symbol("HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"),
            parse_quic_symbol("SHORT(?,?)[ACK,HANDSHAKE_DONE]"),
        )
        distribution = estimate_response_distribution(oracle, word, samples)
    finally:
        sul.close()
    resets = sum(
        count
        for outputs, count in distribution.items()
        if "STATELESS_RESET" in str(outputs[-1])
    )
    return Issue2Result(
        error=nondeterminism,
        distribution=distribution,
        reset_rate=resets / samples,
    )


# ---------------------------------------------------------------------------
# Issue 3: QUIC-Tracker re-sends the RETRY token from a random port
# ---------------------------------------------------------------------------

@dataclass
class Issue3Result:
    buggy: Experiment
    fixed: Experiment
    diff: ModelDiff

    @property
    def buggy_establishes(self) -> bool:
        return _can_establish(self.buggy)

    @property
    def fixed_establishes(self) -> bool:
        return _can_establish(self.fixed)


def _can_establish(experiment: Experiment) -> bool:
    """Does any handshake trace in the model produce a HANDSHAKE_DONE?"""
    ch = parse_quic_symbol("INITIAL(?,?)[CRYPTO]")
    hc = parse_quic_symbol("HANDSHAKE(?,?)[ACK,CRYPTO]")
    outputs = experiment.model.run((ch, hc))
    return any("HANDSHAKE_DONE" in str(output) for output in outputs)


def issue3_retry_port(seed: int = 5) -> Issue3Result:
    """Learn the same strict server with the buggy and fixed reference
    client.  With the bug, the token returns from a new random port,
    address validation fails, and the learned model shows connection
    establishment is impossible -- the discrepancy that exposed the bug in
    the *reference* implementation itself.
    """
    with learn_quic(
        "quiche",
        seed=seed,
        retry_enabled=True,
        tracker_config=TrackerConfig(
            retry_port_bug=True, reset_pn_spaces_on_retry=False
        ),
    ) as buggy, learn_quic(
        "quiche",
        seed=seed,
        retry_enabled=True,
        tracker_config=TrackerConfig(
            retry_port_bug=False, reset_pn_spaces_on_retry=False
        ),
    ) as fixed:
        return Issue3Result(
            buggy=buggy, fixed=fixed, diff=diff_models(buggy.model, fixed.model)
        )


# ---------------------------------------------------------------------------
# Issue 4: Google's STREAM_DATA_BLOCKED.maximum_stream_data is constant 0
# ---------------------------------------------------------------------------

@dataclass
class Issue4Result:
    buggy_synthesis: SynthesisResult
    fixed_synthesis: SynthesisResult
    buggy_constant: int | None
    fixed_constant: int | None


def _blocked_probe_words() -> list[tuple]:
    """Input words that block the server's response stream under *varied*
    flow-control limits (raise-then-block paths the learner's shortest
    -path exploration rarely takes).  These are the "more example traces"
    the paper's synthesis algorithm solicits."""
    ch = parse_quic_symbol("INITIAL(?,?)[CRYPTO]")
    hc = parse_quic_symbol("HANDSHAKE(?,?)[ACK,CRYPTO]")
    st = parse_quic_symbol("SHORT(?,?)[ACK,STREAM]")
    md = parse_quic_symbol("SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]")
    return [
        (ch, hc, st, st),
        (ch, hc, md, st, st),
        (ch, hc, md, md, st, st),
        (ch, hc, st, st, md, st, st),
        (ch, hc, md, st, st, md, st, st),
    ]


def _synthesize_sdb(prognosis: Prognosis, model) -> SynthesisResult:
    for word in _blocked_probe_words():
        prognosis.sul.query(word)
    synthesis = prognosis.synthesize(
        model,
        register_names=("r0",),
        output_fields=("max_stream_data",),
        input_fields=("max_stream_data",),
    )
    assert synthesis is not None, "STREAM_DATA_BLOCKED synthesis failed"
    return synthesis


def issue4_stream_data_blocked(seed: int = 5) -> Issue4Result:
    """Synthesize extended machines over the ``max_stream_data`` field of
    STREAM_DATA_BLOCKED frames for the buggy Google-like server and a
    fixed variant (appendix B.1).

    The buggy synthesis yields the constant 0 -- the forgotten development
    placeholder; the fixed server's values track live flow-control state,
    so no single constant fits them.
    """
    with learn_quic("google", seed=seed) as buggy:
        buggy_synthesis = _synthesize_sdb(buggy.prognosis, buggy.model)

    from ..quic.connection import QUICServer
    from ..quic.impls.google import google_profile
    from ..adapter.quic_adapter import QUICAdapterSUL

    def fixed_factory(network):
        profile = google_profile()
        profile.sdb_reports_zero = False
        return QUICServer(network, profile, seed=seed + 11)

    fixed_sul = QUICAdapterSUL(fixed_factory, seed=seed)
    fixed_spec = ExperimentSpec(target="quic-google-fixed", name="quic-google-fixed")
    with Prognosis(fixed_spec, sul=fixed_sul) as fixed_prognosis:
        fixed_report = fixed_prognosis.learn()
        fixed_synthesis = _synthesize_sdb(fixed_prognosis, fixed_report.model)
    return Issue4Result(
        buggy_synthesis=buggy_synthesis,
        fixed_synthesis=fixed_synthesis,
        buggy_constant=buggy_synthesis.constant_output("max_stream_data"),
        fixed_constant=fixed_synthesis.constant_output("max_stream_data"),
    )
