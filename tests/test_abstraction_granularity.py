"""Abstraction-granularity experiments (paper section 5, Remark 3.1).

Nondeterminism has two causes: (1) an abstraction so coarse that distinct
concrete behaviours collapse onto one abstract input, and (2) the
implementation misbehaving.  Issue-2 tests cover (2); these tests cover
(1): an ambiguous abstract symbol whose concretization the adapter picks
arbitrarily makes learning fail with a NondeterminismError -- the signal
that the user must refine the abstraction.

Remark 3.1's companion: TCP initial sequence numbers are random, so
synthesizing over *raw* sequence numbers cannot generalize; rebasing them
(the adapter's default) makes the register pattern synthesizable.
"""

import pytest

from repro.adapter.tcp_adapter import TCPAdapterSUL
from repro.core.alphabet import parse_tcp_symbol, tcp_handshake_alphabet
from repro.experiments import learn_quic
from repro.learn.nondeterminism import NondeterminismError, NondeterminismPolicy
from repro.quic.impls.tracker import TrackerConfig
from repro.synth import synthesize
from repro.synth.terms import ConstTerm


class TestCoarseAbstractionNondeterminism:
    def test_ambiguous_stream_symbol_breaks_learning(self):
        """Reason (1): the same abstract query gets different answers."""
        with pytest.raises(NondeterminismError):
            learn_quic(
                "quiche",
                tracker_config=TrackerConfig(ambiguous_stream_abstraction=True),
                nondeterminism_policy=NondeterminismPolicy(
                    min_repeats=3, max_repeats=8, certainty=0.95
                ),
            )

    def test_refined_abstraction_learns_fine(self):
        """The refined (default) abstraction is deterministic."""
        experiment = learn_quic(
            "quiche",
            tracker_config=TrackerConfig(ambiguous_stream_abstraction=False),
            nondeterminism_policy=NondeterminismPolicy(
                min_repeats=2, max_repeats=6, certainty=0.95
            ),
        )
        assert experiment.model.num_states == 8


class TestRemark31RandomSequenceNumbers:
    def _handshake_traces(self, relative: bool):
        sul = TCPAdapterSUL(
            alphabet=tcp_handshake_alphabet(), relative_numbers=relative
        )
        syn = parse_tcp_symbol("SYN(?,?,0)")
        ack = parse_tcp_symbol("ACK(?,?,0)")
        for _ in range(4):  # four sessions, four random ISNs
            sul.query((syn, ack))
        # Learn a tiny skeleton for the synthesis sketch.
        from repro.framework import Prognosis
        from repro.spec import ExperimentSpec

        spec = ExperimentSpec(target="tcp-handshake", name="hs")
        model = Prognosis(spec, sul=sul).learn().model
        return model, sul.oracle_table.concrete_traces()

    def test_raw_sequence_numbers_do_not_generalize(self):
        model, traces = self._handshake_traces(relative=False)
        result = synthesize(
            model,
            traces,
            register_names=("r",),
            output_fields=("an",),
            max_branches=60_000,
        )
        # Either no machine fits, or the only fit is trace-specific (the
        # random ISNs cannot be produced by one shared term, so any found
        # assignment cannot be a single shared constant).
        if result is not None:
            syn_terms = result.output_terms("an")
            assert not any(
                isinstance(term, ConstTerm) for term in syn_terms.values()
            )

    def test_rebased_numbers_synthesize_cleanly(self):
        model, traces = self._handshake_traces(relative=True)
        result = synthesize(
            model, traces, register_names=("r",), output_fields=("an",)
        )
        assert result is not None
        # All rebased handshakes agree: the SYN response acks sn+1 == 1.
        for trace in traces:
            assert result.machine.consistent_with(list(trace))
