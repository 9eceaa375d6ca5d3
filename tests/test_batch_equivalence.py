"""The pooled pipeline must learn byte-identical models to the serial one.

Acceptance test for the batch-first refactor: with ``workers=4`` the TCP
and QUIC experiment SULs must produce the same states, the same
transitions, and the same counterexample sequence as the serial run --
parallelism may only change wall-clock, never what is learned.
"""

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.pool import SULPool
from repro.experiments.quic_experiments import learn_quic
from repro.experiments.tcp_experiments import learn_tcp_full, learn_tcp_handshake
from repro.framework import Prognosis
from repro.learn.equivalence import ChainedEquivalenceOracle
from repro.spec import ComponentSpec, ExperimentSpec

CHAINED = [ComponentSpec("random"), ComponentSpec("wmethod")]


class TestPooledEqualsSerial:
    def test_tcp_full(self, assert_identical_models):
        serial = learn_tcp_full(workers=1)
        pooled = learn_tcp_full(workers=4)
        assert_identical_models(serial.model, pooled.model)
        assert serial.report.counterexamples == pooled.report.counterexamples
        assert serial.report.sul_queries == pooled.report.sul_queries
        assert pooled.report.workers == 4

    def test_tcp_handshake(self, assert_identical_models):
        serial = learn_tcp_handshake(workers=1)
        pooled = learn_tcp_handshake(workers=4)
        assert_identical_models(serial.model, pooled.model)
        assert serial.report.counterexamples == pooled.report.counterexamples

    def test_quic_quiche(self, assert_identical_models):
        serial = learn_quic("quiche", workers=1)
        pooled = learn_quic("quiche", workers=4)
        assert_identical_models(serial.model, pooled.model)
        assert serial.report.counterexamples == pooled.report.counterexamples
        assert serial.report.sul_queries == pooled.report.sul_queries

    def test_toy_machine_all_learners(self, toy_machine, assert_identical_models):
        for learner in ("ttt", "lstar"):
            spec = ExperimentSpec(target="toy", learner=learner)
            serial = Prognosis(
                spec, sul=SULPool(lambda: MealySUL(toy_machine), workers=1)
            ).learn()
            pooled = Prognosis(
                spec, sul=SULPool(lambda: MealySUL(toy_machine), workers=4)
            ).learn()
            assert_identical_models(serial.model, pooled.model)
            assert serial.counterexamples == pooled.counterexamples


class TestReportPlumbing:
    def test_eq_attribution_single_oracle(self, toy_machine):
        report = Prognosis(
            ExperimentSpec(target="toy"), sul=MealySUL(toy_machine)
        ).learn()
        assert "wmethod" in report.eq_attribution
        stats = report.eq_attribution["wmethod"]
        assert stats["words_submitted"] > 0
        assert stats["counterexamples_found"] == len(report.counterexamples)

    def test_eq_attribution_chained(self, toy_machine):
        prognosis = Prognosis(
            ExperimentSpec(target="toy", equivalence=CHAINED),
            sul=MealySUL(toy_machine),
        )
        report = prognosis.learn()
        assert set(report.eq_attribution) == {"random", "wmethod"}
        assert isinstance(prognosis.equivalence_oracle, ChainedEquivalenceOracle)
        total_found = sum(
            stats["counterexamples_found"]
            for stats in report.eq_attribution.values()
        )
        assert total_found == len(report.counterexamples)
        # Every round submits words to the first oracle in the chain.
        assert report.eq_attribution["random"]["words_submitted"] > 0

    def test_last_found_by_names_the_finder(self, toy_machine):
        prognosis = Prognosis(
            ExperimentSpec(target="toy", equivalence=CHAINED),
            sul=MealySUL(toy_machine),
        )
        report = prognosis.learn()
        chained = prognosis.equivalence_oracle
        if report.counterexamples:
            assert chained.last_found_by in {"random", "wmethod"}

    def test_prefix_collapse_reported(self):
        report = learn_tcp_full(workers=1).report
        assert report.prefix_collapsed > 0

    def test_workers_require_factory(self, toy_machine):
        # Spec workers build a pool from the target registry; a ready SUL
        # is one instance, so parallelism there needs a caller-built pool.
        with pytest.raises(ValueError):
            Prognosis(ExperimentSpec(target="toy", workers=4), sul=MealySUL(toy_machine))
        with pytest.raises(TypeError):
            Prognosis()
