"""Tests for the Prognosis facade."""

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.pool import SULPool
from repro.analysis import check_property, diff_models, parse_ltl, trace_reduction
from repro.analysis.equivalence import equivalent
from repro.framework import Prognosis
from repro.registry import RegistryError
from repro.spec import ComponentSpec, ExecutorSpec, ExperimentSpec, SpecError

EQUIVALENCE_CHAINS = {
    "wmethod": [ComponentSpec("wmethod")],
    "random": [ComponentSpec("random")],
    "random+wmethod": [ComponentSpec("random"), ComponentSpec("wmethod")],
}


def toy_spec(**fields) -> ExperimentSpec:
    """A spec labelled ``toy`` for a ready toy SUL passed as ``sul=``."""
    return ExperimentSpec(target="toy", **fields)


class TestConstruction:
    def test_default_pipeline(self, toy_machine):
        prognosis = Prognosis(toy_spec(), sul=MealySUL(toy_machine))
        assert prognosis.cache_oracle is not None
        assert prognosis.majority_oracle is None

    def test_without_cache(self, toy_machine):
        prognosis = Prognosis(toy_spec(middleware=[]), sul=MealySUL(toy_machine))
        assert prognosis.cache_oracle is None

    def test_with_nondeterminism_policy(self, toy_machine):
        middleware = [ComponentSpec("majority-vote", {"min_repeats": 2}), "cache"]
        prognosis = Prognosis(
            toy_spec(middleware=middleware), sul=MealySUL(toy_machine)
        )
        assert prognosis.majority_oracle is not None

    @pytest.mark.parametrize("learner", ["ttt", "lstar"])
    @pytest.mark.parametrize("equivalence", ["wmethod", "random", "random+wmethod"])
    def test_all_configurations_learn(self, toy_machine, learner, equivalence):
        spec = toy_spec(learner=learner, equivalence=EQUIVALENCE_CHAINS[equivalence])
        report = Prognosis(spec, sul=MealySUL(toy_machine)).learn()
        assert equivalent(report.model, toy_machine)


class TestOneConstructor:
    """A spec is the only way to configure a learn; ``sul=`` supplies a
    ready SUL and keeps every spec check but the target lookup."""

    def test_non_spec_first_argument_names_sul_keyword(self, toy_machine):
        with pytest.raises(TypeError, match="sul="):
            Prognosis(MealySUL(toy_machine))

    @pytest.mark.parametrize(
        "fields",
        [{"workers": 2}, {"executor": ExecutorSpec(kind="serial")}],
        ids=["workers", "executor"],
    )
    def test_ready_sul_refuses_a_pooled_spec(self, toy_machine, fields):
        with pytest.raises(ValueError, match="SULPool"):
            Prognosis(toy_spec(**fields), sul=MealySUL(toy_machine))

    @pytest.mark.parametrize("ready", [False, True], ids=["registry", "ready-sul"])
    def test_misspelled_equivalence_is_rejected(self, toy_machine, ready):
        spec = toy_spec(equivalence=[ComponentSpec("wmthod")])
        sul = MealySUL(toy_machine) if ready else None
        with pytest.raises(RegistryError, match="wmthod"):
            Prognosis(spec, sul=sul)

    @pytest.mark.parametrize("ready", [False, True], ids=["registry", "ready-sul"])
    def test_zero_batch_size_is_rejected(self, toy_machine, ready):
        sul = MealySUL(toy_machine) if ready else None
        with pytest.raises(SpecError, match="batch_size"):
            Prognosis(toy_spec(batch_size=0), sul=sul)

    def test_ready_sul_target_is_only_a_label(self, toy_machine):
        spec = ExperimentSpec(target="not-registered", name="labelled")
        with Prognosis(spec, sul=MealySUL(toy_machine)) as prognosis:
            report = prognosis.learn()
        assert prognosis.spec.target == "not-registered"
        assert report.model.name == "labelled"
        with pytest.raises(RegistryError):
            Prognosis(spec)

    def test_ready_pool_sets_workers(self, toy_machine):
        pool = SULPool(lambda: MealySUL(toy_machine), workers=3)
        with Prognosis(toy_spec(), sul=pool) as pooled:
            report = pooled.learn()
        assert pooled.workers == report.workers == 3

    @pytest.mark.parametrize(
        "fields, workers",
        [
            ({}, 1),
            ({"executor": ExecutorSpec(kind="thread", workers=3)}, 3),
            ({"executor": ExecutorSpec(kind="process", workers=2)}, 2),
        ],
        ids=["serial", "thread3", "process2"],
    )
    def test_registry_report_workers(self, fields, workers):
        spec = toy_spec(**fields)
        with Prognosis(spec) as prognosis:
            report = prognosis.learn()
        assert report.workers == spec.effective_executor().workers == workers


class TestReporting:
    def test_report_fields(self, toy_machine):
        prognosis = Prognosis(toy_spec(), sul=MealySUL(toy_machine))
        report = prognosis.learn()
        assert report.num_states == 3
        assert report.num_transitions == 6
        assert report.sul_queries > 0
        assert report.sul_resets > 0
        assert "states" in report.summary()

    def test_cache_hit_rate_reported(self, toy_machine):
        prognosis = Prognosis(toy_spec(), sul=MealySUL(toy_machine))
        report = prognosis.learn()
        assert 0.0 <= report.cache_hit_rate <= 1.0


class TestAnalysisHelpers:
    """The analysis functions take a learned model directly."""

    def test_check_property(self, toy_machine):
        report = Prognosis(toy_spec(), sul=MealySUL(toy_machine)).learn()
        violation = check_property(
            report.model, parse_ltl("G (in ~ SYN -> out != X)"), 3
        )
        assert violation is None  # no output is literally "X"

    def test_reduction(self, toy_machine):
        report = Prognosis(toy_spec(), sul=MealySUL(toy_machine)).learn()
        reduction = trace_reduction(report.model)
        assert reduction.total_traces > reduction.model_traces

    def test_compare(self, toy_machine, redundant_machine):
        diff = diff_models(toy_machine, redundant_machine)
        assert diff.equivalent
