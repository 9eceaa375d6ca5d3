"""Tests for the declarative spec API: registries, specs, assembly."""

import json

import pytest

from repro.adapter.mealy_sul import MealySUL, toy_machine
from repro.framework import Prognosis
from repro.learn.cache import CachedMembershipOracle
from repro.learn.equivalence import (
    ChainedEquivalenceOracle,
    RandomWordEquivalenceOracle,
    WMethodEquivalenceOracle,
)
from repro.learn.nondeterminism import MajorityVoteOracle
from repro.netsim import LinkConfig
from repro.registry import (
    EQ_ORACLE_REGISTRY,
    LEARNER_REGISTRY,
    MIDDLEWARE_REGISTRY,
    Registry,
    RegistryError,
    SUL_REGISTRY,
    load_builtins,
    supported_kwargs,
)
from repro.spec import (
    ComponentSpec,
    ExperimentSpec,
    SpecError,
    assemble,
    build_sul,
)


class TestRegistry:
    def test_register_and_create(self):
        registry = Registry("widget")

        @registry.register("box")
        def build_box(size: int = 1):
            return ("box", size)

        assert "box" in registry
        assert registry.create("box", size=3) == ("box", 3)
        assert registry.names() == ("box",)

    def test_unknown_key_names_known_ones(self):
        registry = Registry("widget")
        registry.register("box", lambda: None)
        with pytest.raises(RegistryError, match="box"):
            registry.get("sphere")

    def test_builtins_registered(self):
        load_builtins()
        for name in ("tcp", "tcp-handshake", "quic-google", "quic-quiche",
                     "quic-mvfst", "toy"):
            assert name in SUL_REGISTRY
        assert {"ttt", "lstar"} <= set(LEARNER_REGISTRY.names())
        assert {"wmethod", "random"} <= set(EQ_ORACLE_REGISTRY.names())
        assert {"cache", "majority-vote"} <= set(MIDDLEWARE_REGISTRY.names())

    def test_supported_kwargs_filters(self):
        def fn(a, b=1):
            return a, b

        assert supported_kwargs(fn, {"b": 2, "c": 3}) == {"b": 2}

        def fn_kwargs(a, **rest):
            return a, rest

        assert supported_kwargs(fn_kwargs, {"b": 2, "c": 3}) == {"b": 2, "c": 3}


class TestExperimentSpecSerialization:
    def test_json_round_trip_is_lossless(self):
        spec = ExperimentSpec(
            target="quic-google",
            target_params={"seed": 7, "retry_enabled": True},
            learner="lstar",
            learner_params={"max_rounds": 50},
            equivalence=[
                ComponentSpec("random", {"num_words": 100}),
                ComponentSpec("wmethod", {"extra_states": 2}),
            ],
            middleware=[
                ComponentSpec("majority-vote", {"min_repeats": 2}),
                ComponentSpec("cache"),
            ],
            workers=4,
            seed=13,
            batch_size=32,
            name="g-lstar",
        )
        round_tripped = ExperimentSpec.from_json(spec.to_json())
        assert round_tripped == spec
        assert round_tripped.to_dict() == spec.to_dict()
        # JSON text itself is stable across a second round trip.
        assert round_tripped.to_json() == spec.to_json()

    def test_component_string_shorthand(self):
        spec = ExperimentSpec.from_dict(
            {"target": "toy", "middleware": ["cache"], "equivalence": ["wmethod"]}
        )
        assert spec.middleware == [ComponentSpec("cache")]
        assert spec.equivalence == [ComponentSpec("wmethod")]

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="learnr"):
            ExperimentSpec.from_dict({"target": "toy", "learnr": "ttt"})

    def test_missing_target_rejected(self):
        with pytest.raises(SpecError, match="target"):
            ExperimentSpec.from_dict({"learner": "ttt"})

    def test_clone_is_independent(self):
        spec = ExperimentSpec(target="toy", target_params={"seed": 1})
        other = spec.clone(learner="lstar")
        other.target_params["seed"] = 99
        other.middleware[0].params["collapse_prefixes"] = False
        assert spec.target_params == {"seed": 1}
        assert spec.middleware[0].params == {}
        assert other.learner == "lstar"

    def test_validate_rejects_unknown_components(self):
        with pytest.raises(RegistryError):
            ExperimentSpec(target="no-such-protocol").validate()
        with pytest.raises(RegistryError):
            ExperimentSpec(target="toy", learner="no-such-learner").validate()

    def test_fingerprint_ignores_learner_and_seed(self):
        a = ExperimentSpec(target="toy", learner="ttt", seed=0)
        b = ExperimentSpec(target="toy", learner="lstar", seed=9)
        c = ExperimentSpec(target="toy", target_params={"seed": 1})
        assert a.sul_fingerprint() == b.sul_fingerprint()
        assert a.sul_fingerprint() != c.sul_fingerprint()


class TestPropertiesSpec:
    def test_properties_section_round_trips_losslessly(self):
        from repro.spec import PropertiesSpec

        spec = ExperimentSpec(
            target="toy",
            properties=PropertiesSpec(
                suite="toy",
                depth=7,
                formulas=["G (out != NIL)", "F (out == NIL)"],
                include_probes=True,
                minimize=False,
            ),
        )
        round_tripped = ExperimentSpec.from_json(spec.to_json())
        assert round_tripped == spec
        assert round_tripped.to_json() == spec.to_json()

    def test_absent_section_stays_none(self):
        spec = ExperimentSpec.from_dict({"target": "toy"})
        assert spec.properties is None
        assert ExperimentSpec.from_json(spec.to_json()).properties is None

    def test_section_accepted_as_mapping(self):
        spec = ExperimentSpec.from_dict(
            {"target": "toy", "properties": {"depth": 3}}
        )
        assert spec.properties.depth == 3
        assert spec.properties.formulas == []
        assert spec.properties.minimize is True

    def test_unknown_properties_keys_rejected(self):
        with pytest.raises(SpecError, match="dpeth"):
            ExperimentSpec.from_dict(
                {"target": "toy", "properties": {"dpeth": 3}}
            )

    def test_clone_deep_copies_the_section(self):
        from repro.spec import PropertiesSpec

        spec = ExperimentSpec(
            target="toy", properties=PropertiesSpec(formulas=["G (out == NIL)"])
        )
        other = spec.clone(name="copy")
        other.properties.formulas.append("F (out == NIL)")
        assert spec.properties.formulas == ["G (out == NIL)"]

    def test_clone_can_attach_a_section(self):
        from repro.spec import PropertiesSpec

        spec = ExperimentSpec(target="toy")
        other = spec.clone(properties=PropertiesSpec(depth=2))
        assert spec.properties is None
        assert other.properties.depth == 2

    def test_validate_checks_depth_and_suite(self):
        from repro.spec import PropertiesSpec

        with pytest.raises(SpecError, match="depth"):
            ExperimentSpec(
                target="toy", properties=PropertiesSpec(depth=0)
            ).validate()
        with pytest.raises(RegistryError):
            ExperimentSpec(
                target="toy", properties=PropertiesSpec(suite="no-such-suite")
            ).validate()
        ExperimentSpec(
            target="toy", properties=PropertiesSpec(suite="tcp")
        ).validate()


class TestExecutorSpec:
    def test_round_trips_losslessly(self):
        from repro.spec import ExecutorSpec

        spec = ExperimentSpec(
            target="toy",
            executor=ExecutorSpec(kind="process", workers=4, timeout_s=30.0),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.executor.kind == "process"
        assert restored.executor.timeout_s == 30.0

    def test_string_shorthand(self):
        spec = ExperimentSpec(target="toy", executor="process")
        assert spec.executor.kind == "process"
        assert spec.executor.workers is None

    def test_absent_section_stays_none_and_serializes(self):
        spec = ExperimentSpec(target="toy")
        assert spec.executor is None
        assert spec.to_dict()["executor"] is None
        assert ExperimentSpec.from_dict(spec.to_dict()).executor is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown executor spec keys"):
            ExperimentSpec(target="toy", executor={"kind": "thread", "gpu": 1})

    def test_effective_executor_defaults(self):
        # no section: historical behaviour -- workers decide the backend
        assert ExperimentSpec(target="toy").effective_executor().kind == "serial"
        pooled = ExperimentSpec(target="toy", workers=4).effective_executor()
        assert (pooled.kind, pooled.workers) == ("thread", 4)

    def test_effective_executor_overrides_workers(self):
        spec = ExperimentSpec(
            target="toy", workers=2, executor={"kind": "process", "workers": 6}
        )
        assert spec.effective_executor().workers == 6
        inherit = ExperimentSpec(target="toy", workers=2, executor="process")
        assert inherit.effective_executor().workers == 2

    def test_validate_rejects_bad_executors(self):
        for bad in (
            {"executor": "gpu"},
            {"executor": "serial", "workers": 4},
            {"executor": {"kind": "process", "workers": 0}},
            {"executor": {"kind": "process", "timeout_s": -1.0}},
        ):
            workers = bad.pop("workers", 1)
            with pytest.raises(SpecError):
                ExperimentSpec(target="toy", workers=workers, **bad).validate()

    def test_fingerprint_ignores_executor(self):
        plain = ExperimentSpec(target="toy")
        parallel = ExperimentSpec(
            target="toy", workers=8, executor={"kind": "process"}
        )
        assert plain.sul_fingerprint() == parallel.sul_fingerprint()

    def test_clone_deep_copies_the_section(self):
        spec = ExperimentSpec(target="toy", executor={"kind": "process"})
        copy = spec.clone()
        copy.executor.kind = "thread"
        assert spec.executor.kind == "process"

    def test_build_sul_process_backend(self):
        from repro.adapter.pool import SULPool

        sul = build_sul(
            ExperimentSpec(
                target="toy",
                executor={"kind": "process", "workers": 2, "timeout_s": 60.0},
            )
        )
        try:
            assert isinstance(sul, SULPool)
            assert sul.backend == "process"
            assert sul.workers == 2
        finally:
            sul.close()

    def test_facade_process_backend_learns_identically(self, toy_machine):
        with Prognosis.from_spec(ExperimentSpec(target="toy", name="toy")) as serial:
            serial_report = serial.learn()
        spec = ExperimentSpec(
            target="toy", name="toy", executor={"kind": "process", "workers": 2}
        )
        with Prognosis.from_spec(spec) as pooled:
            pooled_report = pooled.learn()
            assert pooled.workers == 2
        assert pooled_report.model.to_dict() == serial_report.model.to_dict()
        assert pooled_report.sul_queries == serial_report.sul_queries

    @pytest.mark.parametrize("target", ["toy", "tcp"])
    def test_unnamed_spec_learns_one_model_on_every_executor(self, target):
        """Without a spec ``name`` the model is named after the SUL, and a
        pool carries its workers' name, so the executor never shows in
        the learned model."""
        models = []
        for executor, workers in (("serial", 1), ("thread", 2), ("process", 2)):
            spec = ExperimentSpec(target=target, workers=workers, executor=executor)
            with Prognosis(spec) as prognosis:
                models.append(prognosis.learn().model)
        serial = models[0]
        for pooled in models[1:]:
            assert pooled.to_dict() == serial.to_dict()
            assert pooled.to_dot() == serial.to_dot()


class TestAssembly:
    def test_pipeline_layers_match_spec(self):
        spec = ExperimentSpec(
            target="toy",
            equivalence=[
                ComponentSpec("random", {"num_words": 10}),
                ComponentSpec("wmethod"),
            ],
            middleware=[
                ComponentSpec("majority-vote", {"min_repeats": 2}),
                ComponentSpec("cache"),
            ],
        )
        pipeline = assemble(spec)
        assert isinstance(pipeline.middleware[0], MajorityVoteOracle)
        assert isinstance(pipeline.middleware[1], CachedMembershipOracle)
        assert pipeline.oracle is pipeline.middleware[-1]
        assert isinstance(pipeline.equivalence_oracle, ChainedEquivalenceOracle)
        chain = pipeline.equivalence_oracle.oracles
        assert isinstance(chain[0], RandomWordEquivalenceOracle)
        assert isinstance(chain[1], WMethodEquivalenceOracle)

    def test_spec_level_knobs_injected(self):
        spec = ExperimentSpec(
            target="toy",
            equivalence=[ComponentSpec("random", {"num_words": 10})],
            seed=42,
            batch_size=17,
        )
        pipeline = assemble(spec)
        eq = pipeline.equivalence_oracle
        assert eq.batch_size == 17
        # component params override spec-level injection
        spec2 = ExperimentSpec(
            target="toy",
            equivalence=[ComponentSpec("random", {"batch_size": 5})],
            batch_size=17,
        )
        assert assemble(spec2).equivalence_oracle.batch_size == 5

    def test_build_sul_pools_when_workers(self):
        from repro.adapter.pool import SULPool

        sul = build_sul(ExperimentSpec(target="toy", workers=3))
        try:
            assert isinstance(sul, SULPool)
            assert sul.workers == 3
        finally:
            sul.close()

    def test_spec_learn_matches_legacy_learn(self, toy_machine):
        with Prognosis.from_spec(ExperimentSpec(target="toy")) as spec_run:
            spec_report = spec_run.learn()
        with Prognosis(
            ExperimentSpec(target="toy"), sul=MealySUL(toy_machine, name="toy")
        ) as legacy_run:
            legacy_report = legacy_run.learn()
        assert spec_report.model.to_dict() == legacy_report.model.to_dict()
        assert spec_report.sul_queries == legacy_report.sul_queries


class TestPrognosisFacade:
    def test_context_manager_closes_pool(self):
        with Prognosis.from_spec(ExperimentSpec(target="toy", workers=2)) as p:
            report = p.learn()
            assert report.workers == 2
        # after close, the executor's thread pool is released
        assert p.sul._executor._pool is None

    def test_spec_and_sul_are_exclusive(self):
        # A ready sul runs as given, so it excludes the spec's own pool.
        with pytest.raises(ValueError):
            Prognosis(
                ExperimentSpec(target="toy", workers=2), sul=MealySUL(toy_machine())
            )

    def test_legacy_spec_recorded(self, toy_machine):
        spec = ExperimentSpec(
            target="toy", equivalence=[ComponentSpec("random"), ComponentSpec("wmethod")]
        )
        prognosis = Prognosis(spec, sul=MealySUL(toy_machine))
        assert prognosis.spec is spec
        assert prognosis.spec.learner == "ttt"
        assert [c.kind for c in prognosis.spec.equivalence] == ["random", "wmethod"]
        assert [c.kind for c in prognosis.spec.middleware] == ["cache"]

    def test_attribution_method_used(self, toy_machine):
        prognosis = Prognosis(ExperimentSpec(target="toy"), sul=MealySUL(toy_machine))
        report = prognosis.learn()
        assert report.eq_attribution == prognosis.equivalence_oracle.attribution()
        assert "wmethod" in report.eq_attribution

    def test_report_to_dict_is_jsonable(self, toy_machine):
        report = Prognosis(
            ExperimentSpec(target="toy"), sul=MealySUL(toy_machine)
        ).learn()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["num_states"] == 3
        assert data["eq_attribution"]["wmethod"]["words_submitted"] > 0


class TestLinkInSpec:
    """A JSON spec names a target's link as a mapping of LinkConfig fields."""

    @staticmethod
    def _spec(target, params):
        return ExperimentSpec.from_json(
            json.dumps({"target": target, "target_params": params})
        )

    @pytest.mark.parametrize("target", ["http2", "http2-buggy"])
    def test_link_mapping_learns_like_the_perfect_link(self, target):
        reports, links = [], []
        for params in ({"seed": 11, "link": {"jitter": 0.002}}, {"seed": 11}):
            with Prognosis(self._spec(target, params)) as prognosis:
                reports.append(prognosis.learn())
                links.append(prognosis.sul.transport.network.config)
        jittery, perfect = reports
        assert links == [LinkConfig(jitter=0.002), LinkConfig()]
        assert jittery.model.to_dict() == perfect.model.to_dict()
        # A jittery link refuses snapshots, so every query replays.
        assert jittery.snapshots == 0 < perfect.snapshots

    def test_bad_link_fields_are_named(self):
        with pytest.raises(TypeError, match="jiter"):
            build_sul(self._spec("http2", {"link": {"jiter": 0.002}}))
        with pytest.raises(ValueError, match="loss_rate"):
            build_sul(self._spec("http3", {"link": {"loss_rate": 1.5}}))


class TestAttackSpec:
    def test_round_trips_losslessly(self):
        from repro.spec import AttackSpec

        spec = ExperimentSpec(
            target="toy",
            attack=AttackSpec(
                attacker="off-path-rst",
                objective="G (out != NIL)",
                budget=50,
                fuzz=True,
                max_suffix=3,
                corpus_out="attacks.jsonl",
            ),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.attack.attacker == "off-path-rst"
        assert restored.attack.fuzz is True
        assert restored.attack.clone() == restored.attack

    def test_string_shorthand_is_an_attacker_key(self):
        spec = ExperimentSpec(target="toy", attack="rapid-reset")
        assert spec.attack.attacker == "rapid-reset"
        assert spec.attack.budget == 200
        assert spec.attack.fuzz is False

    def test_absent_section_stays_none_and_serializes(self):
        spec = ExperimentSpec(target="toy")
        assert spec.attack is None
        assert spec.to_dict()["attack"] is None
        assert ExperimentSpec.from_dict(spec.to_dict()).attack is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown attack spec keys"):
            ExperimentSpec(target="toy", attack={"attacker": "x", "laser": 1})

    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(SpecError, match="positive attack budget"):
            ExperimentSpec(target="toy", attack={"budget": 0}).validate()
        with pytest.raises(SpecError, match="positive attack max_suffix"):
            ExperimentSpec(target="toy", attack={"max_suffix": 0}).validate()

    def test_validate_rejects_unknown_attacker(self):
        with pytest.raises(RegistryError, match="attacker automaton"):
            ExperimentSpec(target="toy", attack="not-an-attack").validate()

    def test_validate_rejects_bad_objective(self):
        with pytest.raises(SpecError, match="bad attack objective"):
            ExperimentSpec(
                target="toy", attack={"objective": "G (("}
            ).validate()

    def test_clone_carries_the_section(self):
        spec = ExperimentSpec(target="toy", attack="off-path-rst")
        clone = spec.clone(seed=3)
        assert clone.attack == spec.attack
        assert clone.attack is not spec.attack  # independent copy
