"""Tests for the component registries: error paths and mutation semantics."""

import pytest

from repro.registry import (
    EQ_ORACLE_REGISTRY,
    LEARNER_REGISTRY,
    MIDDLEWARE_REGISTRY,
    Registry,
    RegistryError,
    SUL_REGISTRY,
    attacks_for,
    load_builtins,
    resolve_targets,
    supported_kwargs,
)


@pytest.fixture
def registry():
    return Registry("widget")


class TestErrorPaths:
    def test_unknown_name_lists_registered_keys(self, registry):
        registry.register("alpha", lambda: "a")
        registry.register("beta", lambda: "b")
        with pytest.raises(RegistryError) as err:
            registry.create("gamma")
        message = str(err.value)
        assert "gamma" in message
        assert "alpha, beta" in message  # sorted, comma-joined
        assert "widget" in message

    def test_empty_registry_message_says_none(self, registry):
        with pytest.raises(RegistryError, match="<none>"):
            registry.get("anything")

    def test_registry_error_is_a_key_error(self, registry):
        with pytest.raises(KeyError):
            registry.get("missing")

    def test_create_forwards_args_and_kwargs(self, registry):
        registry.register("pair", lambda a, b=0: (a, b))
        assert registry.create("pair", 1, b=2) == (1, 2)


class TestMutation:
    def test_reregistration_replaces_factory(self, registry):
        registry.register("name", lambda: "old")
        registry.register("name", lambda: "new")
        assert registry.create("name") == "new"
        assert len(registry) == 1  # replaced, not duplicated

    def test_reregistration_keeps_original_order(self, registry):
        registry.register("first", lambda: 1)
        registry.register("second", lambda: 2)
        registry.register("first", lambda: 10)
        assert registry.names() == ("first", "second")

    def test_unregister_missing_name_is_noop(self, registry):
        registry.unregister("never-registered")  # must not raise
        assert len(registry) == 0

    def test_unregister_removes_entry(self, registry):
        registry.register("gone", lambda: None)
        registry.unregister("gone")
        assert "gone" not in registry
        with pytest.raises(RegistryError):
            registry.get("gone")

    def test_decorator_form_returns_function(self, registry):
        @registry.register("decorated")
        def factory():
            return 42

        assert factory() == 42  # decorator hands the function back
        assert registry.create("decorated") == 42


class TestFamilies:
    def test_groups_by_stem_with_bare_key_first(self, registry):
        for name in ("quic-quiche", "quic-google", "http2", "http2-buggy", "toy"):
            registry.register(name, lambda: None)
        families = registry.families()
        assert families["quic"] == ("quic-google", "quic-quiche")
        assert families["http2"] == ("http2", "http2-buggy")
        assert families["toy"] == ("toy",)

    def test_empty_registry_has_no_families(self, registry):
        assert registry.families() == {}

    def test_builtin_quic_family(self):
        load_builtins()
        assert SUL_REGISTRY.families()["quic"] == (
            "quic-google",
            "quic-mvfst",
            "quic-quiche",
        )

    def test_builtin_tcp_family_includes_the_ablation(self):
        load_builtins()
        assert SUL_REGISTRY.families()["tcp"] == (
            "tcp",
            "tcp-handshake",
            "tcp-no-challenge-ack",
        )


class TestResolveTargets:
    def test_exact_key_resolves_to_itself(self):
        assert resolve_targets(["http2-buggy"]) == ("http2-buggy",)

    def test_family_stem_expands_to_members(self):
        assert resolve_targets(["quic"]) == (
            "quic-google",
            "quic-mvfst",
            "quic-quiche",
        )

    def test_one_member_family_expands(self):
        # A plug-in family of one variant is still named by its stem.
        SUL_REGISTRY.register("solo-variant", lambda: None)
        try:
            assert resolve_targets(["solo"]) == ("solo-variant",)
            assert resolve_targets(["toy"]) == ("toy",)
        finally:
            SUL_REGISTRY.unregister("solo-variant")

    def test_sole_registered_stem_still_expands(self):
        # `repro difftest http3` relies on the bare stem expanding when
        # it is the only argument, even though `http3` is itself a key.
        assert resolve_targets(["http3"]) == ("http3", "http3-buggy")

    def test_registered_stem_beside_others_stays_bare(self):
        assert resolve_targets(["http3", "tcp-handshake"]) == (
            "http3",
            "tcp-handshake",
        )

    def test_exact_mode_suppresses_expansion(self):
        assert resolve_targets(["http3"], exact=True) == ("http3",)

    def test_overlapping_names_dedupe_in_first_mention_order(self):
        assert resolve_targets(["quic", "quic-google"]) == (
            "quic-google",
            "quic-mvfst",
            "quic-quiche",
        )

    def test_unknown_target_lists_targets_and_families(self):
        with pytest.raises(RegistryError) as err:
            resolve_targets(["spdy"])
        message = str(err.value)
        assert "spdy" in message
        assert "http3" in message
        assert "quic" in message  # families offered alongside exact keys

    def test_bare_family_stem_in_exact_mode_is_unknown(self):
        # `quic` is only a stem, never a registered key.
        with pytest.raises(RegistryError):
            resolve_targets(["quic"], exact=True)

    def test_allow_unknown_passes_names_through(self):
        assert resolve_targets(
            ["specs/custom.json"], allow_unknown=True
        ) == ("specs/custom.json",)


class TestBuiltins:
    def test_all_protocol_targets_registered(self):
        load_builtins()
        for target in ("tcp", "quic-google", "http2", "http2-buggy", "toy"):
            assert target in SUL_REGISTRY
        for learner in ("ttt", "lstar"):
            assert learner in LEARNER_REGISTRY
        assert "wmethod" in EQ_ORACLE_REGISTRY
        assert "cache" in MIDDLEWARE_REGISTRY

    def test_supported_kwargs_filters_by_signature(self):
        def factory(seed: int = 0):
            return seed

        params = {"seed": 7, "batch_size": 64}
        assert supported_kwargs(factory, params) == {"seed": 7}

    def test_supported_kwargs_passes_all_to_var_keyword(self):
        def factory(**kwargs):
            return kwargs

        params = {"seed": 7, "batch_size": 64}
        assert supported_kwargs(factory, params) == params


class TestAttacksFor:
    """The per-target attacker discovery the CLI/campaign lean on."""

    def test_family_stem_resolution(self):
        assert attacks_for("tcp") == ("off-path-rst", "challenge-ack-exhaust")
        assert attacks_for("tcp-no-challenge-ack") == attacks_for("tcp")
        assert attacks_for("http2-buggy") == ("rapid-reset",)

    def test_unspoken_target_is_empty_not_an_error(self):
        assert attacks_for("quic-google") == ()
        assert attacks_for("toy") == ()

    def test_unknown_attacker_error_lists_registered_keys(self):
        from repro.attack.automata import ATTACK_REGISTRY

        with pytest.raises(RegistryError) as err:
            ATTACK_REGISTRY.get("quantum-leap")
        message = str(err.value)
        assert "quantum-leap" in message
        assert "challenge-ack-exhaust" in message
