"""The one resolver from target names to run specs (``campaign.member_specs``).

Every verb over a list of members (``properties``, ``difftest``,
``attack``, ``ci``) and ``run_difftest`` build their specs here, so one
case per form pins the rules they all share.
"""

import json

import pytest

from repro.campaign import Campaign, DiffCampaign, member_specs, run_difftest
from repro.cli import main
from repro.spec import ExperimentSpec, SpecError


def names(specs):
    return [spec.display_name() for spec in specs]


class TestMemberForms:
    def test_exact_target_resolves_to_itself(self):
        [spec] = member_specs(["quic-google"])
        assert spec.target == "quic-google"
        assert spec.name == "quic-google"

    def test_family_expands_to_every_member(self):
        specs = member_specs("quic")
        assert names(specs) == ["quic-google", "quic-mvfst", "quic-quiche"]
        assert [spec.target for spec in specs] == names(specs)

    def test_sole_argument_rule(self):
        """A stem that is also a target expands only when named alone."""
        assert names(member_specs(["http2"])) == ["http2", "http2-buggy"]
        assert names(member_specs(["http2", "tcp-handshake"])) == [
            "http2",
            "tcp-handshake",
        ]

    def test_exact_suppresses_family_expansion(self):
        assert names(member_specs("http2", exact=True)) == ["http2"]

    def test_targets_clone_the_base(self):
        base = ExperimentSpec(target="toy", learner="lstar", seed=7, workers=2)
        [spec] = member_specs(["tcp-handshake"], base=base)
        assert (spec.learner, spec.seed, spec.workers) == ("lstar", 7, 2)
        assert base.target == "toy" and base.name is None  # base untouched

    def test_spec_file_is_named_by_its_stem(self, tmp_path):
        unnamed = tmp_path / "toy-lstar.json"
        unnamed.write_text(json.dumps({"target": "toy", "learner": "lstar"}))
        named = tmp_path / "other.json"
        named.write_text(json.dumps({"target": "toy", "name": "kept"}))
        specs = member_specs(["toy", str(unnamed), str(named)])
        assert names(specs) == ["toy", "toy-lstar", "kept"]
        assert specs[1].learner == "lstar"

    def test_base_executor_overrides_a_spec_file(self, tmp_path):
        path = tmp_path / "pooled.json"
        path.write_text(
            json.dumps({"target": "toy", "executor": "thread", "workers": 2})
        )
        [kept] = member_specs([str(path)])
        assert kept.executor.kind == "thread"
        base = ExperimentSpec(target="toy", executor="process", workers=3)
        [overridden] = member_specs([str(path)], base=base)
        assert overridden.executor.kind == "process"
        assert overridden.workers == 2  # only the executor comes from the base

    def test_unknown_name_raises_spec_error_naming_what_is_known(self):
        with pytest.raises(SpecError) as info:
            member_specs(["http9"])
        message = str(info.value)
        assert "unknown target 'http9'" in message
        assert "quic" in message and "http2-buggy" in message

    def test_malformed_spec_file_raises_spec_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError, match="cannot load spec"):
            member_specs([str(bad)])


class _Captured(Exception):
    pass


@pytest.fixture
def captured(monkeypatch):
    """Stop campaigns at ``run()`` and record what they were built with."""
    record = {}

    def capture(self):
        record["specs"] = [spec.to_json() for spec in self.specs]
        record["workers"] = self.workers
        raise _Captured

    monkeypatch.setattr(DiffCampaign, "run", capture)
    monkeypatch.setattr(Campaign, "run", capture)
    return record


class TestVerbsShareTheResolver:
    def test_run_difftest_and_the_cli_build_the_same_specs(self, captured):
        with pytest.raises(_Captured):
            run_difftest("http2")
        library = captured.pop("specs")
        with pytest.raises(_Captured):
            main(["difftest", "http2"])
        assert captured["specs"] == library
        assert len(library) == 2

    def test_attack_sul_workers_sets_the_pool_size(self, captured):
        with pytest.raises(_Captured):
            main(["attack", "tcp", "--sul-workers", "2"])
        specs = [json.loads(text) for text in captured["specs"]]
        assert [spec["name"] for spec in specs] == [
            "tcp",
            "tcp-handshake",
            "tcp-no-challenge-ack",
        ]
        assert {spec["workers"] for spec in specs} == {2}
        assert captured["workers"] == 1

    def test_attack_workers_means_concurrent_runs(self, captured):
        with pytest.raises(_Captured):
            main(["attack", "tcp", "--exact", "--workers", "3"])
        assert captured["workers"] == 3
        assert json.loads(captured["specs"][0])["workers"] == 1

    def test_unknown_member_exits_2_on_every_verb(self, capsys, tmp_path):
        store = str(tmp_path / "store.db")
        for argv in (
            ["properties", "http9"],
            ["difftest", "http9"],
            ["attack", "http9"],
            ["attack", "http9", "--list"],
            ["ci", "http9", "--store", store],
        ):
            assert main(argv) == 2
            assert f"{argv[0]}: unknown target 'http9'" in capsys.readouterr().err
