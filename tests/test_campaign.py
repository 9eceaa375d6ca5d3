"""Tests for the Campaign runner: grids, cache sharing, artifacts.

The acceptance test of the spec API redesign lives here: a campaign grid
over (tcp, quic-google) x (ttt, lstar) must learn models byte-identical
to the equivalent direct ``Prognosis`` calls, and cache sharing across
runs of the same SUL must reduce total SUL queries without changing any
model.
"""

import json
from pathlib import Path

import pytest

from repro.adapter.tcp_adapter import TCPAdapterSUL
from repro.campaign import Campaign, RunResult, run_spec
from repro.core.mealy import MealyMachine
from repro.experiments.quic_experiments import make_quic_sul
from repro.framework import Prognosis
from repro.spec import ComponentSpec, ExperimentSpec


class TestGridConstruction:
    def test_grid_is_cartesian_product(self):
        campaign = Campaign.grid(
            targets=("toy", "tcp"), learners=("ttt", "lstar"), seeds=(0, 1)
        )
        assert len(campaign.specs) == 8
        names = [spec.display_name() for spec in campaign.specs]
        assert "toy-ttt-s0" in names
        assert "tcp-lstar-s1" in names
        assert len(set(names)) == 8

    def test_grid_clones_base(self):
        base = ExperimentSpec(
            target="toy",
            equivalence=[ComponentSpec("wmethod", {"extra_states": 2})],
            batch_size=16,
        )
        campaign = Campaign.grid(targets=("toy",), learners=("ttt",), base=base)
        spec = campaign.specs[0]
        assert spec.batch_size == 16
        assert spec.equivalence[0].params == {"extra_states": 2}
        # mutating the cell never touches the template
        spec.equivalence[0].params["extra_states"] = 9
        assert base.equivalence[0].params == {"extra_states": 2}

    def test_specs_accepted_as_dicts(self):
        campaign = Campaign([{"target": "toy"}])
        assert campaign.specs[0].target == "toy"


class TestCampaignExecution:
    def test_failed_run_does_not_sink_campaign(self):
        campaign = Campaign(
            [ExperimentSpec(target="no-such-target"), ExperimentSpec(target="toy")]
        )
        failed, succeeded = campaign.run()
        assert not failed.ok
        assert "no-such-target" in failed.error
        assert succeeded.ok
        assert "FAILED" in failed.summary()

    def test_concurrent_equals_serial(self):
        specs = [
            ExperimentSpec(target="toy", learner=learner, seed=seed)
            for learner in ("ttt", "lstar")
            for seed in (0, 1)
        ]
        serial = Campaign(specs, workers=1, share_cache=False).run()
        concurrent = Campaign(specs, workers=4, share_cache=False).run()
        for a, b in zip(serial, concurrent):
            assert a.model.to_dict() == b.model.to_dict()

    def test_run_spec_single(self):
        result = run_spec({"target": "toy"})
        assert isinstance(result, RunResult)
        assert result.ok
        assert result.report.num_states == 3


class TestCacheSharing:
    def test_sharing_reduces_total_sul_queries(self):
        """Cross-run cache sharing: later runs of the same SUL reuse
        earlier observations, so the campaign total drops."""
        grid = dict(targets=("toy",), learners=("ttt", "lstar"), seeds=(0,))
        shared = Campaign.grid(**grid, share_cache=True).run()
        isolated = Campaign.grid(**grid, share_cache=False).run()
        shared_total = sum(r.report.sul_queries for r in shared)
        isolated_total = sum(r.report.sul_queries for r in isolated)
        assert shared_total < isolated_total
        # the second shared run was answered almost entirely from the store
        assert shared[1].report.sul_queries < isolated[1].report.sul_queries
        # sharing never changes what is learned
        for a, b in zip(shared, isolated):
            assert a.model.to_dict() == b.model.to_dict()

    def test_different_target_params_do_not_share(self):
        specs = [
            ExperimentSpec(target="tcp-handshake", target_params={"seed": 3}),
            ExperimentSpec(target="tcp-handshake", target_params={"seed": 4}),
        ]
        results = Campaign(specs, share_cache=True).run()
        # distinct fingerprints: the second run cannot reuse the first's
        # observations, so it pays full price
        assert results[1].report.sul_queries == results[0].report.sul_queries


class TestArtifacts:
    def test_artifact_files_round_trip(self, tmp_path):
        result = run_spec(
            ExperimentSpec(target="toy", name="toy-run"), output_dir=tmp_path
        )
        directory = Path(result.artifact_dir)
        assert directory.parent == tmp_path
        spec = ExperimentSpec.from_json((directory / "spec.json").read_text())
        assert spec == result.spec
        model = MealyMachine.from_dict(
            json.loads((directory / "model.json").read_text())
        )
        assert model.to_dict() == result.model.to_dict()
        assert (directory / "model.dot").read_text().startswith("digraph")
        report = json.loads((directory / "report.json").read_text())
        assert report["num_states"] == result.report.num_states


class TestPropertyVerdicts:
    """Campaigns evaluate the spec's ``properties`` section and emit
    ``properties.json`` verdict artifacts."""

    def test_spec_without_section_skips_evaluation(self, tmp_path):
        result = run_spec(ExperimentSpec(target="toy"), output_dir=tmp_path)
        assert result.properties is None
        assert not (Path(result.artifact_dir) / "properties.json").exists()

    def test_properties_evaluated_and_written(self, tmp_path):
        from repro.spec import PropertiesSpec

        result = run_spec(
            ExperimentSpec(
                target="toy",
                name="toy-props",
                properties=PropertiesSpec(
                    depth=4, formulas=["G (out == NIL)"]
                ),
            ),
            output_dir=tmp_path,
        )
        assert result.ok
        report = result.properties
        assert report is not None
        assert not report.ok  # the ad-hoc formula is violated
        assert report.verdict("ack-is-ignored").holds
        assert "properties 3/4 hold" in result.summary()
        data = json.loads(
            (Path(result.artifact_dir) / "properties.json").read_text()
        )
        assert data["target"] == "toy-props"
        assert data["counts"]["violated"] == 1
        violated = next(
            v for v in data["verdicts"] if v["verdict"] == "violated"
        )
        assert violated["witness"]["inputs"] == ["SYN(?,?,0)"]

    def test_attack_section_evaluated_and_written(self, tmp_path):
        from repro.spec import AttackSpec

        result = run_spec(
            ExperimentSpec(
                target="tcp",
                name="tcp",
                attack=AttackSpec(attacker="challenge-ack-exhaust"),
            ),
            output_dir=tmp_path,
        )
        assert result.ok
        assert result.attacks is not None
        assert result.attacks.ok
        assert [r.verdict for r in result.attacks.results] == ["CONFIRMED"]
        assert "attacks 1 confirmed/0 unreachable" in result.summary()
        data = json.loads(
            (Path(result.artifact_dir) / "attacks.json").read_text()
        )
        assert data["ok"] is True
        assert data["results"][0]["verdict"] == "CONFIRMED"

    def test_spec_without_attack_section_skips_it(self, tmp_path):
        result = run_spec(ExperimentSpec(target="toy"), output_dir=tmp_path)
        assert result.attacks is None
        assert not (Path(result.artifact_dir) / "attacks.json").exists()

    def test_oracle_kind_sees_the_runs_oracle_table(self):
        from repro.campaign import Campaign
        from repro.spec import PropertiesSpec

        results = Campaign(
            [
                ExperimentSpec(
                    target="http2", properties=PropertiesSpec(depth=2)
                )
            ]
        ).run()
        verdict = results[0].properties.verdict("stream-ids-monotonic")
        assert verdict.holds  # ran (not skipped): the table was available

    def test_property_failure_becomes_error_verdict_not_crash(self):
        from repro.campaign import Campaign
        from repro.spec import PropertiesSpec

        results = Campaign(
            [
                ExperimentSpec(
                    target="toy",
                    properties=PropertiesSpec(formulas=["G (out ===== NIL)"]),
                )
            ]
        ).run()
        result = results[0]
        assert result.ok  # the learning run itself succeeded
        formula_verdict = result.properties.verdicts[-1]
        assert formula_verdict.verdict == "error"
        assert "parse error" in formula_verdict.detail


class TestGridMatchesDirectCalls:
    """The acceptance criterion: campaign runs == direct Prognosis runs."""

    @pytest.fixture(scope="class")
    def grid_results(self):
        campaign = Campaign.grid(
            targets=("tcp", "quic-google"), learners=("ttt", "lstar")
        )
        return {r.spec.display_name(): r for r in campaign.run()}

    @pytest.mark.parametrize("target", ["tcp", "quic-google"])
    @pytest.mark.parametrize("learner", ["ttt", "lstar"])
    def test_byte_identical_models(self, grid_results, target, learner):
        name = f"{target}-{learner}-s0"
        result = grid_results[name]
        assert result.ok, result.error
        sul = (
            TCPAdapterSUL(seed=3)
            if target == "tcp"
            else make_quic_sul("google")
        )
        # The campaign built its SUL from the registry; the direct run is
        # handed an equal ready instance, so the spec target is a label.
        spec = ExperimentSpec(target=target, learner=learner, name=name)
        with Prognosis(spec, sul=sul) as direct:
            direct_report = direct.learn()
        assert result.model.to_dict() == direct_report.model.to_dict()
        assert result.model.to_dot() == direct_report.model.to_dot()
