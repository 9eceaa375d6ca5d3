"""Tests for the command-line interface.

Every subcommand has a smoke test; the heavy protocol targets are covered
once (``difftest``/``properties`` on QUIC), everything else drives the
registered ``toy`` target or monkeypatched experiment drivers so the
suite stays fast.
"""

import json
import re
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_learn_args(self):
        args = build_parser().parse_args(["sweep", "--target", "tcp", "--out", "d"])
        assert args.target == ["tcp"]
        assert args.out == "d"

    def test_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--target", "spdy"])

    def test_registry_targets_accepted(self):
        args = build_parser().parse_args(["sweep", "--target", "toy"])
        assert args.target == ["toy"]

    def test_issue_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["issues", "9"])

    def test_sweep_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_collects_repeats(self):
        args = build_parser().parse_args(
            ["sweep", "--target", "toy", "--target", "tcp", "--learner", "lstar"]
        )
        assert args.target == ["toy", "tcp"]
        assert args.learner == ["lstar"]

    def test_executor_flag_parsed_everywhere(self):
        for argv in (
            ["run", "spec.json", "--executor", "process"],
            ["sweep", "--target", "toy", "--executor", "thread"],
            ["difftest", "toy", "--executor", "serial"],
        ):
            args = build_parser().parse_args(argv)
            assert args.executor == argv[-1]

    def test_executor_flag_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spec.json", "--executor", "gpu"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["store", "{bad}"], "store: cannot open store"),
        (
            ["passive", "toy", "--corpus", "{tmp}/c.jsonl", "--generate", "5",
             "--store", "{bad}"],
            "passive: cannot open store",
        ),
        (["sweep", "--target", "toy", "--workers", "0"], "must be at least 1"),
        (["sweep", "--target", "toy", "--sul-workers", "0"], "must be at least 1"),
        (["properties", "toy", "--workers", "0"], "must be at least 1"),
        (["properties", "toy", "--depth", "-1"], "must be at least 1"),
        (["difftest", "toy", "--workers", "0"], "must be at least 1"),
        (["attack", "toy", "--workers", "0"], "must be at least 1"),
        (["difftest", "toy", "--max-divergences", "0"], "must be at least 1"),
        (["difftest", "toy", "--max-divergences", "-1"], "must be at least 1"),
        (
            ["passive", "toy", "--corpus", "{tmp}/c.jsonl", "--generate", "5",
             "--gen-max-len", "0"],
            "must be at least 1",
        ),
        (
            ["passive", "toy", "--corpus", "{tmp}/c.jsonl", "--generate", "-1"],
            "must be at least 1",
        ),
    ],
    ids=[
        "store-not-sqlite",
        "passive-store-not-sqlite",
        "sweep-workers-0",
        "sweep-sul-workers-0",
        "properties-workers-0",
        "properties-depth-negative",
        "difftest-workers-0",
        "attack-workers-0",
        "difftest-max-divergences-0",
        "difftest-max-divergences-negative",
        "passive-gen-max-len-0",
        "passive-generate-negative",
    ],
)
def test_bad_input_exits_2_with_a_message(argv, message, capsys, tmp_path):
    bad = tmp_path / "not-a-store.sqlite"
    bad.write_text("not sqlite\n")
    argv = [arg.format(bad=bad, tmp=tmp_path) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse rejects the value
        code = exit_.code
    assert code == 2
    assert message in capsys.readouterr().err


class TestCommands:
    """Learning, checking and comparing one target or a pair of them."""

    def test_learn_tcp_prints_summary(self, capsys, tmp_path):
        code = main(["sweep", "--target", "tcp", "--out", str(tmp_path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "6 states, 42 transitions" in captured
        (run_dir,) = tmp_path.iterdir()
        assert (run_dir / "model.dot").read_text().startswith("digraph")
        assert (run_dir / "model.json").exists()

    def test_check_holding_property(self, capsys):
        code = main(
            ["properties", "tcp", "--exact", "--depth", "3",
             "--formula", "G (in ~ SYN -> out != BOGUS)"]
        )
        assert code == 0
        assert "holds" in capsys.readouterr().out

    def test_check_violated_property(self, capsys):
        code = main(
            ["properties", "tcp", "--exact", "--depth", "3",
             "--formula", "G (out == NIL)"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out
        assert "witness:" in out

    def test_compare_differing_models(self, capsys):
        code = main(["difftest", "quic-google", "quic-quiche", "--fail-on-diverge"])
        out = capsys.readouterr().out
        assert code == 1  # models differ
        assert "12 states" in out and "8 states" in out
        assert "2 divergent pairs" in out  # each suite exposes the other


class TestSmokeToyTarget:
    """Fast end-to-end smoke tests against the registered toy SUL."""

    def test_learn_toy(self, capsys):
        code = main(["sweep", "--target", "toy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 states" in out

    def test_learn_toy_lstar(self, capsys):
        code = main(["sweep", "--target", "toy", "--learner", "lstar"])
        assert code == 0
        assert "3 states" in capsys.readouterr().out

    def test_compare_toy_with_itself(self, capsys):
        code = main(["difftest", "toy", "toy", "--fail-on-diverge"])
        assert code == 0  # equivalent models
        assert "0 divergent pairs" in capsys.readouterr().out

    def test_check_toy(self, capsys):
        code = main(
            ["properties", "toy", "--depth", "3", "--formula", "G (out != BOGUS)"]
        )
        assert code == 0
        assert "holds" in capsys.readouterr().out


class TestRunCommand:
    def test_run_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"target": "toy", "learner": "lstar"}))
        out_dir = tmp_path / "artifacts"
        code = main(["run", str(spec_path), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 states" in out
        assert "artifacts:" in out
        produced = list(out_dir.iterdir())
        assert len(produced) == 1
        assert (produced[0] / "model.json").exists()

    def test_run_with_process_executor(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"target": "toy", "workers": 2}))
        code = main(["run", str(spec_path), "--executor", "process"])
        assert code == 0
        assert "3 states" in capsys.readouterr().out

    def test_run_rejects_bad_executor_combination(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"target": "toy", "workers": 4}))
        assert main(["run", str(spec_path), "--executor", "serial"]) == 2
        assert "serial executor" in capsys.readouterr().err

    def test_run_missing_file(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_run_malformed_spec(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{not json")
        assert main(["run", str(spec_path)]) == 2

    def test_run_unknown_target(self, capsys, tmp_path):
        spec_path = tmp_path / "unknown.json"
        spec_path.write_text(json.dumps({"target": "spdy"}))
        assert main(["run", str(spec_path)]) == 2
        assert "invalid spec" in capsys.readouterr().err


class TestPassiveCommand:
    def test_generate_then_learn_with_artifacts(self, capsys, tmp_path):
        corpus = tmp_path / "toy.jsonl"
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "passive", "toy",
                "--corpus", str(corpus),
                "--generate", "60",
                "--out", str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "generated 60 session traces" in out
        assert "passive:" in out
        assert "refinement:" in out
        assert (out_dir / "passive.json").exists()
        assert (out_dir / "model.json").exists()
        assert (out_dir / "model.dot").exists()
        payload = json.loads((out_dir / "passive.json").read_text())
        assert payload["corpus"]["traces"] == 60

    def test_full_corpus_needs_zero_resets(self, capsys, tmp_path):
        corpus = tmp_path / "full.jsonl"
        code = main(["passive", "toy", "--corpus", str(corpus), "--full"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recorded covering corpus" in out
        assert "0 SUL resets" in out

    def test_no_refine_stops_at_partial(self, capsys, tmp_path):
        corpus = tmp_path / "toy.jsonl"
        code = main(
            [
                "passive", "toy",
                "--corpus", str(corpus),
                "--generate", "40",
                "--no-refine",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "refinement" not in out

    def test_missing_corpus_is_a_config_error(self, capsys, tmp_path):
        assert main(["passive", "toy", "--corpus", str(tmp_path / "nope.jsonl")]) == 2
        assert "no corpus" in capsys.readouterr().err

    def test_generate_and_full_are_exclusive(self, capsys, tmp_path):
        code = main(
            [
                "passive", "toy",
                "--corpus", str(tmp_path / "c.jsonl"),
                "--generate", "5",
                "--full",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_malformed_corpus_fails_cleanly(self, capsys, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("not json\n")
        assert main(["passive", "toy", "--corpus", str(corpus)]) == 1
        assert "passive run failed" in capsys.readouterr().err

    def test_corpus_flag_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["passive", "toy"])


class TestSweepCommand:
    def test_sweep_grid(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--target", "toy",
                "--learner", "ttt",
                "--learner", "lstar",
                "--seeds", "0,1",
                "--out", str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("toy-ttt-s0", "toy-ttt-s1", "toy-lstar-s0", "toy-lstar-s1"):
            assert name in out
        assert len(list(out_dir.iterdir())) == 4

    def test_sweep_reports_failures(self, capsys, monkeypatch):
        # unknown targets are rejected by argparse; force a failing run
        # through a spec whose middleware cannot be built
        from repro import campaign as campaign_module

        def boom(self, item):
            from repro.campaign import RunResult

            return RunResult(spec=item[1], report=None, model=None, error="boom")

        monkeypatch.setattr(campaign_module.Campaign, "_run_one", boom)
        code = main(["sweep", "--target", "toy"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "1/1 runs failed" in captured.err


class TestDifftestCommand:
    def test_difftest_single_target_matrix(self, capsys):
        code = main(["difftest", "toy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite \\ subject" in out
        assert "self" in out

    def test_difftest_spec_files_and_targets_mix(self, capsys, tmp_path):
        spec_path = tmp_path / "toy-lstar.json"
        spec_path.write_text(json.dumps({"target": "toy", "learner": "lstar"}))
        out_dir = tmp_path / "artifacts"
        code = main(
            ["difftest", "toy", str(spec_path), "--out", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The spec file is named after its stem; both targets agree.
        assert "toy-lstar" in out
        assert "agree" in out
        assert (out_dir / "matrix.json").exists()

    def test_difftest_kinds_repeatable(self, capsys):
        code = main(
            ["difftest", "toy", "--kind", "transition-cover", "--kind", "random"]
        )
        assert code == 0

    def test_difftest_family_expands_anywhere_in_the_list(self, capsys):
        """A pure family stem expands even alongside other targets, and an
        expansion overlapping an explicit target does not duplicate runs."""
        from repro.adapter.mealy_sul import build_toy_sul
        from repro.registry import SUL_REGISTRY

        SUL_REGISTRY.register("fam-a", build_toy_sul)
        SUL_REGISTRY.register("fam-b", build_toy_sul)
        try:
            code = main(["difftest", "fam", "toy", "fam-a"])
            out = capsys.readouterr().out
            assert code == 0
            assert "fam-a" in out and "fam-b" in out and "toy" in out
            # fam-a appears once despite being named twice (family + exact).
            assert len([l for l in out.splitlines() if l.startswith("fam-a:")]) == 1
        finally:
            SUL_REGISTRY.unregister("fam-a")
            SUL_REGISTRY.unregister("fam-b")

    def test_difftest_exact_suppresses_family_expansion(self, capsys):
        from repro.adapter.mealy_sul import build_toy_sul
        from repro.registry import SUL_REGISTRY

        SUL_REGISTRY.register("toy-sibling", build_toy_sul)
        try:
            code = main(["difftest", "toy", "--exact"])
            out = capsys.readouterr().out
            assert code == 0
            assert "toy-sibling" not in out  # 1x1 self-conformance only
        finally:
            SUL_REGISTRY.unregister("toy-sibling")

    def test_difftest_unknown_target(self, capsys):
        assert main(["difftest", "no-such-thing"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_difftest_malformed_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["difftest", str(bad)]) == 2

    def test_difftest_fail_on_diverge(self, capsys, monkeypatch, tmp_path):
        # A mutant toy target makes the pair diverge; the CI gate flag
        # must turn that into exit code 1.
        from repro.adapter.mealy_sul import MealySUL, toy_machine
        from repro.core.mealy import MealyMachine
        from repro.registry import SUL_REGISTRY

        base = toy_machine()
        syn, ack = base.input_alphabet.symbols
        rst = base.step("s1", syn)[1]
        table = {
            (t.source, t.input): (t.target, t.output) for t in base.transitions()
        }
        table[("s1", ack)] = (table[("s1", ack)][0], rst)
        mutant = MealyMachine("s0", base.input_alphabet, table, "toy-cli-mutant")
        SUL_REGISTRY.register(
            "toy-cli-mutant", lambda: MealySUL(mutant, name="toy-cli-mutant")
        )
        try:
            assert main(["difftest", "toy", "toy-cli-mutant"]) == 0
            assert (
                main(["difftest", "toy", "toy-cli-mutant", "--fail-on-diverge"])
                == 1
            )
        finally:
            SUL_REGISTRY.unregister("toy-cli-mutant")


class TestIssuesCommand:
    """Smoke the issues wiring with stubbed drivers (the real experiments
    run in the benchmark suite; here only the CLI plumbing is under test)."""

    def test_issue1(self, capsys, monkeypatch):
        import repro.experiments as experiments

        stub = SimpleNamespace(diff=SimpleNamespace(render=lambda: "stub-diff"))
        monkeypatch.setattr(
            experiments, "issue1_retry_divergence", lambda: stub
        )
        assert main(["issues", "1"]) == 0
        assert "stub-diff" in capsys.readouterr().out

    def test_issue2(self, capsys, monkeypatch):
        import repro.experiments as experiments

        stub = SimpleNamespace(error="nondeterministic", reset_rate=0.82)
        monkeypatch.setattr(experiments, "issue2_nondeterminism", lambda: stub)
        assert main(["issues", "2"]) == 0
        assert "82%" in capsys.readouterr().out

    def test_issue3(self, capsys, monkeypatch):
        import repro.experiments as experiments

        stub = SimpleNamespace(buggy_establishes=False, fixed_establishes=True)
        monkeypatch.setattr(experiments, "issue3_retry_port", lambda: stub)
        assert main(["issues", "3"]) == 0
        out = capsys.readouterr().out
        assert "buggy client establishes: False" in out

    def test_issue4(self, capsys, monkeypatch):
        import repro.experiments as experiments

        stub = SimpleNamespace(buggy_constant=0, fixed_constant=None)
        monkeypatch.setattr(
            experiments, "issue4_stream_data_blocked", lambda: stub
        )
        assert main(["issues", "4"]) == 0
        out = capsys.readouterr().out
        assert "constant 0" in out
        assert "state-dependent" in out


class TestPropertiesCommand:
    """The registry-driven property surface: suites resolve per target,
    families expand, spec files work, --formula reaches the LTLf parser."""

    def test_properties_quic_google(self, capsys):
        code = main(["properties", "quic-google", "--depth", "3"])
        out = capsys.readouterr().out
        assert code == 0  # every standard QUIC property holds
        assert "holds" in out

    def test_properties_toy_suite(self, capsys):
        code = main(["properties", "toy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ack-is-ignored" in out
        assert "toy properties:" in out

    def test_properties_tcp_suite_now_supported(self, capsys):
        code = main(["properties", "tcp", "--exact", "--depth", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "challenge-ack-rate-limited" in out

    def test_properties_formula_violation_exits_nonzero(self, capsys):
        code = main(["properties", "toy", "--formula", "G (out == NIL)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out
        assert "witness:" in out

    def test_properties_formula_holding(self, capsys):
        code = main(
            ["properties", "toy", "--formula", "G (in ~ ACK -> out == NIL)"]
        )
        assert code == 0
        assert "formula:" in capsys.readouterr().out

    def test_properties_list_does_not_learn(self, capsys):
        code = main(["properties", "toy", "--list", "--formula", "G (out == NIL)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ltlf]" in out
        assert "formula: G (out == NIL)" in out
        assert "holds" not in out  # nothing was checked

    def test_properties_spec_file_with_section(self, capsys, tmp_path):
        spec_path = tmp_path / "toy-props.json"
        spec_path.write_text(
            json.dumps(
                {
                    "target": "toy",
                    "properties": {"depth": 3, "formulas": ["G (out == NIL)"]},
                }
            )
        )
        out_dir = tmp_path / "artifacts"
        code = main(["properties", str(spec_path), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 1  # the spec's own formula is violated
        produced = list(out_dir.iterdir())
        assert len(produced) == 1
        verdicts = json.loads((produced[0] / "properties.json").read_text())
        assert verdicts["ok"] is False
        assert "artifacts:" in out

    def test_properties_family_expansion(self, capsys):
        from repro.adapter.mealy_sul import build_toy_sul
        from repro.registry import SUL_REGISTRY

        SUL_REGISTRY.register("toy-sibling", build_toy_sul)
        try:
            code = main(["properties", "toy"])
            out = capsys.readouterr().out
            assert code == 0
            assert "== toy" in out and "== toy-sibling" in out
        finally:
            SUL_REGISTRY.unregister("toy-sibling")

    def test_properties_unknown_target(self, capsys):
        assert main(["properties", "no-such-thing"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_properties_spec_with_unknown_suite_exits_cleanly(
        self, capsys, tmp_path
    ):
        spec_path = tmp_path / "bad-suite.json"
        spec_path.write_text(
            json.dumps(
                {"target": "toy", "properties": {"suite": "no-such-suite"}}
            )
        )
        assert main(["properties", str(spec_path)]) == 2
        assert "invalid property campaign" in capsys.readouterr().err

    def test_properties_list_honours_spec_section(self, capsys, tmp_path):
        """--list must show what a run would actually check: the spec's
        explicit suite and formulas, plus CLI formulas."""
        spec_path = tmp_path / "tcp-suite.json"
        spec_path.write_text(
            json.dumps(
                {
                    "target": "toy",
                    "properties": {
                        "suite": "tcp",
                        "formulas": ["G (out == NIL)"],
                    },
                }
            )
        )
        code = main(
            ["properties", str(spec_path), "--list", "--formula", "F (out ~ SYN)"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "challenge-ack-rate-limited" in out  # the named tcp suite
        assert "ack-is-ignored" not in out  # not toy's auto-resolved one
        assert "formula: G (out == NIL)" in out
        assert "formula: F (out ~ SYN)" in out

    def test_properties_no_suite_no_formula(self, capsys):
        from repro.adapter.mealy_sul import build_toy_sul
        from repro.registry import SUL_REGISTRY

        SUL_REGISTRY.register("bare-target", build_toy_sul)
        try:
            assert main(["properties", "bare-target"]) == 2
            assert "no properties to check" in capsys.readouterr().err
            # ... but an ad-hoc formula makes it checkable.
            assert (
                main(["properties", "bare-target", "--formula", "G (out != NIL)"])
                == 1
            )
        finally:
            SUL_REGISTRY.unregister("bare-target")


class TestCiCommand:
    def _seed(self, tmp_path):
        """A store seeded by one cold toy run; returns its path."""
        spec_path = tmp_path / "toy.json"
        spec_path.write_text(json.dumps({"target": "toy", "name": "toy"}))
        store = tmp_path / "store.sqlite"
        assert main(["run", str(spec_path), "--store", str(store)]) == 0
        return store

    def test_ci_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ci", "toy"])

    def test_ci_cold_then_green(self, capsys, tmp_path):
        store = tmp_path / "store.sqlite"
        assert main(["ci", "toy", "--store", str(store)]) == 0
        assert "cold learn" in capsys.readouterr().out
        assert main(["ci", "toy", "--store", str(store)]) == 0
        assert "revalidated" in capsys.readouterr().out

    def test_ci_unchanged_exits_zero_after_live_revalidation(self, capsys, tmp_path):
        store = self._seed(tmp_path)
        assert main(["ci", "toy", "--exact", "--store", str(store)]) == 0
        words, queries = re.search(
            r"\((\d+) words, (\d+) SUL queries\) -- no drift", capsys.readouterr().out
        ).groups()
        assert int(queries) == int(words) > 0

    def test_ci_drift_exits_nonzero_with_witness(self, capsys, tmp_path):
        spec_path = tmp_path / "http2.json"
        spec_path.write_text(json.dumps({"target": "http2", "name": "http2"}))
        store = tmp_path / "store.sqlite"
        assert main(["run", str(spec_path), "--store", str(store)]) == 0
        out_dir = tmp_path / "drift"
        code = main(
            ["ci", "http2-buggy", "--baseline", "http2",
             "--store", str(store), "--out", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "DRIFT" in out
        assert "RST_STREAM" in out  # the minimized witness is printed
        artifact = json.loads((out_dir / "ci-http2-buggy.json").read_text())
        assert artifact["drifted"] is True
        assert artifact["diff"]["witnesses"]

    def test_ci_writes_artifact_when_green(self, capsys, tmp_path):
        store = self._seed(tmp_path)
        out_dir = tmp_path / "ci"
        assert main(
            ["ci", "toy", "--exact", "--store", str(store),
             "--out", str(out_dir)]
        ) == 0
        artifact = json.loads((out_dir / "ci-toy.json").read_text())
        assert artifact["mode"] == "revalidated"
        assert artifact["revalidation_sul_queries"] == artifact["revalidated_words"]

    def test_ci_unknown_target(self, capsys, tmp_path):
        store = tmp_path / "store.sqlite"
        assert main(["ci", "http9", "--store", str(store)]) == 2
        assert "unknown target" in capsys.readouterr().err


class TestStoreCommand:
    def test_store_missing_file(self, capsys, tmp_path):
        assert main(["store", str(tmp_path / "absent.sqlite")]) == 2
        assert "no store" in capsys.readouterr().err

    def test_store_stats(self, capsys, tmp_path):
        spec_path = tmp_path / "toy.json"
        spec_path.write_text(json.dumps({"target": "toy", "name": "toy"}))
        store = tmp_path / "store.sqlite"
        assert main(["run", str(spec_path), "--store", str(store)]) == 0
        assert main(["store", str(store), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "1 fingerprints" in out
        assert "observations:" in out
        assert "models: 1" in out

    def test_store_gc_by_target_name(self, capsys, tmp_path):
        spec_path = tmp_path / "toy.json"
        spec_path.write_text(json.dumps({"target": "toy", "name": "toy"}))
        store = tmp_path / "store.sqlite"
        assert main(["run", str(spec_path), "--store", str(store)]) == 0
        assert main(["store", str(store), "--gc", "toy"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["store", str(store), "--stats"]) == 0
        assert "empty store" in capsys.readouterr().out


class TestAttackCommand:
    def test_help_epilog_lists_every_verb(self):
        text = build_parser().format_help()
        for verb in ("properties", "issues", "run", "passive", "sweep",
                     "difftest", "attack", "ci", "store"):
            assert verb in text

    def test_family_confirms_and_spares_the_conformant_variant(self, capsys):
        code = main(["attack", "tcp", "--attacker", "challenge-ack-exhaust"])
        out = capsys.readouterr().out
        assert code == 0
        # One invocation covers the family: CONFIRMED on the rate-limited
        # target, goal unreachable (no false attack) on the ablation.
        assert "attack tcp: 1 confirmed" in out
        assert "CONFIRMED" in out
        assert "tcp-no-challenge-ack: 0 confirmed, 1 unreachable" in out
        assert "no false attack" in out

    def test_unknown_attacker_exits_2_with_known_keys(self, capsys):
        code = main(["attack", "tcp", "--attacker", "ghost"])
        assert code == 2
        err = capsys.readouterr().err
        assert "ghost" in err
        assert "off-path-rst" in err

    def test_unknown_target_exits_2(self, capsys):
        assert main(["attack", "smtp"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_list_prints_applicable_attackers(self, capsys):
        code = main(["attack", "http2-buggy", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "http2-buggy: rapid-reset" in out

    def test_fuzz_with_artifacts_and_corpus(self, capsys, tmp_path):
        out_dir = tmp_path / "attacks"
        code = main([
            "attack", "http2-buggy", "--fuzz", "--budget", "50",
            "--out", str(out_dir),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz 0 divergences/50 words" in out
        data = json.loads(
            (out_dir / "000-http2-buggy" / "attacks.json").read_text()
        )
        assert data["ok"] is True
        assert data["fuzz"]["words_sent"] == 50
        corpus = out_dir / "attack-http2-buggy-corpus.jsonl"
        assert corpus.exists()
        assert len(corpus.read_text().splitlines()) == 1  # confirmed attack

    def test_objective_flag_validated(self, capsys):
        assert main(["attack", "tcp", "--objective", "G (("]) == 2
        assert "bad attack objective" in capsys.readouterr().err
