"""Tests for incremental re-learning against the stored model lineage."""

import json

from repro.campaign import run_spec
from repro.registry import SUL_REGISTRY
from repro.spec import ExperimentSpec
from repro.store import (
    MODE_COLD,
    MODE_RELEARNED,
    MODE_REVALIDATED,
    ModelStore,
    incremental_learn,
)


def _seed(target: str, store) -> ExperimentSpec:
    spec = ExperimentSpec(target=target, name=target)
    result = run_spec(spec, store=store)
    assert result.ok, result.error
    return spec


class TestIncrementalLearn:
    def test_cold_run_seeds_the_lineage(self, tmp_path):
        store = tmp_path / "store.sqlite"
        result = incremental_learn(ExperimentSpec(target="toy"), store)
        assert result.mode == MODE_COLD
        assert not result.drifted
        assert result.saved_version == 1
        with ModelStore(store) as models:
            assert models.version_count(result.fingerprint) == 1

    def test_unchanged_sul_revalidates_against_the_live_sul(self, tmp_path):
        """The no-drift path: every revalidation word runs on the live SUL,
        none is answered from the store."""
        store = tmp_path / "store.sqlite"
        spec = _seed("toy", store)
        result = incremental_learn(spec, store)
        assert result.mode == MODE_REVALIDATED
        assert not result.drifted
        assert result.revalidated_words > 0
        assert result.revalidation_sul_queries == result.revalidated_words
        assert result.store_hit_rate == 0.0
        assert result.saved_version is None  # unchanged: no new version
        with ModelStore(store) as models:
            assert models.version_count(result.fingerprint) == 1

    def test_server_changed_behind_its_fingerprint_drifts(self, tmp_path):
        """A new server build under an unchanged fingerprint: the stored
        rows must not answer the revalidation, and the re-learn runs live."""
        store = tmp_path / "store.sqlite"
        spec = _seed("http2", store)
        conformant = SUL_REGISTRY.get("http2")
        SUL_REGISTRY.register("http2", SUL_REGISTRY.get("http2-buggy"))
        try:
            result = incremental_learn(spec, store)
        finally:
            SUL_REGISTRY.register("http2", conformant)
        assert result.mode == MODE_RELEARNED
        assert result.drifted
        assert result.revalidation_sul_queries > 0
        assert result.store_hits == 0  # the stale rows were dropped
        buggy = run_spec(ExperimentSpec(target="http2-buggy", name="http2"))
        assert result.model.to_dict() == buggy.model.to_dict()
        assert result.diff.witnesses
        assert "RST_STREAM" in " ".join(str(s) for s in result.diff.witnesses[0].word)

    def test_http2_drift_detected_with_witness(self, tmp_path):
        store = tmp_path / "store.sqlite"
        _seed("http2", store)
        result = incremental_learn(
            ExperimentSpec(target="http2-buggy", name="http2-buggy"),
            store,
            baseline="http2",
        )
        assert result.mode == MODE_RELEARNED
        assert result.drifted
        assert result.diff is not None and not result.diff.equivalent
        assert result.diff.witnesses
        # The paper's RST-on-closed-stream bug: the buggy server answers
        # a RST_STREAM on a closed stream with GOAWAY instead of NIL.
        witness = result.diff.witnesses[0]
        assert "RST_STREAM" in " ".join(str(s) for s in witness.word)

    def test_tcp_drift_detected_with_witness(self, tmp_path):
        store = tmp_path / "store.sqlite"
        _seed("tcp", store)
        result = incremental_learn(
            ExperimentSpec(
                target="tcp-no-challenge-ack", name="tcp-no-challenge-ack"
            ),
            store,
            baseline="tcp",
        )
        assert result.drifted
        assert result.diff is not None and result.diff.witnesses

    def test_drifted_model_is_appended_to_own_lineage(self, tmp_path):
        store = tmp_path / "store.sqlite"
        _seed("http2", store)
        result = incremental_learn(
            ExperimentSpec(target="http2-buggy"), store, baseline="http2"
        )
        assert result.saved_version == 1  # first version under its own key
        assert result.fingerprint != result.baseline_fingerprint
        with ModelStore(store) as models:
            record = models.latest(result.fingerprint)
            assert json.dumps(record.model, sort_keys=True) == json.dumps(
                result.model.to_dict(), sort_keys=True
            )

    def test_no_save_keeps_the_lineage(self, tmp_path):
        store = tmp_path / "store.sqlite"
        _seed("http2", store)
        result = incremental_learn(
            ExperimentSpec(target="http2-buggy"),
            store,
            baseline="http2",
            save=False,
        )
        assert result.drifted and result.saved_version is None
        with ModelStore(store) as models:
            assert models.version_count(result.fingerprint) == 0

    def test_result_serializes(self, tmp_path):
        store = tmp_path / "store.sqlite"
        spec = _seed("toy", store)
        result = incremental_learn(spec, store)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["mode"] == MODE_REVALIDATED
        assert data["drifted"] is False
        assert data["spec"]["target"] == "toy"

    def test_summary_mentions_drift(self, tmp_path):
        store = tmp_path / "store.sqlite"
        _seed("http2", store)
        result = incremental_learn(
            ExperimentSpec(target="http2-buggy"), store, baseline="http2"
        )
        assert "DRIFT" in result.summary()
