"""Tests for the bulk-trace passive pipeline (corpus IO, middleware,
passive->active refinement)."""

import json

import pytest

from repro.core.trace import IOTrace
from repro.framework import Prognosis
from repro.learn.bulk import (
    CorpusFormatError,
    CorpusStats,
    accept_traces,
    bulk_passive_learn,
    generate_corpus,
    load_corpus_cache,
    read_jsonl_corpus,
    record_full_corpus,
    stream_corpus,
    write_jsonl_corpus,
)
from repro.learn.cache import CachedMembershipOracle, QueryCache
from repro.learn.passive import (
    TraceConflictError,
    fold_prefix_tree,
    prefix_tree_from_cache,
)
from repro.spec import ExperimentSpec, SpecError, assemble
from repro.store import QueryStore

from repro.core.alphabet import TCPSymbol, parse_tcp_symbol

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["ACK", "SYN"])
NIL = parse_tcp_symbol("NIL")
RST = parse_tcp_symbol("RST(?,?,0)")


def session_traces():
    return [
        IOTrace((SYN,), (SYNACK,)),
        IOTrace((SYN, ACK), (SYNACK, NIL)),
        IOTrace((ACK, ACK), (NIL, NIL)),
    ]


class TestCorpusIO:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        count = write_jsonl_corpus(path, session_traces())
        assert count == 3
        assert list(read_jsonl_corpus(path)) == session_traces()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        text = path.read_text().replace("\n", "\n\n")
        path.write_text(text)
        assert list(read_jsonl_corpus(path)) == session_traces()

    def test_malformed_line_names_its_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces()[:1])
        with open(path, "a") as handle:
            handle.write('{"inputs": "not-a-list"}\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(read_jsonl_corpus(path))

    def test_non_json_line_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("definitely not json\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            list(read_jsonl_corpus(path))

    def test_non_string_symbol_text_names_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"inputs": [{"kind": "tcp", "text": 5}], '
            '"outputs": [{"kind": "tcp", "text": "NIL"}]}\n'
        )
        with pytest.raises(CorpusFormatError, match="line 1"):
            list(read_jsonl_corpus(path))


class TestLoadCorpusCache:
    def test_stats_account_for_the_pass(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        cache, stats = load_corpus_cache(path)
        assert stats.traces == 3
        assert stats.tokens == 5
        assert stats.words == cache.entries > 0
        assert stats.skipped == []
        assert cache.lookup((SYN, ACK)) == (SYNACK, NIL)

    def test_conflicting_trace_skipped_and_reported(self):
        traces = session_traces() + [IOTrace((SYN,), (NIL,))]
        cache, stats = load_corpus_cache(traces)
        assert stats.traces == 3
        assert len(stats.skipped) == 1
        conflict = stats.skipped[0]
        assert conflict.trace_index == 3
        assert conflict.cached == SYNACK
        assert conflict.fresh == NIL
        # The cache keeps the first-seen answer untouched.
        assert cache.lookup((SYN,)) == (SYNACK,)
        assert "trace_index" in conflict.to_dict()

    def test_strict_mode_raises_with_trace_index(self):
        traces = session_traces() + [IOTrace((SYN,), (NIL,))]
        with pytest.raises(TraceConflictError) as excinfo:
            load_corpus_cache(traces, skip_conflicts=False)
        assert excinfo.value.trace_index == 3

    def test_max_traces_truncates(self):
        cache, stats = load_corpus_cache(session_traces(), max_traces=2)
        assert stats.traces == 2
        assert cache.lookup((ACK, ACK)) is None


class TestIndexedCorpusOrdering:
    """Regression: attack-emitted (index, trace) corpora replay in order."""

    def test_pairs_sorted_by_index_before_write(self, tmp_path):
        traces = session_traces()
        # Arrival order scrambled (concurrently confirmed strategies):
        # the file must still come out index-sorted.
        pairs = [(2, traces[2]), (0, traces[0]), (1, traces[1])]
        path = tmp_path / "corpus.jsonl"
        assert write_jsonl_corpus(path, pairs) == 3
        assert list(stream_corpus(path)) == traces

    def test_bare_traces_keep_arrival_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        assert list(stream_corpus(path)) == session_traces()

    def test_stream_corpus_caps_the_read(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        assert list(stream_corpus(path, max_traces=2)) == session_traces()[:2]

    def test_stream_corpus_accepts_in_memory_iterables(self):
        assert list(stream_corpus(session_traces())) == session_traces()


def _close(pipeline):
    for layer in pipeline.middleware:
        layer.close()
    close = getattr(pipeline.sul, "close", None)
    if callable(close):
        close()


class TestCorpusSeededCache:
    def test_corpus_hits_counted(self, tmp_path, cached_oracle_for, toy_machine):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        layer = cached_oracle_for(toy_machine)
        stats = CorpusStats()
        layer.seed("corpus", accept_traces(path, layer.cache, stats))
        assert layer.seeds["corpus"].entries == 3
        assert stats.skipped == []
        assert layer.query((SYN, ACK)) == (SYNACK, NIL)  # corpus answers
        assert layer.hits_by_source["corpus"] == 1
        assert layer.query((ACK, SYN)) is not None  # live SUL answers
        assert layer.hits_by_source["corpus"] == 1
        assert 0.0 < layer.source_hit_rate("corpus") < 1.0

    def test_line_contradicting_the_shared_trie_is_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(  # line 0 contradicts the shared trie
            path, [IOTrace((SYN,), (NIL,)), IOTrace((ACK,), (NIL,))]
        )
        shared = QueryCache()
        shared.insert((SYN,), (SYNACK,))
        spec = ExperimentSpec(target="toy", corpus=str(path))
        with Prognosis.from_spec(spec, shared_cache=shared) as prognosis:
            layer = prognosis.cache_oracle
            skipped = prognosis.corpus_stats.skipped
            assert [conflict.trace_index for conflict in skipped] == [0]
            assert prognosis.corpus_stats.traces == 1
            assert layer.cache.lookup((SYN,)) == (SYNACK,)  # shared answer wins
            assert layer.seeds["corpus"].lookup((SYN,)) is None
            assert layer.seeds["corpus"].lookup((ACK,)) == (NIL,)
            assert prognosis.learn().corpus_skipped == 1

    def test_line_contradicting_the_shared_trie_raises_when_strict(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, [IOTrace((SYN,), (NIL,))])
        shared = QueryCache()
        shared.insert((SYN,), (SYNACK,))
        spec = ExperimentSpec(
            target="toy", corpus={"path": str(path), "skip_conflicts": False}
        )
        with pytest.raises(TraceConflictError) as excinfo:
            Prognosis.from_spec(spec, shared_cache=shared)
        assert excinfo.value.trace_index == 0


class TestSpecWiring:
    def test_corpus_section_seeds_the_cache(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, [])
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(path)
        )
        pipeline = assemble(spec)
        try:
            layer = pipeline.middleware[0]
            assert isinstance(layer, CachedMembershipOracle)
            assert list(layer.seeds) == ["corpus"]
            assert pipeline.corpus_stats.traces == 0
        finally:
            _close(pipeline)

    def test_corpus_requires_a_seedable_layer(self, tmp_path):
        spec = ExperimentSpec(
            target="toy", middleware=[], corpus=str(tmp_path / "c.jsonl")
        )
        with pytest.raises(SpecError, match="corpus"):
            spec.validate()

    def test_corpus_round_trips_and_clones(self, tmp_path):
        spec = ExperimentSpec(
            target="toy",
            corpus={"path": "c.jsonl", "max_traces": 10},
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.corpus.path == "c.jsonl"
        assert restored.corpus.max_traces == 10
        clone = spec.clone()
        assert clone.corpus is not spec.corpus
        assert clone.corpus.to_dict() == spec.corpus.to_dict()
        # The corpus changes where answers come from, never what they are.
        assert (
            spec.sul_fingerprint()
            == ExperimentSpec(target="toy").sul_fingerprint()
        )

    def test_store_plus_corpus_persists_observations(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(corpus, session_traces())
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(
            target="toy",
            middleware=["cache"],
            corpus=str(corpus),
            store=str(store),
        )
        pipeline = assemble(spec)
        try:
            layer = pipeline.middleware[0]
            assert list(layer.seeds) == ["store", "corpus"]
            assert pipeline.corpus_stats.traces == 3
            assert pipeline.corpus_stats.skipped == []
        finally:
            _close(pipeline)
        with QueryStore(store) as persisted:
            assert persisted.word_count(spec.sul_fingerprint()) >= 3

    def _store_plus_corpus(self, tmp_path, skip_conflicts=True):
        """A store answering SYN, and a corpus whose first line contradicts it."""
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(
            corpus, [IOTrace((SYN, ACK), (NIL, NIL)), IOTrace((ACK,), (NIL,))]
        )
        spec = ExperimentSpec(
            target="toy",
            store=str(tmp_path / "store.sqlite"),
            corpus={"path": str(corpus), "skip_conflicts": skip_conflicts},
        )
        with QueryStore(spec.store.path) as store:
            store.append(spec.sul_fingerprint(), (SYN,), (SYNACK,))
        return spec

    def test_seed_oracle_skips_conflicts_with_existing_answers(self, tmp_path):
        spec = self._store_plus_corpus(tmp_path)
        pipeline = assemble(spec)
        try:
            layer = pipeline.middleware[0]
            assert len(pipeline.corpus_stats.skipped) == 1
            assert layer.cache.lookup((SYN,)) == (SYNACK,)  # existing answer wins
            assert layer.cache.lookup((SYN, ACK)) is None
            assert layer.cache.lookup((ACK,)) == (NIL,)
            assert layer.seeds["corpus"].lookup((SYN, ACK)) is None
        finally:
            _close(pipeline)
        with QueryStore(spec.store.path) as store:  # the skipped line never persists
            assert store.word_count(spec.sul_fingerprint()) == 2

    def test_seed_oracle_strict_mode_raises(self, tmp_path):
        spec = self._store_plus_corpus(tmp_path, skip_conflicts=False)
        with pytest.raises(TraceConflictError):
            assemble(spec)

    def test_bulk_learn_through_a_store_backed_stack(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(
            target="toy",
            middleware=["cache"],
            corpus=str(corpus),
            store=str(store),
        )
        generate_corpus(spec, corpus, num_sessions=50)
        result = bulk_passive_learn(spec)
        assert result.model.num_states == 3
        assert result.corpus_stats.traces == 50
        # The corpus observations were persisted through the store layer.
        with QueryStore(store) as persisted:
            assert persisted.word_count(spec.sul_fingerprint()) > 0


class TestGenerateCorpus:
    def test_generate_corpus_is_seed_deterministic(self, tmp_path):
        spec = ExperimentSpec(target="toy", seed=3)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert generate_corpus(spec, first, num_sessions=25) == 25
        generate_corpus(spec, second, num_sessions=25)
        assert first.read_text() == second.read_text()

    def test_record_full_corpus_covers_the_learner(self, tmp_path):
        corpus = tmp_path / "full.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        assert record_full_corpus(spec, corpus) > 0
        result = bulk_passive_learn(spec)
        # A covering corpus pre-answers everything: zero SUL resets.
        assert result.refined.sul_resets == 0
        assert result.refined.sul_queries == 0
        assert result.passive_model.completeness == 1.0


class TestBulkPipeline:
    def test_requires_a_corpus_section(self):
        with pytest.raises(SpecError, match="corpus"):
            bulk_passive_learn(ExperimentSpec(target="toy"))

    def test_refined_model_matches_pure_active(self, tmp_path, assert_identical_models):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=60)
        result = bulk_passive_learn(spec)
        with Prognosis.from_spec(ExperimentSpec(target="toy")) as plain:
            active = plain.learn()
        assert_identical_models(result.model, active.model)
        assert result.refined.corpus_hits > 0
        assert result.refined.corpus_hit_rate > 0.0

    def test_partial_corpus_refines_undetermined_cells(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        # A single one-symbol session leaves most of the grid undetermined.
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=1, max_len=1)
        result = bulk_passive_learn(spec)
        assert result.targeted_queries > 0
        assert result.passive_model.completeness < 1.0
        assert result.model.num_states == 3  # still converges to the truth

    def test_no_refine_stops_at_the_partial_machine(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=40)
        result = bulk_passive_learn(spec, refine=False)
        assert result.refined is None
        assert result.model is None
        assert result.passive_model.num_states >= 1
        assert "refinement" not in result.summary()

    def test_result_serializes(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=30)
        result = bulk_passive_learn(spec)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["corpus"]["traces"] == 30
        assert payload["passive_model"]["num_states"] >= 1
        assert payload["refined"]["corpus_hits"] == result.refined.corpus_hits

    def test_skipped_conflicts_reach_the_report(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=30)
        with open(corpus, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "inputs": [
                            {"kind": "tcp", "text": "SYN(?,?,0)"},
                        ],
                        "outputs": [
                            {"kind": "tcp", "text": "RST(?,?,0)"},
                        ],
                    }
                )
                + "\n"
            )
        result = bulk_passive_learn(spec)
        assert len(result.corpus_stats.skipped) == 1
        assert result.refined.corpus_skipped == 1
        assert "skipped conflicts" in result.summary()


class TestPassiveModelIsTheCorpusOwn:
    """The passive model folds the accepted corpus traces in corpus order,
    whatever was seeded into the cache layer's one trie before them."""

    SPEC = ExperimentSpec(target="tcp", target_params={"seed": 3}, seed=3)

    def _corpus(self, tmp_path):
        """A random-walk corpus with a contradicting line planted at index 4."""
        path = tmp_path / "corpus.jsonl"
        generate_corpus(self.SPEC, path, num_sessions=40, max_len=5)
        traces = list(read_jsonl_corpus(path))
        first = traces[0]
        flipped = RST if first.outputs[0] != RST else NIL
        traces.insert(4, IOTrace(first.inputs[:1], (flipped,)))
        write_jsonl_corpus(path, traces)
        return path

    def _seeded_first(self, tmp_path):
        """A store and a shared trie holding a cold learn's observations,
        whose branches come in another order than the corpus's."""
        store = tmp_path / "store.sqlite"
        with Prognosis.from_spec(self.SPEC.clone(store=str(store))) as prognosis:
            prognosis.learn()
            shared = QueryCache()
            shared.merge_from(prognosis.cache_oracle.cache)
        return str(store), shared

    @pytest.mark.parametrize("max_traces", [None, 25])
    def test_corpus_store_and_shared_seedings_fold_the_same_model(
        self, tmp_path, max_traces
    ):
        corpus = self._corpus(tmp_path)
        store, shared = self._seeded_first(tmp_path)
        section = {"path": str(corpus), "max_traces": max_traces}
        trie, stats = load_corpus_cache(corpus, max_traces=max_traces)
        assert [conflict.trace_index for conflict in stats.skipped] == [4]

        runs = {
            "corpus": bulk_passive_learn(self.SPEC.clone(corpus=section)),
            "store+corpus": bulk_passive_learn(
                self.SPEC.clone(corpus=section, store=store)
            ),
            "shared+corpus": bulk_passive_learn(
                self.SPEC.clone(corpus=section), shared_cache=shared
            ),
        }
        alone = runs["corpus"]
        folded = fold_prefix_tree(
            prefix_tree_from_cache(trie), alone.refined.model.input_alphabet
        )
        assert alone.passive_model.to_dict() == folded.to_dict()
        for mode, result in runs.items():
            assert result.passive_model.to_dict() == folded.to_dict(), mode
            assert result.corpus_stats.to_dict() == stats.to_dict(), mode
            assert result.refined.model.to_dict() == alone.refined.model.to_dict(), mode
            assert (result.targeted_queries, result.targeted_covered) == (
                alone.targeted_queries,
                alone.targeted_covered,
            ), mode
