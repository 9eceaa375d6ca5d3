"""Batches run as prefix-trie walks must answer exactly like per-word replay.

A SUL that can snapshot runs a query batch as one depth-first walk over
the batch's prefix trie.  Whatever the batch -- duplicates, words that are
prefixes of other words, the empty word -- the answers, the Oracle Table
(entries and their order) and the logical counters must equal those of
resetting and replaying every word; only the physical counters may drop.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.pool import SULPool
from repro.adapter.quic_adapter import QUICAdapterSUL, build_quic_sul
from repro.core.alphabet import Alphabet, parse_tcp_symbol
from repro.core.mealy import mealy_from_table
from repro.framework import Prognosis
from repro.netsim import LinkConfig
from repro.quic.impls.quiche import quiche_server
from repro.quic.impls.tracker import CONNECTION_FIELDS
from repro.spec import ExperimentSpec

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

INPUTS = [parse_tcp_symbol(text) for text in ("SYN(?,?,0)", "ACK(?,?,0)", "FIN(?,?,0)")]
OUTPUTS = [parse_tcp_symbol(text) for text in ("NIL", "RST(?,?,0)", "ACK+SYN(?,?,0)")]
LOGICAL = ("queries", "steps", "resets")


def _logical(sul):
    return tuple(getattr(sul.stats, key) for key in LOGICAL)


def _entries(sul):
    return [(entry.abstract, entry.steps) for entry in sul.oracle_table.entries()]


def _replay(sul, words):
    return [sul.query(word) for word in words]


@st.composite
def machines(draw):
    states = draw(st.integers(1, 4))
    inputs = INPUTS[: draw(st.integers(1, 3))]
    table = [
        (
            f"s{state}",
            symbol,
            draw(st.sampled_from(OUTPUTS)),
            f"s{draw(st.integers(0, states - 1))}",
        )
        for state in range(states)
        for symbol in inputs
    ]
    return mealy_from_table("s0", Alphabet.of(inputs), table, name="random")


@st.composite
def machines_and_batches(draw):
    machine = draw(machines())
    symbols = list(machine.input_alphabet.symbols)
    word = st.lists(st.sampled_from(symbols), max_size=5).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=12))
    # Force the shapes the walk must handle: duplicates, proper prefixes of
    # batch members and the empty word.
    extras = [w for w in words if draw(st.booleans())]
    extras += [w[: draw(st.integers(0, len(w)))] for w in words if draw(st.booleans())]
    if draw(st.booleans()):
        extras.append(())
    batch = draw(st.permutations(words + extras))
    return machine, list(batch)


class RefusingSUL(MealySUL):
    """Snapshots only right after a reset, so deeper branch points must
    be reached again by reset and replay."""

    def _reset_impl(self):
        super()._reset_impl()
        self._fresh = True

    def _step_impl(self, symbol):
        self._fresh = False
        return super()._step_impl(symbol)

    def snapshot(self):
        return super().snapshot() if self._fresh else None


class TestMealyWalk:
    @given(machines_and_batches())
    @settings(max_examples=200, deadline=None)
    def test_walk_equals_replay(self, case):
        machine, batch = case
        walked, replayed = MealySUL(machine), MealySUL(machine)
        assert walked.query_batch(batch) == _replay(replayed, batch)
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)
        assert walked.stats.physical_steps <= walked.stats.steps
        assert walked.stats.physical_resets == 1

    @given(machines_and_batches())
    @settings(max_examples=100, deadline=None)
    def test_refused_snapshots_fall_back_to_replay(self, case):
        machine, batch = case
        walked, replayed = RefusingSUL(machine), MealySUL(machine)
        assert walked.query_batch(batch) == _replay(replayed, batch)
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)

    def test_shared_prefixes_step_once(self, toy_machine):
        syn, ack = toy_machine.input_alphabet.symbols
        sul = MealySUL(toy_machine)
        sul.query_batch([(syn, ack, syn), (syn, ack, ack), (syn, syn), ()])
        stats = sul.stats
        assert (stats.queries, stats.steps, stats.resets) == (4, 8, 4)
        # syn, ack, syn | ack | syn: one reset and five steps.  Snapshots:
        # the one taken after the reset, then one per branch point.
        assert (stats.physical_resets, stats.physical_steps) == (1, 5)
        assert (stats.snapshots, stats.restores) == (3, 2)

    def test_empty_and_single_batches(self, toy_machine):
        syn, _ = toy_machine.input_alphabet.symbols
        sul = MealySUL(toy_machine)
        assert sul.query_batch([]) == []
        assert sul.query_batch([(syn,)]) == [sul.query((syn,))]
        assert sul.stats.snapshots == 0


QUIC_TARGETS = [
    ("google", {}),
    ("quiche", {}),
    ("google", {"retry_enabled": True}),
]


def _random_batches(sul, seed, count=4):
    rng = random.Random(seed)
    symbols = list(sul.input_alphabet.symbols)
    for _ in range(count):
        stems = [
            tuple(rng.choice(symbols) for _ in range(rng.randrange(0, 4)))
            for _ in range(rng.randrange(2, 8))
        ]
        words = [
            stem + tuple(rng.choice(symbols) for _ in range(rng.randrange(0, 3)))
            for stem in stems
            for _ in range(2)
        ]
        yield words + stems[:2]


class TestQUICWalk:
    @pytest.mark.parametrize("implementation, options", QUIC_TARGETS)
    def test_walk_equals_replay(self, implementation, options):
        walked = build_quic_sul(implementation, seed=11, **options)
        replayed = build_quic_sul(implementation, seed=11, **options)
        for batch in _random_batches(walked, seed=len(options) + len(implementation)):
            assert walked.query_batch(batch) == _replay(replayed, batch)
            assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)
        assert walked.stats.snapshots > 0
        assert walked.stats.physical_steps < walked.stats.steps

    def test_quiche_learn_matches_reference_and_replay(self, monkeypatch):
        spec = ExperimentSpec(target="quic-quiche")
        with Prognosis.from_spec(spec) as walked:
            report = walked.learn()
            walked_entries = _entries(walked.sul)
        reference = json.loads((REFERENCE_DIR / "quic-quiche.json").read_text())
        reference.pop("name")
        body = report.model.to_dict()
        body.pop("name")
        assert body == reference
        assert report.physical_steps < report.sul_steps
        assert report.physical_resets < report.sul_resets

        monkeypatch.setattr(QUICAdapterSUL, "snapshot", lambda self: None)
        with Prognosis.from_spec(spec) as replayed:
            replay_report = replayed.learn()
            assert _entries(replayed.sul) == walked_entries
        assert replay_report.model.to_dict() == report.model.to_dict()
        assert (replay_report.sul_queries, replay_report.sul_steps) == (
            report.sul_queries,
            report.sul_steps,
        )
        assert replay_report.sul_resets == report.sul_resets
        assert replay_report.physical_steps == replay_report.sul_steps
        assert replay_report.snapshots == 0

    def test_report_exposes_physical_counters(self):
        with Prognosis.from_spec(ExperimentSpec(target="toy")) as prognosis:
            data = prognosis.learn().to_dict()
        for key in ("physical_steps", "physical_resets", "snapshots", "restores"):
            assert key in data
        assert data["physical_steps"] <= data["sul_steps"]


class TestQUICSnapshotFallbacks:
    def test_deterministic_targets_snapshot(self):
        assert build_quic_sul("google").snapshot() is not None
        assert build_quic_sul("google", retry_enabled=True).snapshot() is not None

    def test_connection_fields_cover_the_client(self):
        # A field added to the tracker client must be either per-connection
        # (snapshotted) or one of these long-lived ones.
        long_lived = {
            "network", "server_address", "config", "rng", "_ambiguity_rng",
            "_main_endpoint", "_active_endpoint", "_extra_endpoints",
        }
        client = build_quic_sul("quiche").client
        assert set(vars(client)) == long_lived | set(CONNECTION_FIELDS)

    def test_mvfst_default_probability_replays(self):
        assert build_quic_sul("mvfst").snapshot() is None

    def test_lossy_link_replays(self):
        sul = QUICAdapterSUL(quiche_server, link=LinkConfig(loss_rate=0.1))
        assert sul.snapshot() is None

    @pytest.mark.parametrize("flag", ["ambiguous_stream_abstraction", "retry_port_bug"])
    def test_tracker_flags_replay(self, flag):
        assert build_quic_sul("quiche", tracker_config={flag: True}).snapshot() is None

    def test_busy_network_replays(self):
        sul = build_quic_sul("quiche")
        sul.network.send(("client", 1), sul.server.endpoint.address, b"in flight")
        assert sul.snapshot() is None

    def test_fallback_batch_matches_replay(self):
        walked, replayed = build_quic_sul("mvfst"), build_quic_sul("mvfst")
        batch = next(_random_batches(walked, seed=5, count=1))
        assert walked.query_batch(batch) == _replay(replayed, batch)
        assert _entries(walked) == _entries(replayed)
        assert walked.stats.snapshot() == replayed.stats.snapshot()


class TestPooledWalk:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_shards_walk_and_sum_counters(self, backend):
        serial = build_quic_sul("quiche", seed=11)
        batch = [word for words in _random_batches(serial, seed=9, count=2) for word in words]
        expected = _replay(serial, batch)
        pool = SULPool(lambda: build_quic_sul("quiche", seed=11), workers=2, backend=backend)
        try:
            assert pool.query_batch(batch) == expected
            assert _logical(pool) == _logical(serial)
            assert pool.stats.snapshots > 0
            assert pool.stats.physical_steps < pool.stats.steps
            assert pool.stats.physical_resets == 2
        finally:
            pool.close()
