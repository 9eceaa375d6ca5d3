"""Batches run as prefix-trie walks must answer exactly like per-word replay.

A SUL that can snapshot runs a query batch as one depth-first walk over
the batch's prefix trie, and keeps its branch-node snapshots for later
batches.  Whatever the batches -- duplicates, words that are prefixes of
other words, the empty word, snapshots evicted in between -- the answers,
the Oracle Table (entries and their order) and the logical counters must
equal those of resetting and replaying every word; only the physical
counters may drop.
"""

import itertools
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapter.h3_adapter import build_http3_sul
from repro.adapter.http2_adapter import build_http2_sul
from repro.adapter.mealy_sul import MealySUL
from repro.adapter import sul as sul_module
from repro.adapter.pool import SULPool
from repro.adapter.quic_adapter import QUICAdapterSUL, build_quic_sul
from repro.adapter.tcp_adapter import TCPAdapterSUL, build_tcp_sul
from repro.core.alphabet import Alphabet, parse_tcp_symbol, quic_alphabet
from repro.core.mealy import mealy_from_table
from repro.framework import Prognosis
from repro.netsim import PERFECT_LINK, LinkConfig
from repro.quic.connection import CONNECTION_VALUES
from repro.quic.impls.quiche import quiche_server
from repro.quic.impls.tracker import CONNECTION_FIELDS
from repro.quic.packetspace import Space
from repro.registry import SUL_REGISTRY
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


def _draw_batch(draw, symbols):
    word = st.lists(st.sampled_from(symbols), max_size=5).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=12))
    # Force the shapes the walk must handle: duplicates, proper prefixes of
    # batch members and the empty word.
    extras = [w for w in words if draw(st.booleans())]
    extras += [w[: draw(st.integers(0, len(w)))] for w in words if draw(st.booleans())]
    if draw(st.booleans()):
        extras.append(())
    return list(draw(st.permutations(words + extras)))


@st.composite
def machines_and_batches(draw):
    machine = draw(machines())
    return machine, _draw_batch(draw, list(machine.input_alphabet.symbols))


@st.composite
def machines_and_batch_runs(draw):
    machine = draw(machines())
    symbols = list(machine.input_alphabet.symbols)
    return machine, [_draw_batch(draw, symbols) for _ in range(draw(st.integers(2, 5)))]


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
        assert sul.stats.snapshots == 0
        # A single word walks too: its reset state is saved, and the next
        # batch resumes from it instead of resetting.
        expected = MealySUL(toy_machine).query((syn,))
        assert sul.query_batch([(syn,)]) == [expected]
        assert (sul.stats.physical_resets, sul.stats.snapshots) == (1, 1)
        assert sul.query_batch([(syn,)]) == [expected]
        assert (sul.stats.physical_resets, sul.stats.restores) == (1, 1)
        assert _logical(sul) == (2, 2, 2)


class TestSavedSnapshots:
    """Batch after batch on one SUL: saved snapshots replace resets and
    steps, and a tiny capacity evicts them between and within batches."""

    @given(machines_and_batch_runs(), st.sampled_from([0, 1, 3, 256]))
    @settings(max_examples=200, deadline=None)
    def test_batch_runs_equal_replay(self, case, capacity):
        machine, batches = case
        walked, replayed = MealySUL(machine), MealySUL(machine)
        with mock.patch.object(sul_module, "SNAPSHOT_CAPACITY", capacity):
            for batch in batches:
                assert walked.query_batch(batch) == _replay(replayed, batch)
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)
        stats = walked.stats
        assert len(walked._saved) <= capacity
        assert stats.physical_steps + stats.skipped_steps <= stats.steps
        if capacity == 256:
            assert stats.physical_resets == 1

    @given(machines_and_batch_runs())
    @settings(max_examples=100, deadline=None)
    def test_refused_batch_runs_equal_replay(self, case):
        machine, batches = case
        walked, replayed = RefusingSUL(machine), MealySUL(machine)
        for batch in batches:
            assert walked.query_batch(batch) == _replay(replayed, batch)
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)

    def test_saved_nodes_are_passed_through(self, toy_machine):
        syn, ack = toy_machine.input_alphabet.symbols
        sul = MealySUL(toy_machine)
        sul.query_batch([(syn, ack), (syn, syn)])
        before = sul.stats.snapshot()
        # Resumed at the saved root; ``syn`` is passed through, and only
        # ``ack`` is stepped, from the restored ``syn`` node.
        assert sul.query_batch([(syn, ack, ack)]) == [MealySUL(toy_machine).query((syn, ack, ack))]
        cost = {key: value - before[key] for key, value in sul.stats.snapshot().items()}
        assert (cost["physical_resets"], cost["physical_steps"], cost["skipped_steps"]) == (0, 2, 1)
        assert (cost["restores"], cost["snapshots"]) == (2, 1)


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


def _random_word(rng, symbols, longest):
    return tuple(rng.choice(symbols) for _ in range(rng.randrange(longest + 1)))


class TestQUICSnapshots:
    @pytest.mark.parametrize("implementation, options", QUIC_TARGETS)
    def test_restore_returns_every_snapshotted_field(self, implementation, options):
        sul = build_quic_sul(implementation, seed=11, **options)
        symbols = list(sul.input_alphabet.symbols)
        rng = random.Random(3)
        for _ in range(8):
            sul.reset()
            for symbol in _random_word(rng, symbols, 5):
                sul.step(symbol)
            state = sul.snapshot()
            for symbol in _random_word(rng, symbols, 4):
                sul.step(symbol)
            sul.restore(state)
            assert sul.snapshot() == state

    @pytest.mark.parametrize("implementation, options", QUIC_TARGETS)
    def test_one_snapshot_restores_twice(self, implementation, options):
        # A snapshot must share no list, set or bytearray with the live
        # state.  Like a trie node, it is taken, a first suffix runs on the
        # live state, and then it is restored twice for two more: each
        # suffix steps (concrete parameters included) and ends like a fresh
        # replay, and the snapshot still equals a fresh run of its prefix.
        def stepped(word):
            sul = build_quic_sul(implementation, seed=11, **options)
            sul.reset()
            return sul, [sul._step_impl(symbol) for symbol in word]

        symbols = list(quic_alphabet().symbols)
        rng = random.Random(5)
        for _ in range(30):
            prefix = _random_word(rng, symbols, 5)
            walked, _ = stepped(prefix)
            state = walked.snapshot()
            for branch in range(3):
                suffix = _random_word(rng, symbols, 4)
                if branch:
                    walked.restore(state)
                steps = [walked._step_impl(symbol) for symbol in suffix]
                replayed, replay_steps = stepped(prefix + suffix)
                assert steps == replay_steps[len(prefix):]
                assert walked.snapshot() == replayed.snapshot()
            assert state == stepped(prefix)[0].snapshot()

    def test_google_learn_is_pinned(self):
        spec = ExperimentSpec(target="quic-google", target_params={"seed": 11}, seed=11)
        with Prognosis.from_spec(spec) as prognosis:
            report = prognosis.learn()
        reference = json.loads((REFERENCE_DIR / "quic-google.json").read_text())
        reference.pop("name")
        body = report.model.to_dict()
        body.pop("name")
        assert body == reference
        counters = (
            report.sul_queries,
            report.physical_steps,
            report.physical_resets,
            report.snapshots,
            report.restores,
        )
        assert counters == (3124, 4921, 2, 739, 3258)
        assert report.skipped_steps == 1161


EVERY_TARGET = [
    "tcp", "tcp-no-challenge-ack", "http2", "http2-buggy", "http3", "http3-buggy",
    "quic-google", "quic-quiche",
]


def _network(sul):
    return sul.transport.network if hasattr(sul, "transport") else sul.network


class TestSavedSnapshotsOnTargets:
    @pytest.mark.parametrize("target", EVERY_TARGET)
    def test_batch_runs_equal_replay(self, target):
        walked = SUL_REGISTRY.create(target, seed=11)
        replayed = SUL_REGISTRY.create(target, seed=11)
        with mock.patch.object(sul_module, "SNAPSHOT_CAPACITY", 6):
            for batch in _random_batches(walked, seed=len(target), count=6):
                assert walked.query_batch(batch) == _replay(replayed, batch)
                assert len(walked._saved) <= 6
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)
        assert walked.stats.skipped_steps > 0
        assert walked.stats.physical_resets < 6

    @pytest.mark.parametrize("target", ["tcp", "http2", "http3", "quic-quiche"])
    def test_lossy_link_between_batches_drops_the_store(self, target):
        walked = SUL_REGISTRY.create(target, seed=11)
        replayed = SUL_REGISTRY.create(target, seed=11)
        first, second, third = _random_batches(walked, seed=2, count=3)
        assert walked.query_batch(first) == _replay(replayed, first)
        assert walked._saved
        for sul in (walked, replayed):
            _network(sul).config = LOSSY
        before = walked.stats.snapshot()
        assert walked.query_batch(second) == _replay(replayed, second)
        cost = {key: value - before[key] for key, value in walked.stats.snapshot().items()}
        assert not walked._saved
        assert (cost["physical_steps"], cost["physical_resets"]) == (cost["steps"], cost["resets"])
        for sul in (walked, replayed):
            _network(sul).config = PERFECT_LINK
        assert walked.query_batch(third) == _replay(replayed, third)
        assert walked._saved
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)


#: Per-class attributes a QUIC snapshot captures, and the long-lived rest
#: (shared profile, endpoints, configuration, the RNG drawn only for the
#: ambiguous abstraction).  A new attribute must join one side.
QUIC_FIELDS = [
    (
        lambda sul: sul.server,
        {"connection", "datagrams_received", "rng"},
        {"network", "profile", "host", "port", "endpoint", "_retry_scid"},
    ),
    (
        lambda sul: sul.server.connection,
        {"core", "spaces", "_crypto_queues", "_crypto_offsets", "recv_stream",
         "send_stream", *CONNECTION_VALUES},
        {"profile", "rng"},
    ),
    (
        lambda sul: sul.server.connection.spaces[Space.HANDSHAKE],
        {"next_packet_number", "received", "largest_received", "largest_acked_by_peer"},
        set(),
    ),
    (
        lambda sul: sul.client,
        {"spaces", "rng", *CONNECTION_FIELDS},
        {"network", "server_address", "config", "_ambiguity_rng", "_main_endpoint",
         "_active_endpoint", "_extra_endpoints"},
    ),
    (
        lambda sul: sul.client.spaces[Space.APPLICATION],
        {"next_packet_number", "received", "largest_received", "largest_acked_by_peer"},
        set(),
    ),
]


@pytest.mark.parametrize(
    "part, snapshotted, long_lived",
    QUIC_FIELDS,
    ids=["quic-server", "quic-server-connection", "quic-server-space", "tracker-client",
         "tracker-space"],
)
def test_quic_fields_are_classified(part, snapshotted, long_lived):
    assert not snapshotted & long_lived
    sul = build_quic_sul("google", seed=11)
    sul.query(tuple(sul.input_alphabet.symbols[:3]))
    live = part(sul)
    assert set(vars(live)) == snapshotted | long_lived
    sul.restore(sul.snapshot())
    assert set(vars(part(sul))) == set(vars(live))


STREAM_TARGETS = ["tcp", "tcp-no-challenge-ack", "http2", "http2-buggy", "http3", "http3-buggy"]
LOSSY = LinkConfig(loss_rate=0.1)


class TestStreamWalk:
    @pytest.mark.parametrize("target", STREAM_TARGETS)
    def test_walk_equals_replay(self, target):
        walked = SUL_REGISTRY.create(target, seed=11)
        replayed = SUL_REGISTRY.create(target, seed=11)
        # Every word of length 3, shuffled: each prefix of length 0-2 is a
        # branch point, restored after siblings run in a random order.
        every_word = list(itertools.product(walked.input_alphabet.symbols, repeat=3))
        random.Random(len(target)).shuffle(every_word)
        for batch in [*_random_batches(walked, seed=len(target)), every_word]:
            assert walked.query_batch(batch) == _replay(replayed, batch)
            assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)
        assert walked.stats.snapshots > 0
        assert walked.stats.physical_steps < walked.stats.steps

    @pytest.mark.parametrize("target", ["tcp", "http2", "http3"])
    def test_restore_returns_every_snapshotted_field(self, target):
        sul = SUL_REGISTRY.create(target, seed=11)
        symbols = list(sul.input_alphabet.symbols)
        sul.reset()
        for symbol in symbols[:3]:
            sul.step(symbol)
        state = sul.snapshot()
        for symbol in reversed(symbols):
            sul.step(symbol)
        sul.restore(state)
        assert sul.snapshot() == state


class TestStreamSnapshotFallbacks:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_tcp_sul(relative_numbers=False),
            lambda: TCPAdapterSUL(link=LOSSY),
            lambda: build_http2_sul(link=LOSSY),
            lambda: build_http3_sul(link=LOSSY),
            lambda: build_http3_sul(resumption=True),
        ],
        ids=["tcp-absolute-numbers", "tcp-lossy", "http2-lossy", "http3-lossy", "http3-resumption"],
    )
    def test_refusals_replay(self, build):
        walked, replayed = build(), build()
        batch = next(_random_batches(walked, seed=5, count=1))
        assert walked.query_batch(batch) == _replay(replayed, batch)
        assert _entries(walked) == _entries(replayed)
        assert walked.stats.snapshot() == replayed.stats.snapshot()
        assert walked.snapshot() is None

    def test_migrated_transport_replays(self):
        sul = build_http3_sul()
        sul.reset()
        assert sul.snapshot() is not None
        sul.transport.migrate()
        assert sul.snapshot() is None

    @pytest.mark.parametrize("target", ["tcp", "http2", "http3"])
    def test_busy_network_replays(self, target):
        sul = SUL_REGISTRY.create(target)
        sul.reset()
        network = sul.network if target == "tcp" else sul.transport.network
        network.send(("client", 1), ("nowhere", 1), b"in flight")
        assert sul.snapshot() is None

    def test_transport_and_app_defaults_replay(self):
        sul = build_http2_sul()
        sul.transport.snapshot = lambda: None
        assert sul.snapshot() is None
        sul = build_http2_sul()
        sul.app.snapshot = lambda: None
        assert sul.snapshot() is None


#: Per-class attributes a snapshot captures, and the long-lived rest
#: (configuration, endpoints, stateless codecs, RNGs drawn only at reset,
#: and cumulative ``stats`` counters).  A new attribute must join one side.
STREAM_FIELDS = [
    (
        lambda sul: sul,
        "tcp",
        {"_base", "_server_base"},
        {"input_alphabet", "name", "oracle_table", "stats", "_saved", "network",
         "server", "client", "relative_numbers"},
    ),
    (
        lambda sul: sul.server,
        "tcp",
        {"state", "_iss", "snd_nxt", "rcv_nxt", "segments_received"},
        {"config", "_network", "_rng", "endpoint"},
    ),
    (
        lambda sul: sul.client,
        "tcp",
        {"iss", "snd_nxt", "rcv_nxt"},
        {"config", "_network", "server_address", "_rng", "endpoint"},
    ),
    (
        lambda sul: sul.server,
        "http2",
        {"state", "_preface_buffer", "_frames", "streams", "max_client_stream",
         "last_request_headers"},
        {"config", "_network", "_seed", "endpoint", "_encoder", "_decoder", "stats"},
    ),
    (
        lambda sul: sul.client,
        "http2",
        {"preface_sent", "next_stream_id", "open_stream", "last_stream_id", "_frames",
         "last_response_headers"},
        {"_transport", "config", "_network", "_seed", "server_address", "endpoint",
         "_encoder", "_decoder"},
    ),
    (
        lambda sul: sul.transport,
        "http2",
        {"_client_arq", "_server_arq"},
        {"_server_handler", "network", "_server_endpoint", "_endpoint"},
    ),
    (
        lambda sul: sul.transport._client_arq,
        "http2",
        {"send_offset", "unacked", "pending", "recv_segments", "delivered"},
        set(),
    ),
    (
        lambda sul: sul.server,
        "http3",
        {"state", "settings_received", "peer_settings", "control_sent", "last_error",
         "max_request_stream", "drain_boundary", "_control_type_buffer",
         "_control_type_seen", "_decoders", "_requests"},
        {"config", "seed", "_encoder", "_qpack_decoder", "stats"},
    ),
    (
        lambda sul: sul.client,
        "http3",
        {"next_request_stream", "open_stream", "_control_open", "_decoders",
         "_uni_type_buffers", "_uni_type_seen"},
        {"config", "seed", "_encoder", "decoder", "stats"},
    ),
    (
        lambda sul: sul.transport,
        "http3",
        {"_conn", "_server_conns", "_pending_token", "_reset_queue", "_pending_resets",
         "last_connection_rounds", "_rng"},
        # The ticket is only read with resumption, which never snapshots.
        {"_server_handler", "network", "_server_endpoint", "_client_host", "_endpoint",
         "resumption", "_ticket", "_server_ticket", "stats"},
    ),
    (
        lambda sul: sul.transport._conn,
        "http3",
        {"cid", "next_pn", "received_pns", "unacked", "recv", "send", "fin_reported",
         "handshaken"},
        set(),
    ),
]


@pytest.mark.parametrize(
    "part, target, snapshotted, long_lived",
    STREAM_FIELDS,
    ids=[
        "tcp-adapter", "tcp-server", "tcp-client", "http2-server", "http2-client",
        "byte-transport", "arq-end", "h3-server", "h3-client", "quic-transport",
        "quic-connection",
    ],
)
def test_stream_fields_are_classified(part, target, snapshotted, long_lived):
    assert not snapshotted & long_lived
    assert set(vars(part(SUL_REGISTRY.create(target)))) == snapshotted | long_lived


POOL_FACTORIES = {
    "quiche": lambda: build_quic_sul("quiche", seed=11),
    "http3": lambda: build_http3_sul(seed=11),
}
POOL_CASES = [
    pytest.param(factory, backend, id=backend if target == "quiche" else f"{target}-{backend}")
    for target, factory in POOL_FACTORIES.items()
    for backend in ("serial", "thread", "process")
]


class TestPooledWalk:
    @pytest.mark.parametrize("factory, backend", POOL_CASES)
    def test_pool_shards_walk_and_sum_counters(self, factory, backend):
        serial = factory()
        batch = [word for words in _random_batches(serial, seed=9, count=2) for word in words]
        expected = _replay(serial, batch)
        pool = SULPool(factory, workers=2, backend=backend)
        try:
            assert pool.query_batch(batch) == expected
            assert _logical(pool) == _logical(serial)
            assert pool.stats.snapshots > 0
            assert pool.stats.physical_steps < pool.stats.steps
            assert pool.stats.physical_resets == 2
        finally:
            pool.close()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_batch_runs_match_serial_replay(self, backend):
        serial = POOL_FACTORIES["quiche"]()
        # Later batches share prefixes with earlier ones.
        words = list(itertools.product(serial.input_alphabet.symbols[:4], repeat=3))
        random.Random(4).shuffle(words)
        batches = [words[:20], words[20:40], words[40:]]
        expected = [_replay(serial, batch) for batch in batches]
        pool = SULPool(POOL_FACTORIES["quiche"], workers=2, backend=backend)
        try:
            assert [pool.query_batch(batch) for batch in batches] == expected
            assert _entries(pool) == _entries(serial)
            assert _logical(pool) == _logical(serial)
            # Each worker resets once, then resumes from its saved root.
            assert pool.stats.physical_resets == 2
            assert pool.stats.skipped_steps > 0
        finally:
            pool.close()
