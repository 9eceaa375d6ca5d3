"""Batches run as prefix-trie walks must answer exactly like per-word replay.

A SUL that can snapshot runs a query batch as one depth-first walk over
the batch's prefix trie, and memoises every transition it steps, keyed by
the concrete state (its snapshot) it was stepped from, for the rest of
the batch and for later batches.  Whatever the batches -- duplicates,
words that are prefixes of other words, the empty word, distinct prefixes
that reach equal states, states evicted in between -- the answers, the
Oracle Table (entries, their order and every parameter) and the logical
counters must equal those of resetting and replaying every word; only the
physical counters may drop.  ``reference_walk.py`` keeps the walk that
came before the memo (snapshots saved by prefix) to compare with.
"""

import functools
import itertools
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from digests import oracle_digest
from reference_walk import PrefixStoreWalk

from repro.adapter.h3_adapter import build_http3_sul
from repro.adapter.http2_adapter import build_http2_sul
from repro.adapter.mealy_sul import MealySUL
from repro.adapter import sul as sul_module
from repro.adapter.pool import SULPool
from repro.adapter.quic_adapter import QUICAdapterSUL, build_quic_sul
from repro.adapter.tcp_adapter import TCPAdapterSUL, build_tcp_sul
from repro.core.alphabet import Alphabet, parse_tcp_symbol, quic_alphabet
from repro.core import state as schema
from repro.core.mealy import mealy_from_table
from repro.framework import Prognosis
from repro.h3.server import H3Server
from repro.http2.server import HTTP2Server
from repro.netsim import PERFECT_LINK, LinkConfig
from repro.quic.connection import QUICServerConnection
from repro.quic.impls.quiche import quiche_server
from repro.quic.packetspace import Space
from repro.registry import SUL_REGISTRY
from repro.spec import ExecutorSpec, ExperimentSpec
from repro.tcp.server import TCPServer

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
def converging_machines(draw):
    """Machines where many distinct prefixes reach equal states: every
    transition enters one of at most two states."""
    states = draw(st.integers(2, 4))
    sinks = draw(st.integers(1, 2))
    inputs = INPUTS[: draw(st.integers(2, 3))]
    table = [
        (
            f"s{state}",
            symbol,
            draw(st.sampled_from(OUTPUTS)),
            f"s{draw(st.integers(0, sinks - 1))}",
        )
        for state in range(states)
        for symbol in inputs
    ]
    return mealy_from_table("s0", Alphabet.of(inputs), table, name="converging")


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
    machine = draw(st.one_of(machines(), converging_machines()))
    return machine, _draw_batch(draw, list(machine.input_alphabet.symbols))


@st.composite
def machines_and_batch_runs(draw):
    machine = draw(st.one_of(machines(), converging_machines()))
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


class PartlyRefusingSUL(MealySUL):
    """Refuses snapshots in the machine states named in ``refused`` (the
    initial state excepted), so the memo holds transitions into states it
    can only reach again by reset and replay."""

    def __init__(self, machine, refused):
        super().__init__(machine)
        self.refused = refused

    def snapshot(self):
        if self._state != self.machine.initial_state and self._state in self.refused:
            return None
        return super().snapshot()


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
        # the one taken after the reset, then one after every step.  The
        # second ``ack`` runs from the state the first ``syn`` left (equal
        # to the one it was meant to run from), so only the last ``syn``
        # restores.
        assert (stats.physical_resets, stats.physical_steps) == (1, 5)
        assert (stats.snapshots, stats.restores) == (6, 1)

    def test_distinct_prefixes_to_equal_states_step_once(self, toy_machine):
        # ``ack`` keeps the toy machine in its initial state: ``()``,
        # ``(ack,)`` and ``(ack, ack)`` reach equal states, so after the
        # first word only the new transition ``s0 --ack-->`` is stepped;
        # the other five of the batch's eight trie edges are memo hits.
        syn, ack = toy_machine.input_alphabet.symbols
        batch = [(syn, ack), (ack, syn, ack), (ack, ack, syn, ack)]
        sul = MealySUL(toy_machine)
        assert sul.query_batch(batch) == _replay(MealySUL(toy_machine), batch)
        stats = sul.stats
        assert (stats.physical_resets, stats.physical_steps, stats.skipped_steps) == (1, 3, 5)
        assert (stats.snapshots, stats.restores) == (4, 1)
        assert len(sul._states) == 3

    def test_states_with_refused_snapshots_stay_apart(self):
        # s1 and s2 refuse snapshots.  The first word's last ``ACK`` is a
        # memo hit into a refused s1, the last word's ``SYN`` one into a
        # refused s2: two states without snapshots, which must not be
        # taken for one another (s1 answers ``ACK`` with RST, s2 with NIL).
        syn, ack = INPUTS[:2]
        nil, rst = OUTPUTS[:2]
        table = [
            ("s0", syn, nil, "s2"), ("s0", ack, nil, "s1"),
            ("s1", syn, rst, "s0"), ("s1", ack, rst, "s2"),
            ("s2", syn, nil, "s1"), ("s2", ack, nil, "s0"),
        ]
        machine = mealy_from_table("s0", Alphabet.of([syn, ack]), table, name="refusing")
        batch = [(ack, syn, ack), (ack, ack, ack, syn), (syn, ack)]
        walked = PartlyRefusingSUL(machine, {"s1", "s2"})
        assert walked.query_batch(batch) == _replay(MealySUL(machine), batch)

    def test_empty_and_single_batches(self, toy_machine):
        syn, _ = toy_machine.input_alphabet.symbols
        sul = MealySUL(toy_machine)
        assert sul.query_batch([]) == []
        assert sul.stats.snapshots == 0
        # A single word walks too: its reset state and the state it
        # reached are interned, and the next batch answers it from the
        # memo instead of resetting or stepping.
        expected = MealySUL(toy_machine).query((syn,))
        assert sul.query_batch([(syn,)]) == [expected]
        assert (sul.stats.physical_resets, sul.stats.snapshots) == (1, 2)
        assert sul.query_batch([(syn,)]) == [expected]
        assert (sul.stats.physical_resets, sul.stats.physical_steps) == (1, 1)
        assert (sul.stats.restores, sul.stats.skipped_steps) == (0, 1)
        assert _logical(sul) == (2, 2, 2)


class PrefixStoreMealySUL(PrefixStoreWalk, MealySUL):
    """The walk before the transition memo (``reference_walk.py``)."""


class TestSavedSnapshots:
    """Batch after batch on one SUL: memoised transitions replace resets
    and steps, and a tiny capacity evicts states between and within
    batches."""

    @given(
        machines_and_batch_runs(),
        st.sampled_from([0, 1, 3, sul_module.SNAPSHOT_CAPACITY]),
    )
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
        assert len(walked._states) <= capacity
        assert stats.physical_steps + stats.skipped_steps <= stats.steps
        if capacity == sul_module.SNAPSHOT_CAPACITY:
            assert stats.physical_resets == 1

    @given(machines_and_batch_runs())
    @settings(max_examples=200, deadline=None)
    def test_memo_steps_no_more_than_the_prefix_store(self, case):
        # Every transition the old walk passed through a saved prefix was
        # stepped before, from an equal state, so the memo (which never
        # fills up on these machines) answers it too.
        machine, batches = case
        walked, reference = MealySUL(machine), PrefixStoreMealySUL(machine)
        for batch in batches:
            assert walked.query_batch(batch) == reference.query_batch(batch)
        assert _entries(walked) == _entries(reference)
        assert _logical(walked) == _logical(reference)
        assert walked.stats.physical_steps <= reference.stats.physical_steps
        assert walked.stats.physical_resets == reference.stats.physical_resets == 1

    @given(machines_and_batch_runs(), st.sets(st.sampled_from(["s1", "s2", "s3"])))
    @settings(max_examples=200, deadline=None)
    def test_partly_refused_batch_runs_equal_replay(self, case, refused):
        machine, batches = case
        walked, replayed = PartlyRefusingSUL(machine, refused), MealySUL(machine)
        for batch in batches:
            assert walked.query_batch(batch) == _replay(replayed, batch)
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)

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
        # Resumed where the last batch left the SUL (snapshotted once);
        # ``syn`` and ``ack`` are memo hits, and only the second ``ack`` is
        # stepped, from the restored state the first one reached.
        assert sul.query_batch([(syn, ack, ack)]) == [MealySUL(toy_machine).query((syn, ack, ack))]
        cost = {key: value - before[key] for key, value in sul.stats.snapshot().items()}
        assert (cost["physical_resets"], cost["physical_steps"], cost["skipped_steps"]) == (0, 1, 2)
        assert (cost["restores"], cost["snapshots"]) == (1, 2)


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
        _assert_learn_is_pinned("quic-google")


#: Seed-11 learns with the default spec: (queries, physical steps,
#: physical resets, snapshots, restores, memo hits).  The walk with the
#: prefix-keyed store took 1,110 / 1,240 / 3,843 / 4,921 / 2,745 physical
#: steps; no target may take more.
PINNED_LEARNS = {
    "tcp": (654, 279, 2, 300, 228, 902),
    "http2": (777, 526, 1, 554, 466, 842),
    "http3": (2166, 2721, 4, 2804, 1919, 1978),
    "quic-google": (3124, 2407, 2, 2538, 2067, 3675),
    "quic-quiche": (1664, 1089, 1, 1152, 930, 2197),
}


def _assert_learn_is_pinned(target):
    spec = ExperimentSpec(target=target, target_params={"seed": 11}, seed=11)
    with Prognosis.from_spec(spec) as prognosis:
        report = prognosis.learn()
    reference = json.loads((REFERENCE_DIR / f"{target}.json").read_text())
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
        report.skipped_steps,
    )
    assert counters == PINNED_LEARNS[target]


@pytest.mark.parametrize("target", sorted(set(PINNED_LEARNS) - {"quic-google"}))
def test_learn_is_pinned(target):
    _assert_learn_is_pinned(target)


#: Seed-11 Oracle-Table digests of the stream targets (``digests.py``):
#: every entry's inputs, outputs and concrete params, in order.
PINNED_DIGESTS = {
    "http2": "70a957ef4d8d7196",
    "http2-buggy": "0139738d4ae8bfad",
    "http3": "35818044d54eb026",
    "http3-buggy": "b883bff4c93c7ba5",
}


@pytest.mark.parametrize("target", sorted(PINNED_DIGESTS))
def test_oracle_table_is_pinned(target):
    spec = ExperimentSpec(target=target, target_params={"seed": 11}, seed=11)
    with Prognosis(spec) as prognosis:
        prognosis.learn()
        assert oracle_digest(prognosis.sul.oracle_table) == PINNED_DIGESTS[target]


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
                assert len(walked._states) <= 6
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
        assert walked._states
        for sul in (walked, replayed):
            _network(sul).config = LOSSY
        before = walked.stats.snapshot()
        assert walked.query_batch(second) == _replay(replayed, second)
        cost = {key: value - before[key] for key, value in walked.stats.snapshot().items()}
        assert not walked._states
        assert (cost["physical_steps"], cost["physical_resets"]) == (cost["steps"], cost["resets"])
        for sul in (walked, replayed):
            _network(sul).config = PERFECT_LINK
        assert walked.query_batch(third) == _replay(replayed, third)
        assert walked._states
        assert _entries(walked) == _entries(replayed)
        assert _logical(walked) == _logical(replayed)


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
        # A layer whose class declares no state (here: takes its parent's
        # declaration back) cannot snapshot, so neither can the SUL.
        for layer in ("transport", "app"):
            sul = build_http2_sul()
            part = getattr(sul, layer)
            part.__class__ = type("Undeclared", (type(part),), {"__state__": None})
            assert sul.snapshot() is None


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


def _run_fresh(target, word):
    """A fresh seed-11 SUL of ``target`` reset once and stepped through
    ``word``: its ``_step_impl`` answers and final snapshot."""
    sul = SUL_REGISTRY.create(target, seed=11)
    sul.reset()
    return [sul._step_impl(symbol) for symbol in word], sul.snapshot()


class TestSnapshotValues:
    """A snapshot is a hashable value of exactly the dynamic state: the
    memo interns states by it, and answers one state's transitions from
    another equal one."""

    @pytest.mark.parametrize("target", EVERY_TARGET)
    def test_restore_returns_every_snapshotted_field(self, target):
        sul = SUL_REGISTRY.create(target, seed=11)
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

    @pytest.mark.parametrize("target", EVERY_TARGET)
    def test_snapshots_hash(self, target):
        # After seeded random walks from the post-reset state, a snapshot
        # hashes like the same walk's on a fresh SUL, and restores.
        sul = SUL_REGISTRY.create(target, seed=11)
        symbols = list(sul.input_alphabet.symbols)
        rng = random.Random(len(target))
        sul.reset()
        root = sul.snapshot()
        for _ in range(40):
            prefix = _random_word(rng, symbols, 4)
            sul.restore(root)
            for symbol in prefix:
                sul.step(symbol)
            state = sul.snapshot()
            assert hash(state) == hash(_run_fresh(target, prefix)[1])
            sul.restore(state)
            assert sul.snapshot() == state

    @pytest.mark.parametrize("target", EVERY_TARGET)
    def test_equal_snapshots_answer_every_suffix_alike(self, target):
        # The first two words of up to three symbols that reach equal
        # snapshots, each then run on a fresh SUL (no snapshot restored):
        # every suffix of up to two symbols steps alike, concrete
        # parameters included, and ends in equal snapshots.
        sul = SUL_REGISTRY.create(target, seed=11)
        symbols = list(sul.input_alphabet.symbols)
        sul.reset()
        root = sul.snapshot()
        reached = {}
        for word in (w for n in range(4) for w in itertools.product(symbols, repeat=n)):
            sul.restore(root)
            for symbol in word:
                sul.step(symbol)
            first = reached.setdefault(sul.snapshot(), word)
            if first != word:
                second = word
                break
        else:
            pytest.fail("no two words of up to three symbols reach equal states")
        suffixes = [()] + [(a,) for a in symbols] + list(itertools.product(symbols, repeat=2))
        for suffix in suffixes:
            answers = [_run_fresh(target, prefix + suffix) for prefix in (first, second)]
            assert answers[0][0][len(first):] == answers[1][0][len(second):]
            assert answers[0][1] == answers[1][1]


    @pytest.mark.parametrize("target", EVERY_TARGET)
    def test_snapshots_restore_into_a_sibling_instance(self, target):
        # A pool's in-process workers share one memo, so they restore
        # each other's snapshots: a snapshot taken on one SUL,
        # restored into another built alike, answers every one-symbol
        # suffix as on the SUL that took it, and ends in equal snapshots.
        taker = SUL_REGISTRY.create(target, seed=11)
        sibling = SUL_REGISTRY.create(target, seed=11)
        symbols = list(taker.input_alphabet.symbols)
        rng = random.Random(len(target))
        taker.reset()
        sibling.reset()
        root = taker.snapshot()
        for _ in range(8):
            taker.restore(root)
            for symbol in _random_word(rng, symbols, 4):
                taker.step(symbol)
            state = taker.snapshot()
            for symbol in symbols:
                answers = []
                for sul in (taker, sibling):
                    sul.restore(state)
                    answers.append((sul._step_impl(symbol), sul.snapshot()))
                assert answers[0] == answers[1]


def _create(target):
    return SUL_REGISTRY.create(target) if target == "toy" else SUL_REGISTRY.create(target, seed=11)


def _walk(obj):
    """``obj`` and every declared object its state holds, depth first."""
    yield obj
    for name, kind in schema.declared(type(obj)).state.items():
        value = getattr(obj, name)
        if isinstance(kind, schema.mapping) and isinstance(kind.element, schema.nested):
            for part in value.values():
                yield from _walk(part)
        elif isinstance(kind, schema.nested) and value is not None:
            yield from _walk(value)


def _assert_declared(sul):
    """Every object the SUL's state holds has each of its attributes
    declared exactly once, as state or as shared."""
    for part in _walk(sul):
        state, shared = schema.declared(type(part)).state, schema.declared(type(part)).shared
        name = type(part).__name__
        assert not state.keys() & shared, name
        assert set(vars(part)) == state.keys() | shared, name


class TestDeclaredState:
    """Each class a snapshot covers declares every attribute as state
    (captured and restored) or shared (kept); a field left out of the
    state is caught by the walk."""

    @pytest.mark.parametrize("target", [*EVERY_TARGET, "toy"])
    def test_every_field_is_declared(self, target):
        sul = _create(target)
        sul.reset()
        _assert_declared(sul)
        for symbol in sul.input_alphabet.symbols[:3]:
            sul.step(symbol)
        _assert_declared(sul)
        # Objects a restore builds (a QUIC connection, streams, decoders)
        # carry the same fields as live ones.
        sibling = _create(target)
        sibling.reset()
        sibling.restore(sul.snapshot())
        _assert_declared(sibling)
        assert len(list(_walk(sibling))) == len(list(_walk(sul)))

    def test_an_undeclared_field_fails(self, toy_machine):
        class Annotating(MealySUL):
            def __init__(self, machine):
                super().__init__(machine)
                self.notes = []

        _assert_declared(MealySUL(toy_machine))
        with pytest.raises(AssertionError, match="Annotating"):
            _assert_declared(Annotating(toy_machine))

    @pytest.mark.parametrize(
        "owner, field, target",
        [
            (QUICServerConnection, "core", "quic-google"),
            (TCPServer, "rcv_nxt", "tcp"),
            (HTTP2Server, "streams", "http2"),
            (H3Server, "state", "http3"),
        ],
        ids=["quic-core", "tcp-rcv-nxt", "http2-streams", "h3-state"],
    )
    def test_a_field_moved_to_shared_breaks_the_walk(self, monkeypatch, owner, field, target):
        # Answers or concrete parameters differ from replay on the batch of
        # every word of length 3 (``tcp`` only in its parameters).
        state = vars(owner)["__state__"]
        monkeypatch.setattr(owner, "__state__", {k: v for k, v in state.items() if k != field})
        monkeypatch.setattr(owner, "__shared__", f"{vars(owner).get('__shared__', '')} {field}")
        monkeypatch.setattr(schema, "declared", functools.cache(schema._Schema))
        walked, replayed = SUL_REGISTRY.create(target, seed=11), SUL_REGISTRY.create(target, seed=11)
        every_word = list(itertools.product(walked.input_alphabet.symbols, repeat=3))
        random.Random(len(target)).shuffle(every_word)
        walk = (walked.query_batch(every_word), _entries(walked))
        assert walk != (_replay(replayed, every_word), _entries(replayed))


def _assert_classified(part, snapshotted, long_lived):
    """``part`` has exactly the attributes of the table, and its class
    declares the snapshotted ones as state and the rest as shared."""
    assert not snapshotted & long_lived
    assert set(vars(part)) == snapshotted | long_lived
    declared = schema.declared(type(part))
    assert set(declared.state) == snapshotted
    assert declared.shared == long_lived


#: Per-class attributes a QUIC snapshot captures, and the long-lived rest
#: (shared profile, endpoints, configuration, the RNG drawn only for the
#: ambiguous abstraction).  A new attribute must join one side.
SPACE_VALUES = {"next_packet_number", "received", "largest_received", "largest_acked_by_peer"}
QUIC_FIELDS = [
    (
        lambda sul: sul.server,
        {"connection", "datagrams_received", "rng"},
        {"network", "profile", "host", "port", "endpoint", "_retry_scid", "wire", "table"},
    ),
    (
        lambda sul: sul.server.connection,
        {"core", "spaces", "_crypto_queues", "_crypto_offsets", "recv_stream", "send_stream",
         "_hello_processed", "_request_bytes", "client_cid", "client_params", "client_random",
         "original_dcid", "scid", "server_random", "initial_keys", "handshake_keys",
         "application_keys"},
        {"profile", "rng", "wire"},
    ),
    (lambda sul: sul.server.connection.spaces[Space.HANDSHAKE], SPACE_VALUES, set()),
    (
        lambda sul: sul.client,
        {"spaces", "rng", "client_random", "closed", "dcid", "handshake_complete", "scid",
         "max_data_limit", "max_stream_data_limit", "request_offset", "response_received",
         "retry_token", "saw_stateless_reset", "server_params", "server_random", "server_scid",
         "initial_keys", "handshake_keys", "application_keys"},
        {"network", "server_address", "config", "_ambiguity_rng", "_main_endpoint",
         "_active_endpoint", "_extra_endpoints", "wire"},
    ),
    (lambda sul: sul.client.spaces[Space.APPLICATION], SPACE_VALUES, set()),
]


@pytest.mark.parametrize(
    "part, snapshotted, long_lived",
    QUIC_FIELDS,
    ids=["quic-server", "quic-server-connection", "quic-server-space", "tracker-client",
         "tracker-space"],
)
def test_quic_fields_are_classified(part, snapshotted, long_lived):
    sul = build_quic_sul("google", seed=11)
    sul.query(tuple(sul.input_alphabet.symbols[:3]))
    live = part(sul)
    _assert_classified(live, snapshotted, long_lived)
    sul.restore(sul.snapshot())
    assert set(vars(part(sul))) == set(vars(live))


#: Per-class attributes a snapshot captures, and the long-lived rest
#: (configuration, endpoints, stateless codecs, RNGs drawn only at reset,
#: the memo and cumulative ``stats`` counters).  A new attribute must join
#: one side.  The simulated network is state: its clock and in-flight
#: datagrams are restored with the endpoints above it.
STREAM_FIELDS = [
    (
        lambda sul: sul,
        "tcp",
        {"_base", "_server_base", "network", "server", "client"},
        {"input_alphabet", "name", "oracle_table", "stats", "_states", "_root", "_memo_lock",
         "relative_numbers"},
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
        {"config", "_encoder", "_decoder", "stats"},
    ),
    (
        lambda sul: sul.client,
        "http2",
        {"preface_sent", "next_stream_id", "open_stream", "last_stream_id", "_frames",
         "last_response_headers"},
        {"_transport", "config", "_encoder", "_decoder"},
    ),
    (
        lambda sul: sul.transport,
        "http2",
        {"_client_arq", "_server_arq", "network"},
        {"_server_handler", "_server_endpoint", "_endpoint"},
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
        {"config", "_encoder", "_qpack_decoder", "stats"},
    ),
    (
        lambda sul: sul.client,
        "http3",
        {"next_request_stream", "open_stream", "_control_open", "_decoders",
         "_uni_type_buffers", "_uni_type_seen"},
        {"config", "_encoder", "decoder", "stats"},
    ),
    (
        lambda sul: sul.transport,
        "http3",
        {"_conn", "_server_conns", "_pending_token", "_reset_queue", "_pending_resets",
         "last_connection_rounds", "_rng", "network"},
        # The ticket is only read with resumption, which never snapshots.
        {"_server_handler", "_server_endpoint", "_client_host", "_endpoint",
         "resumption", "_ticket", "_server_ticket", "stats"},
    ),
    (
        lambda sul: sul.transport._conn,
        "http3",
        {"cid", "next_pn", "received_pns", "unacked", "recv", "send", "fin_reported"},
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
    _assert_classified(part(SUL_REGISTRY.create(target)), snapshotted, long_lived)


class TestSharedSteps:
    """Each physical step yields one read-only ConcreteStep, shared by the
    memo and every Oracle-Table entry whose word passes through it."""

    def test_steps_are_read_only(self):
        sul = SUL_REGISTRY.create("tcp", seed=11)
        symbols = sul.input_alphabet.symbols
        sul.query_batch([(symbols[0], symbols[1]), (symbols[0],)])
        entry = sul.oracle_table.lookup((symbols[0], symbols[1]))
        step = entry.steps[1]
        with pytest.raises(TypeError):
            step.input_params["sn"] = 0
        with pytest.raises(TypeError):
            step.output_params.update(an=0)
        with pytest.raises(AttributeError):
            step.input_params = {}
        assert step.input_params == dict(step.input_params)

    def test_words_through_one_step_share_it(self):
        sul = SUL_REGISTRY.create("http2", seed=11)
        a, b = sul.input_alphabet.symbols[:2]
        sul.query_batch([(a, b), (a, a)])
        sul.query_batch([(a, b, a)])
        steps = [sul.oracle_table.lookup(word).steps for word in [(a, b), (a, a), (a, b, a)]]
        assert steps[0][0] is steps[1][0] is steps[2][0]
        assert steps[0][1] is steps[2][1]

    @pytest.mark.parametrize("target", ["toy", "quic-quiche"])
    def test_query_and_walk_step_through_one_helper(self, target):
        made = []
        original = sul_module.SUL._concrete_step

        def counted(sul, symbol):
            made.append(original(sul, symbol))
            return made[-1]

        sul = SUL_REGISTRY.create(target)
        symbols = sul.input_alphabet.symbols
        with mock.patch.object(sul_module.SUL, "_concrete_step", counted):
            sul.query(tuple(symbols[:2]))
            for batch in _random_batches(sul, seed=1, count=2):
                sul.query_batch(batch)
        assert len(made) == sul.stats.physical_steps
        recorded = {id(step) for entry in sul.oracle_table for step in entry.steps}
        assert recorded <= {id(step) for step in made}

    @pytest.mark.parametrize(
        "target, params",
        [
            ("tcp", {"seed": 11}),
            ("http2", {"seed": 11}),
            ("http3", {"seed": 11}),
            # A jittery link refuses snapshots: the replay path.
            ("http2", {"seed": 11, "link": {"jitter": 0.002}}),
            ("http3", {"seed": 11, "link": {"jitter": 0.002}}),
        ],
        ids=["tcp", "http2", "http3", "http2-jitter", "http3-jitter"],
    )
    def test_concrete_traces_equal_across_executors(self, target, params):
        traces = []
        for kind in ("serial", "thread", "process"):
            spec = ExperimentSpec(
                target=target,
                target_params=params,
                seed=11,
                executor=ExecutorSpec(kind=kind, workers=1 if kind == "serial" else 2),
            )
            with Prognosis.from_spec(spec) as prognosis:
                prognosis.learn()
                traces.append(prognosis.sul.oracle_table.concrete_traces())
        assert traces[0] == traces[1] == traces[2]
        assert len(traces[0]) > 100
