"""Tests for the real-boundary adapter: SocketSUL/SubprocessSUL + server.

Covers the happy path (a remote target answers exactly like its
in-process twin, Oracle-Table recording included) and every fault path
the ISSUE names: a server that hangs (timeout fires, worker respawns), a
server that crashes mid-word (query retried once, the extra reset is
counted), and a server that answers garbage (clean diagnostic, no hang,
no retry).
"""

import json
import socket
import threading

import pytest

from repro.adapter.remote import (
    RemoteDisconnectError,
    RemoteProtocolError,
    RemoteSULError,
    SocketSUL,
    SubprocessSUL,
    SULTimeoutError,
    recv_frame,
    send_frame,
)
from repro.core.alphabet import serialize_symbol
from repro.adapter.tcp_adapter import TCPAdapterSUL
from repro.registry import SUL_REGISTRY, load_builtins


@pytest.fixture(scope="module")
def tcp_words():
    local = TCPAdapterSUL(seed=3)
    alpha = local.input_alphabet.symbols
    return [(alpha[i % 7], alpha[(i + 3) % 7]) for i in range(6)]


def _spawn(**kwargs):
    server_args = kwargs.pop("server_args", [])
    return SubprocessSUL(
        "tcp", {"seed": 3}, server_args=server_args, **kwargs
    )


class TestHappyPath:
    def test_answers_match_the_in_process_adapter(self, tcp_words):
        local = TCPAdapterSUL(seed=3)
        remote = _spawn()
        try:
            assert [s.label for s in remote.input_alphabet.symbols] == [
                s.label for s in local.input_alphabet.symbols
            ]
            assert [remote.query(w) for w in tcp_words] == [
                local.query(w) for w in tcp_words
            ]
            assert remote.respawns == 0
        finally:
            remote.close()

    def test_oracle_table_records_across_the_boundary(self, tcp_words):
        remote = _spawn()
        try:
            word = tcp_words[0]
            remote.query(word)
            entry = remote.oracle_table.lookup(word)
            assert entry is not None
            assert len(entry.steps) == len(word)
            # concrete params made the round-trip, not just abstract labels
            assert all(
                isinstance(step.output_params, dict) for step in entry.steps
            )
        finally:
            remote.close()

    def test_stats_count_like_a_local_sul(self, tcp_words):
        remote = _spawn()
        try:
            for word in tcp_words:
                remote.query(word)
            assert remote.stats.queries == len(tcp_words)
            assert remote.stats.resets == len(tcp_words)
            assert remote.stats.steps == sum(len(w) for w in tcp_words)
        finally:
            remote.close()

    def test_registry_targets_registered(self):
        load_builtins()
        assert "remote" in SUL_REGISTRY
        assert "remote-tcp" in SUL_REGISTRY
        # "remote-tcp" joins the "remote" family, NOT the "tcp" family:
        # `repro difftest tcp` must keep its historical matrix size.
        families = SUL_REGISTRY.families()
        assert "remote-tcp" in families["remote"]
        assert "remote-tcp" not in families["tcp"]


class TestFaultPaths:
    def test_hang_times_out_and_respawns(self, tcp_words):
        remote = _spawn(
            timeout_s=0.5, server_args=["--hang-after-steps", "3"]
        )
        try:
            remote.query(tcp_words[0])  # steps 1-2
            # step 3 ok, step 4 hangs -> timeout -> respawn -> retry works
            assert remote.query(tcp_words[1]) == TCPAdapterSUL(seed=3).query(
                tcp_words[1]
            )
            assert remote.respawns == 1
        finally:
            remote.close()

    def test_crash_mid_word_retries_once_and_counts_the_extra_reset(
        self, tcp_words
    ):
        remote = _spawn(server_args=["--crash-after-steps", "3"])
        try:
            remote.query(tcp_words[0])
            assert remote.query(tcp_words[1]) == TCPAdapterSUL(seed=3).query(
                tcp_words[1]
            )
            assert remote.respawns == 1
            assert remote.stats.queries == 2
            # the aborted attempt's reset is real work and stays counted
            assert remote.stats.resets == 3
            assert remote.stats.steps == 6  # 2 + (1 aborted) + 1 + 2
        finally:
            remote.close()

    def test_retries_are_bounded(self, tcp_words):
        # Crashing on the very first step can never succeed: the retry
        # must give up instead of respawning forever.
        remote = _spawn(server_args=["--crash-after-steps", "0"])
        try:
            with pytest.raises(RemoteDisconnectError):
                remote.query(tcp_words[0])
            assert remote.respawns == remote.retries == 1
        finally:
            remote.close()

    def test_garbage_raises_a_clean_diagnostic_without_retry(self, tcp_words):
        remote = _spawn(
            timeout_s=2.0, server_args=["--garbage-after-steps", "1"]
        )
        try:
            with pytest.raises(RemoteProtocolError, match="not JSON"):
                remote.query(tcp_words[0])
            # a confused peer is not hammered with retries
            assert remote.respawns == 0
        finally:
            remote.close()

    @pytest.mark.parametrize(
        "in_params",
        [[1, 2], {"sn": [1]}, {"sn": "1"}, {"sn": 1.5}, None],
        ids=["list", "list-value", "str-value", "float-value", "null"],
    )
    def test_malformed_step_params_raise_a_protocol_error(self, tcp_words, in_params):
        """A step reply whose params are not a str -> int object is a
        protocol error, not a bare TypeError from recording it."""
        symbol = tcp_words[0][0]
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                while (request := recv_frame(conn))["op"] != "bye":
                    reply = {"ok": True}
                    if request["op"] == "hello":
                        reply["alphabet"] = [serialize_symbol(symbol)]
                    elif request["op"] == "step":
                        reply.update(
                            output=serialize_symbol(symbol),
                            in_params=in_params,
                            out_params={},
                        )
                    send_frame(conn, reply)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        remote = SocketSUL(*listener.getsockname(), timeout_s=2.0)
        try:
            with pytest.raises(RemoteProtocolError, match="bad step reply"):
                remote.query((symbol,))
            assert remote.respawns == 0
        finally:
            remote.close()
            server.join(timeout=2.0)
            listener.close()

    def test_error_taxonomy(self):
        assert issubclass(SULTimeoutError, RemoteSULError)
        assert issubclass(RemoteDisconnectError, RemoteSULError)
        assert issubclass(RemoteProtocolError, RemoteSULError)

    def test_server_failing_to_start_is_reported(self):
        with pytest.raises(RemoteDisconnectError, match="failed to start"):
            SubprocessSUL("no-such-target", {})


class TestRemoteRegistryTarget:
    def test_remote_learn_matches_local_model(self):
        from repro.campaign import run_spec
        from repro.spec import ExperimentSpec

        remote = run_spec(
            ExperimentSpec(target="remote-tcp", seed=7, name="m")
        )
        local = run_spec(ExperimentSpec(target="tcp", seed=7, name="m"))
        assert remote.ok, remote.error
        assert json.dumps(
            remote.model.minimize().to_dict(), sort_keys=True
        ) == json.dumps(local.model.minimize().to_dict(), sort_keys=True)
