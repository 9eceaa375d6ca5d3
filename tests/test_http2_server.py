"""Tests for the in-process HTTP/2 server driven by the reference client.

Both ride the composed ``http2`` stack: the client's frames travel over
the reliable byte transport into the server.
"""

import pytest

from repro.adapter.http2_adapter import build_http2_sul
from repro.http2 import ConnectionState, ErrorCode, FrameType
from repro.http2.frames import parse_goaway, parse_rst_stream, parse_settings


@pytest.fixture
def pair():
    sul = build_http2_sul(seed=1)
    sul.reset()
    yield sul.server, sul.client
    sul.close()


def kinds(frames):
    return [FrameType(f.frame_type).name for f in frames]


class TestHandshake:
    def test_settings_handshake(self, pair):
        server, client = pair
        _, responses = client.exchange("SETTINGS")
        assert kinds(responses) == ["SETTINGS", "SETTINGS"]
        assert not responses[0].has_flag(0x1)
        assert responses[1].has_flag(0x1)
        assert server.state is ConnectionState.READY
        assert parse_settings(responses[0])  # server's parameters announced

    def test_first_frame_must_be_settings(self, pair):
        server, client = pair
        _, responses = client.exchange("PING")
        assert kinds(responses) == ["GOAWAY"]
        assert parse_goaway(responses[0])[1] == ErrorCode.PROTOCOL_ERROR
        assert server.state is ConnectionState.CLOSED

    def test_garbage_preface_draws_goaway(self, pair):
        server, client = pair
        client.preface_sent = True  # suppress the preface: raw frame bytes
        _, responses = client.exchange("SETTINGS")
        assert kinds(responses) == ["GOAWAY"]


class TestRequests:
    def complete_handshake(self, client):
        client.exchange("SETTINGS")

    def test_complete_request_gets_response(self, pair):
        server, client = pair
        self.complete_handshake(client)
        _, responses = client.exchange("HEADERS", ("END_HEADERS", "END_STREAM"))
        assert kinds(responses) == ["HEADERS", "DATA"]
        assert responses[1].end_stream
        assert responses[1].payload == server.config.response_body
        assert client.last_response_headers[0] == (":status", "200")
        assert server.last_request_headers[0] == (":method", "GET")
        assert server.stats.requests_served == 1

    def test_open_request_then_data(self, pair):
        server, client = pair
        self.complete_handshake(client)
        _, responses = client.exchange("HEADERS", ("END_HEADERS",))
        assert responses == []
        _, responses = client.exchange("DATA", ("END_STREAM",))
        assert kinds(responses) == ["HEADERS", "DATA"]

    def test_stream_ids_increase_per_request(self, pair):
        server, client = pair
        self.complete_handshake(client)
        first, _ = client.exchange("HEADERS", ("END_HEADERS", "END_STREAM"))
        second, _ = client.exchange("HEADERS", ("END_HEADERS", "END_STREAM"))
        assert (first.stream_id, second.stream_id) == (1, 3)
        assert server.max_client_stream == 3

    def test_trailers_without_end_stream_rst(self, pair):
        server, client = pair
        self.complete_handshake(client)
        client.exchange("HEADERS", ("END_HEADERS",))
        _, responses = client.exchange("HEADERS", ("END_HEADERS",))
        assert kinds(responses) == ["RST_STREAM"]
        assert parse_rst_stream(responses[0]) == ErrorCode.PROTOCOL_ERROR
        assert server.state is ConnectionState.READY  # stream error only

    def test_rst_cancels_open_stream_silently(self, pair):
        server, client = pair
        self.complete_handshake(client)
        client.exchange("HEADERS", ("END_HEADERS",))
        _, responses = client.exchange("RST_STREAM")
        assert responses == []
        assert server.streams == {}


class TestConnectionErrors:
    def handshake(self, client):
        client.exchange("SETTINGS")

    def test_data_on_idle_stream(self, pair):
        server, client = pair
        self.handshake(client)
        _, responses = client.exchange("DATA", ("END_STREAM",))
        assert parse_goaway(responses[0])[1] == ErrorCode.PROTOCOL_ERROR

    def test_data_on_closed_stream(self, pair):
        server, client = pair
        self.handshake(client)
        client.exchange("HEADERS", ("END_HEADERS", "END_STREAM"))
        _, responses = client.exchange("DATA", ("END_STREAM",))
        assert parse_goaway(responses[0])[1] == ErrorCode.STREAM_CLOSED

    def test_closed_connection_ignores_everything(self, pair):
        server, client = pair
        self.handshake(client)
        client.exchange("GOAWAY")
        assert server.state is ConnectionState.CLOSED
        for kind in ("PING", "SETTINGS", "HEADERS"):
            flags = ("END_HEADERS", "END_STREAM") if kind == "HEADERS" else ()
            _, responses = client.exchange(kind, flags)
            assert responses == []


class TestClosedStreamRst:
    """The seeded quirk: RST_STREAM in the closed state (RFC 9113 5.1)."""

    def closed_stream(self, client):
        client.exchange("SETTINGS")
        client.exchange("HEADERS", ("END_HEADERS", "END_STREAM"))

    def test_conformant_server_ignores(self, pair):
        server, client = pair
        self.closed_stream(client)
        _, responses = client.exchange("RST_STREAM")
        assert responses == []
        assert server.state is ConnectionState.READY

    def test_buggy_server_escalates(self):
        sul = build_http2_sul(seed=1, rst_on_closed_bug=True)
        sul.reset()
        server, client = sul.server, sul.client
        try:
            self.closed_stream(client)
            _, responses = client.exchange("RST_STREAM")
            assert kinds(responses) == ["GOAWAY"]
            assert parse_goaway(responses[0])[1] == ErrorCode.STREAM_CLOSED
            assert server.state is ConnectionState.CLOSED
        finally:
            sul.close()


class TestUndecodableHeaders:
    def test_bad_header_block_draws_compression_error(self, pair):
        """An incremental-indexing literal (needs a dynamic table) must be
        answered with GOAWAY COMPRESSION_ERROR, not crash the handler."""
        from repro.http2.frames import headers_frame

        server, client = pair
        client.exchange("SETTINGS")
        block = b"\x40\x01a\x01b"  # '01' pattern: incremental indexing
        client._transport.send(0, headers_frame(1, block, end_stream=True).encode())
        responses = []
        for event in client._transport.exchange():
            responses.extend(client._frames.feed(event.data))
        assert kinds(responses) == ["GOAWAY"]
        assert parse_goaway(responses[0])[1] == ErrorCode.COMPRESSION_ERROR
        assert server.state is ConnectionState.CLOSED
        assert server.streams == {}


class TestReset:
    def test_reset_restores_fresh_connection(self, pair):
        server, client = pair
        client.exchange("SETTINGS")
        client.exchange("HEADERS", ("END_HEADERS", "END_STREAM"))
        server.reset()
        client.reset()
        _, responses = client.exchange("SETTINGS")
        assert kinds(responses) == ["SETTINGS", "SETTINGS"]
        first, _ = client.exchange("HEADERS", ("END_HEADERS", "END_STREAM"))
        assert first.stream_id == 1  # stream ids restart with the connection
