"""Real-boundary SULs: membership queries over a socket to a server process.

Every other adapter in this repo runs in-process; this module is the
closed-box boundary the paper actually operates at.  A
:class:`SocketSUL` speaks a tiny length-prefixed JSON protocol to a SUL
server (:mod:`repro.adapter.sul_server`) and a :class:`SubprocessSUL`
additionally owns the server's lifecycle: it spawns the process, detects
when it dies or stops answering, respawns it and retries the interrupted
query -- the operational loop a learner needs against a real
implementation that can hang, crash or misbehave.

Wire protocol (one frame per message, both directions)::

    +--------------------+---------------------------------------+
    | 4-byte big-endian  | UTF-8 JSON object, newline-terminated |
    | payload length     | (the newline is part of the length)   |
    +--------------------+---------------------------------------+

Requests are ``{"op": ...}`` objects -- ``hello`` (returns the target's
name and serialized input alphabet), ``reset``, ``step`` (carries a
:func:`~repro.core.alphabet.serialize_symbol` payload; returns the
abstract output plus concrete input/output parameters so the Oracle
Table keeps recording across the boundary) and ``bye``.  Replies carry
``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.

Failure taxonomy:

* :class:`SULTimeoutError` -- the server did not answer within
  ``timeout_s``.  Recoverable: the worker is killed/abandoned, respawned
  and the whole query retried (``retries`` times, default once).
* :class:`RemoteDisconnectError` -- the connection dropped (server
  crashed mid-word).  Recoverable the same way.
* :class:`RemoteProtocolError` -- the server answered with something
  that is not the protocol (garbage bytes, malformed frame).  *Not*
  retried: a confused peer must surface as a clean diagnostic, not be
  hammered until it accidentally parses.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Mapping, Sequence

from ..core.alphabet import (
    AbstractSymbol,
    Alphabet,
    SymbolError,
    deserialize_symbol,
    serialize_symbol,
)
from ..core.trace import Word
from ..registry import SUL_REGISTRY
from .sul import SUL

#: Startup banner the server prints on stdout once it is listening.
SERVER_BANNER = "PROGNOSIS-SUL-SERVER"
_HEADER = struct.Struct(">I")
#: Upper bound on a single frame; anything larger is a framing error,
#: not a legitimate protocol message.
MAX_FRAME = 1 << 20


class RemoteSULError(RuntimeError):
    """Base class for failures at the socket boundary."""


class SULTimeoutError(RemoteSULError):
    """The server did not answer a request within ``timeout_s``."""


class RemoteDisconnectError(RemoteSULError):
    """The connection to the server dropped (crash, kill, network)."""


class RemoteProtocolError(RemoteSULError):
    """The peer sent bytes that are not the wire protocol."""


# -- framing ---------------------------------------------------------------
def send_frame(sock: socket.socket, payload: Mapping) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    buf = bytearray()
    while len(buf) < size:
        chunk = sock.recv(size - len(buf))
        if not chunk:
            raise RemoteDisconnectError("connection closed by peer")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> dict:
    (length,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    if not 0 < length <= MAX_FRAME:
        raise RemoteProtocolError(f"implausible frame length {length}")
    body = _recv_exactly(sock, length)
    if not body.endswith(b"\n"):
        raise RemoteProtocolError(f"frame not newline-terminated: {body[:64]!r}")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise RemoteProtocolError(f"frame is not JSON: {body[:64]!r}") from None
    if not isinstance(message, dict):
        raise RemoteProtocolError(f"frame is not an object: {message!r}")
    return message


class SocketSUL(SUL):
    """A SUL whose reset/step run on a server across a TCP socket.

    The constructor connects, performs the ``hello`` exchange and adopts
    the server's input alphabet, so a remote target drops into the
    learner stack exactly like an in-process adapter.  A query
    interrupted by a timeout or disconnect is retried ``retries`` times
    (whole-word retry after :meth:`_recover`, so the extra resets land in
    ``stats.resets`` like any other reset the boundary cost us).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float | None = 5.0,
        retries: int = 1,
        name: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = retries
        #: Times a dead/hung server was replaced (reconnect or respawn).
        self.respawns = 0
        self._sock: socket.socket | None = None
        self._connect()
        hello = self._rpc({"op": "hello"})
        alphabet = Alphabet.of(
            [deserialize_symbol(entry) for entry in hello["alphabet"]]
        )
        super().__init__(
            alphabet, name=name or f"socket-{hello.get('name', 'sul')}"
        )

    # -- connection management --------------------------------------------
    def _connect(self, attempts: int = 40, backoff_s: float = 0.05) -> None:
        last: Exception | None = None
        for _ in range(attempts):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                sock.settimeout(self.timeout_s)
                self._sock = sock
                return
            except OSError as exc:  # server still starting / just died
                last = exc
                time.sleep(backoff_s)
        raise RemoteDisconnectError(
            f"cannot connect to SUL server at {self.host}:{self.port}: {last}"
        ) from last

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    def _respawn_server(self) -> None:
        """Replace the dead/hung server.  The plain socket client cannot
        restart a process it does not own; it reconnects and lets the
        server's accept loop hand the fresh connection to a live handler."""

    def _recover(self) -> None:
        self.respawns += 1
        self._drop_connection()
        self._respawn_server()
        self._connect()
        self._rpc({"op": "hello"})  # re-handshake proves the worker is live

    # -- request/reply -----------------------------------------------------
    def _rpc(self, payload: Mapping) -> dict:
        if self._sock is None:
            raise RemoteDisconnectError("not connected")
        try:
            send_frame(self._sock, payload)
            reply = recv_frame(self._sock)
        except TimeoutError as exc:  # socket.timeout
            raise SULTimeoutError(
                f"no reply to {payload.get('op')!r} within {self.timeout_s}s"
            ) from exc
        except RemoteSULError:
            raise
        except OSError as exc:
            raise RemoteDisconnectError(f"connection lost: {exc}") from exc
        if not reply.get("ok", False):
            raise RemoteSULError(
                f"server rejected {payload.get('op')!r}: {reply.get('error')}"
            )
        return reply

    # -- SUL interface ------------------------------------------------------
    def _reset_impl(self) -> None:
        self._rpc({"op": "reset"})

    def _step_impl(
        self, symbol: AbstractSymbol
    ) -> tuple[AbstractSymbol, Mapping[str, int], Mapping[str, int]]:
        reply = self._rpc({"op": "step", "symbol": serialize_symbol(symbol)})
        try:
            output = deserialize_symbol(reply["output"])
        except (KeyError, SymbolError) as exc:
            raise RemoteProtocolError(f"bad step reply: {reply!r}") from exc
        in_params, out_params = reply.get("in_params", {}), reply.get("out_params", {})
        for params in (in_params, out_params):
            if not isinstance(params, dict) or any(
                type(value) is not int for value in params.values()
            ):
                raise RemoteProtocolError(f"bad step reply: {reply!r}")
        return output, in_params, out_params

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        for attempt in range(self.retries + 1):
            try:
                return super().query(word)
            except (SULTimeoutError, RemoteDisconnectError):
                if attempt == self.retries:
                    raise
                # The failed attempt's reset/steps stay counted -- they
                # happened on the wire -- but the retry re-runs this same
                # membership query, so it is not counted twice.
                self.stats.queries -= 1
                self._recover()
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        if self._sock is not None:
            try:
                send_frame(self._sock, {"op": "bye"})
            except OSError:  # pragma: no cover - bye is best-effort
                pass
        self._drop_connection()


class SubprocessSUL(SocketSUL):
    """A :class:`SocketSUL` that owns its server process.

    Spawns ``python -m repro.adapter.sul_server`` wrapping a registry
    target, reads the listening port from the startup banner, and on
    timeout/disconnect kills the worker, starts a fresh one and retries
    the query -- dead-worker detection and automatic respawn in one
    place.  The server watches its stdin and exits when this parent dies,
    so no orphan processes outlive a crashed run.
    """

    def __init__(
        self,
        target: str = "tcp",
        params: Mapping | None = None,
        *,
        timeout_s: float | None = 5.0,
        retries: int = 1,
        server_args: Sequence[str] = (),
        name: str | None = None,
    ) -> None:
        self.target = target
        self.params = dict(params or {})
        self.server_args = tuple(server_args)
        self._proc: subprocess.Popen | None = None
        port = self._spawn()
        super().__init__(
            "127.0.0.1",
            port,
            timeout_s=timeout_s,
            retries=retries,
            name=name or f"remote-{target}",
        )

    def _spawn(self) -> int:
        env = os.environ.copy()
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [
            sys.executable,
            "-m",
            "repro.adapter.sul_server",
            "--target",
            self.target,
            "--params",
            json.dumps(self.params),
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *self.server_args,
        ]
        self._proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        banner = self._proc.stdout.readline().decode("utf-8", "replace").strip()
        if not banner.startswith(SERVER_BANNER):
            code = self._proc.poll()
            raise RemoteDisconnectError(
                f"SUL server failed to start (exit={code}): {banner!r}"
            )
        self.port = int(banner.rsplit("port=", 1)[1])
        return self.port

    def _kill_server(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            proc.kill()
            proc.wait()

    def _respawn_server(self) -> None:
        self._kill_server()
        self._spawn()

    def close(self) -> None:
        super().close()
        self._kill_server()


# -- registry targets ------------------------------------------------------
@SUL_REGISTRY.register("remote")
def build_remote_sul(
    target: str = "tcp",
    seed: int = 3,
    timeout_s: float = 5.0,
    step_delay: float = 0.0,
) -> SubprocessSUL:
    """Any registry target served over the real process/socket boundary.

    ``remote`` with ``target="tcp"`` is the reference external
    implementation the ISSUE asks for: the TCP simulator running in its
    own process, reached only through the wire protocol.
    """
    args: list[str] = []
    if step_delay:
        args += ["--step-delay", str(step_delay)]
    return SubprocessSUL(
        target, {"seed": seed}, timeout_s=timeout_s, server_args=args
    )


@SUL_REGISTRY.register("remote-tcp")
def build_remote_tcp_sul(
    seed: int = 3, timeout_s: float = 5.0, step_delay: float = 0.0
) -> SubprocessSUL:
    """The TCP simulator behind the socket boundary (family ``remote``)."""
    return build_remote_sul(
        target="tcp", seed=seed, timeout_s=timeout_s, step_delay=step_delay
    )
