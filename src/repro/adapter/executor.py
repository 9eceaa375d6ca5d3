"""Pluggable executor backends for order-preserving batch fan-out.

Every parallel seam in the framework -- the SUL pool sharding membership
-query batches, campaigns running many specs, the property checker fanning
over models -- reduces to the same operation: *apply a function to every
item of a batch, return results in submission order*.  This module owns
that operation behind one interface, :class:`ExecutorBackend`, with three
implementations:

* ``serial``  -- a plain loop; no threads, no processes.  The reference
  semantics every other backend must reproduce.
* ``thread``  -- a bounded :class:`~concurrent.futures.ThreadPoolExecutor`.
  Scales for work that releases the GIL (socket round-trips, subprocess
  turnarounds); pure-Python work gains nothing.
* ``process`` -- persistent ``multiprocessing`` worker processes, each
  initialized once by a picklable ``initializer`` (per-worker SUL
  construction happens *in the child*).  Scales CPU-bound work past the
  GIL and is the only backend with real fault isolation: a per-task
  timeout, dead-worker detection, automatic respawn and a bounded retry.

All backends share the failure contract :class:`ExecutorError`: instead of
raising on the first failing item and silently discarding the rest (the
old ``ThreadPoolExecutor.map`` behaviour), every item runs and the
per-item exceptions are aggregated into one error that names exactly which
items failed.

Task pinning is deterministic everywhere: item ``i`` of a batch always
runs on worker ``i mod n`` (``n`` = active workers for the batch), so a
run's work distribution -- and, for stateful-across-reset SULs, its
observable behaviour -- never depends on scheduler timing.
"""

from __future__ import annotations

import multiprocessing
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

#: The registered executor backend kinds, in cost order.
EXECUTOR_KINDS = ("serial", "thread", "process")


class ExecutorError(RuntimeError):
    """One or more items of a batch failed.

    ``failures`` holds ``(index, item_repr, message)`` triples for every
    failing item, so callers (and test logs) see exactly which words or
    shards died instead of only the first exception.  The first underlying
    exception object, when available in-process, is chained as
    ``__cause__``.
    """

    def __init__(
        self, kind: str, total: int, failures: list[tuple[int, str, str]]
    ) -> None:
        self.kind = kind
        self.total = total
        self.failures = failures
        shown = "; ".join(
            f"[{index}] {message} (item={item})"
            for index, item, message in failures[:5]
        )
        if len(failures) > 5:
            shown += f"; ... and {len(failures) - 5} more"
        super().__init__(
            f"{len(failures)}/{total} items failed on the {kind} executor: "
            f"{shown}"
        )


def _item_repr(item: object, limit: int = 60) -> str:
    text = repr(item)
    return text if len(text) <= limit else text[: limit - 3] + "..."


class ExecutorBackend(ABC):
    """Order-preserving fan-out of callables over a bounded worker set.

    ``map(fn, items)`` returns ``[fn(item) for item in items]`` -- same
    values, same order -- however the backend schedules the work.  A
    backend owns its worker lifecycle; call :meth:`close` (or use the
    instance as a context manager) to release threads/processes.
    """

    kind: str = "serial"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers

    @abstractmethod
    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item; results in submission order.

        Raises :class:`ExecutorError` aggregating *all* per-item failures.
        """

    @abstractmethod
    def close(self) -> None:
        """Release worker threads/processes.  Idempotent."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def _collect(
    kind: str, outcomes: list[tuple[object, BaseException | None]], items: Sequence
) -> list:
    """Split (result, error) pairs into results or one aggregated error."""
    failures = [
        (index, _item_repr(items[index]), f"{type(error).__name__}: {error}")
        for index, (_, error) in enumerate(outcomes)
        if error is not None
    ]
    if failures:
        first = next(error for _, error in outcomes if error is not None)
        raise ExecutorError(kind, len(items), failures) from first
    return [result for result, _ in outcomes]


class SerialExecutor(ExecutorBackend):
    """A plain loop: the reference backend and the ``workers == 1`` path.

    Even serially, every item runs before failures surface, so the error
    report is identical to the parallel backends'.
    """

    kind = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)

    def map(self, fn: Callable, items: Sequence) -> list:
        outcomes: list[tuple[object, BaseException | None]] = []
        for item in items:
            try:
                outcomes.append((fn(item), None))
            except Exception as error:
                outcomes.append((None, error))
        return _collect(self.kind, outcomes, items)

    def close(self) -> None:
        pass


class ThreadExecutor(ExecutorBackend):
    """A bounded thread pool: campaigns, the property checker and the SUL
    pool's thread path fan out through it.

    ``workers == 1`` (or a single-item batch) short-circuits to a plain
    loop with no threads at all, making that path byte-identical to
    serial execution.  The pool is created lazily on first parallel use
    and reused across batches.
    """

    kind = "thread"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn: Callable, items: Sequence) -> list:
        if self.workers == 1 or len(items) <= 1:
            return SerialExecutor().map(fn, items)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="sul-pool"
            )
        futures = [self._pool.submit(fn, item) for item in items]
        outcomes: list[tuple[object, BaseException | None]] = []
        for future in futures:
            try:
                outcomes.append((future.result(), None))
            except Exception as error:
                outcomes.append((None, error))
        return _collect(self.kind, outcomes, items)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ---------------------------------------------------------------------------
# Process backend
# ---------------------------------------------------------------------------

def _process_worker_main(conn, initializer, init_args) -> None:
    """Worker-process entry point: build state once, then serve tasks.

    ``initializer`` runs exactly once per process (per-shard SUL
    construction happens here, in the child); its return value is the
    worker state handed to every task function.  Application exceptions
    are reported back as strings -- they must not kill the worker, only
    that task.
    """
    state = initializer(*init_args) if initializer is not None else None
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            fn, item = message
            try:
                result = fn(item) if state is None else fn(state, item)
                conn.send(("ok", result))
            except Exception as error:
                conn.send(("err", f"{type(error).__name__}: {error}"))
    finally:
        close = getattr(state, "close", None)
        if callable(close):
            try:
                close()
            except Exception:
                pass
        conn.close()


class _Worker:
    """Parent-side handle on one worker process (pipe + process)."""

    def __init__(self, context, initializer, init_args) -> None:
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_process_worker_main,
            args=(child_conn, initializer, init_args),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stuck in syscall
                self.process.kill()
                self.process.join(timeout=2.0)

    def stop(self) -> None:
        """Graceful shutdown: ask the child to exit, then enforce it."""
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=2.0)
        self.kill()


class ProcessExecutor(ExecutorBackend):
    """Persistent worker processes with timeout, respawn and bounded retry.

    Workers are forked lazily on first use and reused across batches; each
    runs ``initializer(*init_args)`` once at startup and keeps the result
    as its state (a SUL pool passes its ``sul_factory`` here, so every
    worker owns a private SUL built *in the child* -- nothing live crosses
    the process boundary, only picklable task payloads and results).

    ``map(fn, items)`` pins item ``i`` to worker ``i mod n`` and calls
    ``fn(item)`` -- or ``fn(state, item)`` when an initializer was given
    -- in that worker.  ``fn`` and every item/result must be picklable.

    Fault handling, per task: if a worker dies or exceeds ``timeout_s``,
    it is killed and respawned (re-running the initializer) and the task
    is retried up to ``retries`` times on the fresh worker; exhausted
    retries become entries in the aggregated :class:`ExecutorError`.
    Exceptions *inside* the task function are application errors, not
    worker faults -- they are reported without burning a respawn.
    """

    kind = "process"

    def __init__(
        self,
        workers: int,
        initializer: Callable | None = None,
        init_args: tuple = (),
        timeout_s: float | None = None,
        retries: int = 1,
    ) -> None:
        super().__init__(workers)
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"need a positive timeout, got {timeout_s}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.respawns = 0
        self._initializer = initializer
        self._init_args = init_args
        # Fork keeps non-picklable initializers working (args are inherited,
        # not pickled) and skips re-importing the world per worker; spawn is
        # the portability fallback.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: dict[int, _Worker] = {}

    # -- worker lifecycle --------------------------------------------------
    def _worker(self, index: int) -> _Worker:
        worker = self._workers.get(index)
        if worker is None:
            worker = _Worker(self._context, self._initializer, self._init_args)
            self._workers[index] = worker
        return worker

    def _respawn(self, index: int) -> _Worker:
        self._workers.pop(index).kill()
        self.respawns += 1
        return self._worker(index)

    # -- mapping -----------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        if not items:
            return []
        active = min(self.workers, len(items))
        queues = {
            index: deque(range(index, len(items), active))
            for index in range(active)
        }
        results: list = [None] * len(items)
        failures: dict[int, str] = {}
        # worker index -> (item index, deadline or None, attempt)
        inflight: dict[int, tuple[int, float | None, int]] = {}

        def dispatch(worker_index: int, item_index: int, attempt: int) -> None:
            deadline = (
                time.monotonic() + self.timeout_s
                if self.timeout_s is not None
                else None
            )
            self._worker(worker_index).conn.send((fn, items[item_index]))
            inflight[worker_index] = (item_index, deadline, attempt)

        def dispatch_next(worker_index: int) -> None:
            queue = queues[worker_index]
            if queue:
                dispatch(worker_index, queue.popleft(), 1)

        def fail_over(worker_index: int, reason: str) -> None:
            """A worker died or timed out: respawn it, retry or record."""
            item_index, _, attempt = inflight.pop(worker_index)
            self._respawn(worker_index)
            if attempt <= self.retries:
                dispatch(worker_index, item_index, attempt + 1)
            else:
                failures[item_index] = reason
                dispatch_next(worker_index)

        for worker_index in range(active):
            dispatch_next(worker_index)

        while inflight:
            now = time.monotonic()
            conn_to_worker = {
                self._workers[w].conn: w for w in inflight
            }
            deadlines = [d for _, d, _ in inflight.values() if d is not None]
            wait_timeout = (
                max(0.0, min(deadlines) - now) if deadlines else None
            )
            ready = multiprocessing.connection.wait(
                list(conn_to_worker), timeout=wait_timeout
            )
            for conn in ready:
                worker_index = conn_to_worker[conn]
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    fail_over(
                        worker_index,
                        "worker process died "
                        f"(pid {self._workers[worker_index].process.pid})",
                    )
                    continue
                item_index, _, _ = inflight.pop(worker_index)
                if status == "ok":
                    results[item_index] = payload
                else:
                    # An application exception: the worker is healthy.
                    failures[item_index] = payload
                dispatch_next(worker_index)
            # Sweep deadlines every round: a hung worker must not starve
            # behind busy siblings whose replies keep `ready` non-empty.
            # (Re-dispatched workers carry fresh, future deadlines.)
            now = time.monotonic()
            for worker_index in list(inflight):
                _, deadline, _ = inflight[worker_index]
                if deadline is not None and deadline <= now:
                    fail_over(
                        worker_index,
                        f"worker timed out after {self.timeout_s}s",
                    )

        if failures:
            raise ExecutorError(
                self.kind,
                len(items),
                [
                    (index, _item_repr(items[index]), message)
                    for index, message in sorted(failures.items())
                ],
            )
        return results

    def close(self) -> None:
        workers, self._workers = self._workers, {}
        for worker in workers.values():
            worker.stop()


def build_executor(
    kind: str,
    workers: int,
    *,
    timeout_s: float | None = None,
    initializer: Callable | None = None,
    init_args: tuple = (),
) -> ExecutorBackend:
    """Instantiate an executor backend by kind (``EXECUTOR_KINDS``).

    ``timeout_s``/``initializer``/``init_args`` only apply to the
    ``process`` backend: threads cannot be killed mid-task and in-process
    backends share the caller's state, so neither needs them.
    """
    if kind == "serial":
        return SerialExecutor(workers)
    if kind == "thread":
        return ThreadExecutor(workers)
    if kind == "process":
        return ProcessExecutor(
            workers,
            initializer=initializer,
            init_args=init_args,
            timeout_s=timeout_s,
        )
    known = ", ".join(EXECUTOR_KINDS)
    raise ValueError(f"unknown executor backend {kind!r}; known: {known}")
