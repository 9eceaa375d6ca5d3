"""Outside-in span tracing for the benchmark's traced run.

The benchmark does not change the program to trace it.  :class:`Tracer`
installs wrappers at run time around the public entry points of each
layer (listed in :data:`TIMED` and :data:`COUNTED`) and removes them
again when the traced iteration ends.

* A *timed* wrapper records one span per call: name, start, end and the
  span that was open when it started (its parent).  Self time is the
  span's duration minus the time its child spans cover.
* A *counted* wrapper only counts calls.  It is used for functions that
  take under a microsecond (key derivation, varints, formula checks),
  so the traced run stays close to the untraced one.

Spans are kept in memory and written out by :meth:`Tracer.write`.  A
module-level function is patched in every ``repro`` module that bound it
by name, not only where it is defined.  Worker processes forked while
the wrappers are installed inherit them but do not record anything: a
fork hook switches the tracer off in the child.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module, class or None, attribute): calls timed as spans.
TIMED = (
    # learner
    ("learner", "repro.learn.ttt", "TTTLearner", "learn"),
    ("learner", "repro.learn.lstar", "LStarLearner", "learn"),
    # equivalence oracle
    ("eq", "repro.learn.equivalence", "WMethodEquivalenceOracle", "find_counterexample"),
    ("eq", "repro.learn.equivalence", "RandomWordEquivalenceOracle", "find_counterexample"),
    ("eq.suite", "repro.core.mealy", "MealyMachine", "w_method_suite"),
    # middleware: cache, store, corpus
    ("cache", "repro.learn.cache", "CachedMembershipOracle", "query"),
    ("cache", "repro.learn.cache", "CachedMembershipOracle", "query_batch"),
    ("store.open", "repro.store.middleware", "StoreBackedCache", "__init__"),
    ("store.close", "repro.store.middleware", "StoreBackedCache", "close"),
    ("corpus.open", "repro.learn.bulk", "CorpusSeededCache", "__init__"),
    # executor
    ("pool.start", "repro.adapter.pool", "SULPool", "__init__"),
    ("pool", "repro.adapter.pool", "SULPool", "query_batch"),
    ("pool.map", "repro.adapter.executor", "ProcessExecutor", "map"),
    # SUL and adapter
    ("sul.query", "repro.adapter.sul", "SUL", "query"),
    ("sul.reset", "repro.adapter.sul", "SUL", "reset"),
    ("adapter.exchange", "repro.quic.impls.tracker", "TrackerClient", "exchange"),
    ("adapter.exchange", "repro.tcp.client", "TCPClient", "exchange"),
    ("adapter.exchange", "repro.http2.client", "HTTP2Client", "exchange"),
    ("adapter.exchange", "repro.adapter.layered", "QuicStreamTransport", "exchange"),
    ("adapter.abstract", "repro.adapter.quic_adapter", None, "abstract_response"),
    ("adapter.abstract", "repro.adapter.tcp_adapter", None, "abstract_segment"),
    ("adapter.abstract", "repro.adapter.http2_adapter", None, "abstract_frames"),
    ("adapter.abstract", "repro.adapter.h3_adapter", "H3AppLayer", "abstract_events"),
    ("transport.serve", "repro.adapter.layered", "ReliableByteTransport", "_on_server_datagram"),
    ("transport.serve", "repro.adapter.layered", "QuicStreamTransport", "_on_server_datagram"),
    # protocol simulators
    ("quic.seal", "repro.quic.crypto", "DirectionalKey", "seal"),
    ("quic.open", "repro.quic.crypto", "DirectionalKey", "open"),
    ("quic.server", "repro.quic.connection", "QUICServer", "_handle"),
    ("tcp.server", "repro.tcp.server", "TCPServer", "_handle"),
    ("http2.server", "repro.http2.server", "HTTP2Server", "process_bytes"),
    ("h3.server", "repro.h3.server", "H3Server", "handle_data"),
    ("h3.server", "repro.h3.server", "H3Server", "handle_reset"),
    # netsim
    ("netsim", "repro.netsim.network", "SimulatedNetwork", "run"),
)

#: (counter name, module, class or None, attribute): calls only counted.
COUNTED = (
    ("quic.hkdf", "repro.quic.crypto", None, "hkdf_expand_label"),
    ("quic.frames", "repro.quic.frames", None, "encode_frames"),
    ("quic.frames", "repro.quic.frames", None, "decode_frames"),
    ("quic.varint", "repro.quic.varint", None, "encode_varint"),
    ("quic.varint", "repro.quic.varint", None, "decode_varint"),
    # One call per trace prefix the bounded checker evaluates a formula
    # or trace predicate on (``Formula.holds`` of the property).
    ("analysis.ltl_evals", "repro.analysis.properties", None, "_explore"),
    ("attack.goal_tests", "repro.attack.automata", "AttackerAutomaton", "is_goal"),
)

#: Timed spans whose integer result is also summed into a counter.
TALLIES = {"netsim": "netsim.events"}

#: Base-oracle entry points whose word counts give ``cache.forwarded``.
FORWARD = (
    ("repro.learn.teacher", "SULMembershipOracle", "query", False),
    ("repro.learn.teacher", "SULMembershipOracle", "query_batch", True),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    ``spans`` holds ``(id, parent_id, name, start, end, self_s, outer)``
    tuples in the order spans close; ``parent_id`` is ``None`` for a
    root.  ``outer`` is False when a span of the same name was already
    open, so per-name totals never count nested time twice.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self._stack: list[list] = []  # [id, parent, name, start, child_s, outer]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        #: Simulated networks built while recording; their ``stats`` give
        #: the datagrams sent and delivered.
        self.networks: list = []
        self._pid = os.getpid()
        self._fork_hooked = False

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str) -> None:
        depth = self._depth[name]
        self._depth[name] = depth + 1
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        self._stack.append(
            [self._next_id, parent, name, time.perf_counter(), 0.0, depth == 0]
        )

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child_s, outer = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append(
            (span_id, parent, name, start, end, duration - child_s, outer)
        )

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # -- wrappers ----------------------------------------------------------
    def _timed(self, name: str, fn):
        tracer = self
        tally = self.counts[TALLIES[name]] if name in TALLIES else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if tally is not None and isinstance(result, int):
                tally[0] += result
            return result

        return timed

    def _counted(self, name: str, fn):
        tracer = self
        cell = self.counts[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _forwarded(self, fn, batch: bool):
        tracer = self
        cell = self.counts["cache.forwarded"]

        @functools.wraps(fn)
        def forwarded(oracle, words, *args, **kwargs):
            if tracer.enabled:
                cell[0] += len(words) if batch else 1
            return fn(oracle, words, *args, **kwargs)

        return forwarded

    def _collect(self, fn):
        tracer = self

        @functools.wraps(fn)
        def collect(network, *args, **kwargs):
            fn(network, *args, **kwargs)
            if tracer.enabled:
                tracer.networks.append(network)

        return collect

    def _patch(self, module_name: str, owner_name: str | None, attribute: str, wrap) -> None:
        """Wrap one entry point.  An entry point the program no longer has
        is skipped, and the metrics built on it read zero."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        if owner_name is not None:
            owner = getattr(module, owner_name, None)
            original = getattr(owner, "__dict__", {}).get(attribute)
            if original is None:
                return
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original))
            return
        # A module-level function: rebind it wherever a repro module
        # imported it by name, so callers in every module see the wrapper.
        original = getattr(module, attribute, None)
        if original is None:
            return
        wrapper = wrap(original)
        for name, bound in list(sys.modules.items()):
            if bound is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(bound, attribute, None) is original:
                self._patches.append((bound, attribute, original))
                setattr(bound, attribute, wrapper)

    def install(self) -> None:
        """Wrap every entry point; idempotent until :meth:`uninstall`."""
        if self._patches:
            return
        for name, module, owner, attribute in TIMED:
            self._patch(module, owner, attribute, functools.partial(self._timed, name))
        for name, module, owner, attribute in COUNTED:
            self._patch(module, owner, attribute, functools.partial(self._counted, name))
        for module, owner, attribute, batch in FORWARD:
            self._patch(
                module, owner, attribute,
                functools.partial(self._forwarded, batch=batch),
            )
        self._patch("repro.netsim.network", "SimulatedNetwork", "__init__", self._collect)
        if not self._fork_hooked:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hooked = True

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _after_fork(self) -> None:
        if os.getpid() != self._pid:
            self.enabled = False

    @contextmanager
    def active(self):
        """Record spans and counts inside the block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    # -- reading -----------------------------------------------------------
    def count(self, name: str) -> int:
        return self.counts[name][0] if name in self.counts else 0

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total time (outermost spans), self time, calls."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for _, _, name, start, end, self_s, outer in self.spans:
            row = table[name]
            if outer:
                row["total_s"] += end - start
            row["self_s"] += self_s
            row["calls"] += 1
        return table

    def mark(self) -> tuple:
        """A position to measure one iteration from (see :meth:`since`)."""
        counts = {name: cell[0] for name, cell in self.counts.items()}
        return len(self.spans), len(self.networks), counts

    def since(self, mark: tuple) -> "Tracer":
        """A read-only view of what was recorded after ``mark``."""
        first, networks, counts = mark
        view = Tracer()
        view.spans = self.spans[first:]
        view.networks = self.networks[networks:]
        for name, cell in self.counts.items():
            view.counts[name][0] = cell[0] - counts.get(name, 0)
        return view

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, then one line of counters."""
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, self_s, _ in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )
            handle.write(
                json.dumps({"counts": {n: c[0] for n, c in self.counts.items()}})
                + "\n"
            )
