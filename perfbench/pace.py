"""Times in reference seconds: wall time corrected for the machine's pace.

On a shared virtual machine the same code runs up to 1.8 times slower for
minutes at a time, while other tenants load the host.  Longer runs do not
average that out, so the benchmark measures the machine's pace while it
works and corrects for it.

:class:`Pace` runs :func:`probe`, a fixed piece of the benchmark's own
code (small objects, tuple-keyed dicts, bytes and a sort, like the
program's hot paths), from a ``SIGALRM`` timer every
:data:`INTERVAL` seconds, in the middle of whatever the program is
doing.  :meth:`Pace.since` turns an interval into reference seconds::

    (wall seconds - probe seconds) * (REFERENCE_PROBE_S / median probe) ** SENSITIVITY

over the probes taken in that interval (at least the last
:data:`MIN_SAMPLES`).  So a reference second is a second on a machine
where :func:`probe` takes :data:`REFERENCE_PROBE_S`.  The program slows
less than the probe when the host is busy: on a 2-vCPU shared
(Firecracker) VM, its time grew as about the 0.65 power of the probe's
on ``learn-quic``, ``learn-stream`` and ``offline``.  With that exponent
the spread of per-repetition times was 6-8 %, against 16-27 % for wall
time and 3-14 % for a plain ratio (exponent 1).  The probe is the
benchmark's code, not the program's: a faster program reads fewer
reference seconds, a faster or quieter machine does not.  Without a
running timer (``start`` not called) there are no new
samples; with none at all the factor is 1 and times are wall seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds between probes; each takes about half a millisecond.
INTERVAL = 0.1
#: What :func:`probe` takes on the reference machine, in seconds.
REFERENCE_PROBE_S = 0.0004
#: How the program's time follows the probe's when the host slows down.
SENSITIVITY = 0.65
#: Fewest probes one interval's correction uses; a short interval borrows
#: the latest ones taken before it.
MIN_SAMPLES = 5


class _Node:
    __slots__ = ("key", "out", "nxt")

    def __init__(self, key, out, nxt) -> None:
        self.key = key
        self.out = out
        self.nxt = nxt

    def step(self, x: int) -> tuple:
        return self.out, x + 1


def probe() -> tuple:
    """The fixed work whose duration measures the machine's pace."""
    table = {}
    node = None
    for i in range(400):
        word = (i & 7, (i >> 3) & 7, "ack")
        node = _Node(word, b"x" * (i & 15), node)
        table[word] = node.step(i)
    total = 0
    while node is not None:
        out, n = table[node.key]
        total += n + len(out)
        node = node.nxt
    return sorted(table)[0], total


class Pace:
    """Probe samples of one run, and the clock they correct."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # probe durations, in seconds
        self.probe_s = 0.0  # total time spent probing
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection the program owes stays in its time
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.probe_s += took

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.probe_s, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> float:
        """Reference seconds from ``mark`` to now, probes left out."""
        wall = time.perf_counter() - mark[0] - (self.probe_s - mark[1])
        end = len(self.samples)
        window = self.samples[max(0, min(mark[2], end - MIN_SAMPLES)):end]
        if not window:
            return wall
        return wall * (REFERENCE_PROBE_S / statistics.median(window)) ** SENSITIVITY


#: The benchmark's one pace; workloads time every interval with it.
PACE = Pace()
