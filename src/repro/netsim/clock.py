"""A virtual clock for deterministic network simulation.

All time in the simulator is logical: nothing sleeps, and two runs with the
same seed produce identical schedules.  The clock only moves when the
network advances it to the next scheduled event.
"""

from __future__ import annotations

from ..core.state import fields


class VirtualClock:
    """Monotonically increasing logical time, measured in seconds."""

    __state__ = fields("_now")

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds (never backwards)."""
        if delta < 0:
            raise ValueError(f"cannot move time backwards (delta={delta})")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump to an absolute timestamp (no-op if already past it)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f})"
