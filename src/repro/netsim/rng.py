"""A seeded RNG whose state snapshots are shared while it is not drawn.

A Mersenne-Twister :meth:`~random.Random.getstate` is a tuple of 625 ints,
about 25 KB, and takes some 15 µs to build and 8 µs to hash.  SUL
snapshots capture the state of every RNG they own, and most of those RNGs
are drawn rarely (at a reset, or when a connection opens), so one state
object can stand for all the snapshots taken between two draws, hashes
once for all of them, and restoring the state the generator already
holds costs nothing.
"""

from __future__ import annotations

import random


class RandomState(tuple):
    """A :meth:`~random.Random.getstate` tuple that hashes once.

    Snapshots are interned by value, so the same state is hashed for
    every snapshot that carries it.  Plain :class:`random.Random` accepts
    it like the tuple it is.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


class SnapshotRandom(random.Random):
    """A :class:`random.Random` returning the same :meth:`getstate` object
    until it is drawn, re-seeded or set to another state.

    Draws are identical to :class:`random.Random` with the same seed.
    """

    #: The generator's state, while it has not been drawn since.
    _state: RandomState | None = None

    def seed(self, a=None, version=2) -> None:
        self._state = None
        super().seed(a, version)

    def random(self) -> float:
        self._state = None
        return super().random()

    def getrandbits(self, k: int) -> int:
        self._state = None
        return super().getrandbits(k)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        self._state = None  # may consume the cached second value undrawn
        return super().gauss(mu, sigma)

    def getstate(self) -> RandomState:
        if self._state is None:
            self._state = RandomState(super().getstate())
        return self._state

    def setstate(self, state: tuple) -> None:
        if state is not self._state and state != self._state:
            super().setstate(state)
            self._state = state if type(state) is RandomState else None
