"""Deterministic counter-based random number generation.

Every randomized computation in this package draws from :class:`RngState`, a
splitmix64-style counter generator.  The full contract, so that streams can be
reproduced bit-for-bit from the documentation alone:

* The raw stream of a state with seed ``s`` is ``u_i = mix64(s + i * GAMMA)``
  for ``i = 1, 2, ...`` (all arithmetic mod 2**64), where ``GAMMA`` is the
  64-bit golden-ratio constant ``0x9E3779B97F4A7C15`` and ``mix64`` is the
  standard splitmix64 finalizer::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

* ``randbelow(b)`` draws raw words until one falls below
  ``(2**64 // b) * b`` and returns that word mod ``b``.  Rejection is
  astronomically rare for the bounds used here but is part of the contract.

* ``derive(k)`` yields the seed of an independent substream:
  ``mix64(mix64(s) + (k + 1) * GAMMA)``.  Parallel drivers must give each
  task its own ``derive(task_index)`` state; results are then independent of
  scheduling.

Because the stream is a pure function of ``(seed, index)``, whole blocks of
draws can be produced with vectorized uint64 arithmetic; see
:func:`raw_block`.  A state is single-owner: share seeds, not instances.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """Splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` on a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def rejection_limit(bound: int) -> int:
    """Raw words at or above this value are rejected by ``randbelow(bound)``."""
    return ((1 << 64) // bound) * bound


def raw_block(seed: int, start_index: int, count: int) -> np.ndarray:
    """Raw words ``u_{start_index+1} .. u_{start_index+count}`` of a stream.

    Matches what ``count`` successive ``_draw`` calls on
    ``RngState(seed)`` would return after ``start_index`` draws were consumed.
    """
    idx = np.arange(start_index + 1, start_index + count + 1, dtype=np.uint64)
    return mix64_array(np.uint64(seed & _MASK) + idx * np.uint64(GAMMA))


class RngState:
    """Reproducible splitmix64 counter state.

    ``RngState(seed)`` with the same seed always yields the identical call
    sequence.  Instances are cheap; they hold only the seed and a draw
    counter.
    """

    __slots__ = ("seed", "index")

    def __init__(self, seed: int, index: int = 0):
        self.seed = int(seed) & _MASK
        self.index = int(index)

    def __repr__(self):
        return f"RngState(seed={self.seed:#018x}, index={self.index})"

    def _draw(self) -> int:
        self.index += 1
        return mix64((self.seed + self.index * GAMMA) & _MASK)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = rejection_limit(bound)
        while True:
            u = self._draw()
            if u < limit:
                return u % bound

    def derive(self, index: int) -> "RngState":
        """Independent substream for a task index; does not consume draws."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        return RngState(mix64((mix64(self.seed) + (index + 1) * GAMMA) & _MASK))

    def clone(self) -> "RngState":
        return RngState(self.seed, self.index)
