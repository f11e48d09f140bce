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
:func:`raw_block`.  Samplers ask this module for their bounded draws: a
state's :meth:`RngState.randbelow_block`, or :func:`randbelow_draft` for an
array of seeds, whose substream seeds come from
:meth:`RngState.derived_seeds`.  No other module computes a raw word or a
rejection limit.  A state is single-owner: share seeds, not instances.
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
    return _mix64_in_place(z.astype(np.uint64, copy=True))


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` on a uint64 array, overwriting it."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


# The largest raw word that ``randbelow`` may accept.  Every limit below is
# computed from it, so lowering it lowers the limits of the scalar loop and
# of the draft alike.
_TOP = _MASK


def rejection_limit(bound: int) -> int:
    """Raw words at or above this value are rejected by ``randbelow(bound)``.

    That is ``(2**64 // bound) * bound``: below it every residue mod
    ``bound`` is equally likely.
    """
    return _TOP + 1 - (1 << 64) % bound


def raw_block(seed, start_index: int, count: int) -> np.ndarray:
    """Raw words ``u_{start_index+1} .. u_{start_index+count}`` of a stream.

    Matches what ``count`` successive ``_draw`` calls on
    ``RngState(seed)`` would return after ``start_index`` draws were consumed.
    ``seed`` may be a uint64 array of seeds; the words then have shape
    ``seed.shape + (count,)``.
    """
    idx = np.arange(start_index + 1, start_index + count + 1, dtype=np.uint64)
    return _mix64_in_place(np.asarray(seed, dtype=np.uint64)[..., None] + idx * np.uint64(GAMMA))


def randbelow_draft(seed, start_index: int, bounds) -> tuple[np.ndarray, np.ndarray]:
    """``randbelow(b)`` for each ``b`` in turn, assuming no draw is rejected.

    The draws are those of a state with ``seed`` after ``start_index`` draws,
    one raw word per bound, returned as int64 values with the shape of
    :func:`raw_block`, together with a mask of the seeds whose words hit the
    rejection branch: their values are not the loop's.  The limits of all
    bounds come from one uint64 expression.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if len(bounds) and bounds.min() < 1:
        raise ValueError("bound must be positive")
    wide = bounds.astype(np.uint64)
    # randbelow(b) rejects u >= limit, that is u > limit - 1 = _TOP - 2**64 mod b,
    # and (0 - b) % b is 2**64 mod b in uint64 arithmetic
    highest = np.uint64(_TOP) - (np.uint64(0) - wide) % wide
    words = raw_block(seed, start_index, len(bounds))
    # a word at most the least highest value is accepted whatever its bound
    rejected = (words > highest.min(initial=np.uint64(_TOP))).any(axis=-1)
    if rejected.any():
        rejected = (words > highest).any(axis=-1)
    words %= wide
    return words.view(np.int64), rejected  # each value is below an int64 bound


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

    def randbelow_block(self, bounds) -> np.ndarray:
        """``[randbelow(b) for b in bounds]`` as an int64 array, from one raw block.

        Bounds are positive int64.  Without a rejection the values come from
        :func:`randbelow_draft`; with one, the loop runs from the untouched
        state.  Either way ``index`` ends where the loop leaves it.
        """
        values, rejected = randbelow_draft(self.seed, self.index, bounds)
        if rejected:
            loop = [self.randbelow(b) for b in np.asarray(bounds).tolist()]
            return np.array(loop, dtype=np.int64)
        self.index += len(values)
        return values

    def derive(self, index: int) -> "RngState":
        """Independent substream for a task index; does not consume draws."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        return RngState(mix64((mix64(self.seed) + (index + 1) * GAMMA) & _MASK))

    def derived_seeds(self, first: int, count: int) -> np.ndarray:
        """Seeds of ``derive(first) .. derive(first + count - 1)`` as uint64.

        Substream ``k``'s seed is raw word ``k + 1`` of the stream seeded
        ``mix64(seed)``.
        """
        if first < 0:
            raise ValueError("substream index must be non-negative")
        if count < 0:
            raise ValueError("count must be non-negative")
        return raw_block(mix64(self.seed), first, count)

    def clone(self) -> "RngState":
        return RngState(self.seed, self.index)
