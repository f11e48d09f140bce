"""Permutations, involutions, and fixed-point-free involutions.

Conventions used throughout the package:

* Points are 1-based everywhere at the API surface; a permutation of degree
  ``d`` acts on ``{1, .., d}`` and serializes as its 1-based image list,
  e.g. ``[2, 1, 4, 3]`` for (1 2)(3 4).
* Composition is right-to-left: ``(p * q)(x) == p(q(x))``.
* All objects are immutable once constructed and safe to share across
  threads.

Fixed-point-free involutions are counted and listed here; they are sampled,
as whole tuples, in :mod:`bmwgroups.randmodel`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import DegreeError


class Permutation:
    """An element of Sym(d), stored as its 1-based image tuple."""

    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(v) for v in images)
        d = len(imgs)
        if d == 0:
            raise DegreeError("degree must be positive")
        seen = [False] * d
        for v in imgs:
            if not (1 <= v <= d) or seen[v - 1]:
                raise DegreeError(f"{list(imgs)} is not a bijection of 1..{d}")
            seen[v - 1] = True
        self._images = imgs

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from an int tuple already known to be a bijection of 1..d."""
        obj = object.__new__(cls)
        obj._images = images
        return obj

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def transposition(cls, degree: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= degree and 1 <= j <= degree) or i == j:
            raise DegreeError(f"invalid transposition ({i} {j}) at degree {degree}")
        images = list(range(1, degree + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not (1 <= a <= degree):
                    raise DegreeError(f"cycle point {a} outside 1..{degree}")
                if images[a - 1] != a:
                    raise DegreeError("cycles are not disjoint")
                images[a - 1] = b
        return cls(images)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image tuple; ``images[i-1]`` is the image of point ``i``."""
        return self._images

    def __call__(self, point: int) -> int:
        return self._images[point - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self):
        return hash(self._images)

    def __repr__(self):
        return f"{type(self).__name__}({self.cycle_string()})"

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self._images))

    def is_involution(self) -> bool:
        return all(self._images[v - 1] == i + 1 for i, v in enumerate(self._images))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self._images) if v == i + 1)

    def moved_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, v in enumerate(self._images) if v != i + 1)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1] or self._images[start - 1] == start:
                continue
            cycle = [start]
            seen[start - 1] = True
            nxt = self._images[start - 1]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt - 1] = True
                nxt = self._images[nxt - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def parity(self) -> int:
        """0 for even permutations, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeError("cannot compose permutations of different degree")
        mine = self._images
        return Permutation(tuple(mine[v - 1] for v in other._images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self._images):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def __pow__(self, exponent: int) -> "Permutation":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Permutation.identity(self.degree)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


class FpfInvolution(Permutation):
    """A fixed-point-free involution: even degree, self-inverse, no fixed point."""

    __slots__ = ()

    def __init__(self, images: Sequence[int]):
        super().__init__(images)
        if self.degree % 2:
            raise DegreeError("fixed-point-free involutions have even degree")
        for i, v in enumerate(self._images):
            if v == i + 1:
                raise DegreeError(f"point {i + 1} is fixed")
            if self._images[v - 1] != i + 1:
                raise DegreeError("not an involution")


# -- exact counting ------------------------------------------------------------


def double_factorial(k: int) -> int:
    """``k!!`` with the convention ``(-1)!! = 0!! = 1``; exact integer."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _check_even(n: int) -> None:
    """Refuse a degree ``n`` that no fixed-point-free involution has."""
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")


def count_fpf(n: int) -> int:
    """``|F_n| = (n-1)!!``, the number of fixed-point-free involutions."""
    _check_even(n)
    return double_factorial(n - 1)


def count_involutions(n: int) -> int:
    """Number of self-inverse permutations of ``n`` points (identity included).

    Uses the recursion I(n) = I(n-1) + (n-1) I(n-2) with I(0) = I(1) = 1.
    """
    if n < 0:
        raise DegreeError("n must be non-negative")
    prev2, prev1 = 1, 1
    for k in range(2, n + 1):
        prev2, prev1 = prev1, prev1 + (k - 1) * prev2
    return prev1 if n >= 1 else 1


def enumerate_fpf(n: int) -> Iterator[FpfInvolution]:
    """All fixed-point-free involutions of degree ``n``, lexicographically.

    Exhaustive; meant for desk-scale oracles (``(n-1)!!`` elements).
    """
    _check_even(n)
    images = [0] * n

    def fill(todo: list[int]):
        if not todo:
            yield FpfInvolution(images)
            return
        first = todo[0]
        for idx in range(1, len(todo)):
            partner = todo[idx]
            images[first - 1], images[partner - 1] = partner, first
            rest = todo[1:idx] + todo[idx + 1:]
            yield from fill(rest)
        images[first - 1] = 0

    yield from fill(list(range(1, n + 1)))
