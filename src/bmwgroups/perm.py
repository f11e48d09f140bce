"""Permutations, involutions, and fixed-point-free involutions.

Conventions used throughout the package:

* Points are 1-based everywhere at the API surface; a permutation of degree
  ``d`` acts on ``{1, .., d}`` and serializes as its 1-based image list,
  e.g. ``[2, 1, 4, 3]`` for (1 2)(3 4).
* Composition is right-to-left: ``(p * q)(x) == p(q(x))``.
* All objects are immutable once constructed and safe to share across
  threads.

The uniform sampler for fixed-point-free involutions pairs, at each step, the
current anchor slot with a uniformly random remaining slot.  Each step has
``n - 1, n - 3, ...`` equally likely outcomes, so the choice count telescopes
to ``(n-1)!!`` and every pairing is produced by exactly one choice sequence:
the distribution is uniform.  One trial of degree ``n`` consumes exactly
``n/2`` ``randbelow`` calls, which makes the draw layout batchable (see
:func:`bmwgroups.randmodel.sample_tuple_images_batch`).  The scalar
:func:`random_fpf_images` is the reference semantics of every sampler.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import DegreeError
from .rng import RngState


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

    def restricted(self, domain: Sequence[int]) -> "Permutation":
        """Re-index the action on an invariant ``domain`` to ``1..len(domain)``.

        ``domain`` must be sorted, and the permutation may not move points
        across its boundary.
        """
        pts = list(domain)
        pos = {p: i + 1 for i, p in enumerate(pts)}
        images = []
        for p in pts:
            q = self._images[p - 1]
            if q not in pos:
                raise DegreeError(f"domain is not invariant: {p} -> {q}")
            images.append(pos[q])
        return Permutation(images)


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


def pairing(alpha: Permutation) -> frozenset[tuple[int, int]]:
    """The 2-point orbits of an involution as sorted pairs.

    For a fixed-point-free involution of degree ``n`` this is a perfect
    matching with exactly ``n/2`` pairs.
    """
    if not alpha.is_involution():
        raise DegreeError("pairing is defined for involutions")
    return frozenset(
        (i + 1, v) for i, v in enumerate(alpha.images) if i + 1 < v
    )


def shares_common_orbit(alpha: Permutation, beta: Permutation) -> bool:
    """Whether two involutions of equal degree have a common 2-point orbit.

    Symmetric and reflexive (for fixed-point-free arguments).
    """
    if alpha.degree != beta.degree:
        raise DegreeError("degree mismatch")
    a, b = alpha.images, beta.images
    return any(v == b[i] and v != i + 1 for i, v in enumerate(a))


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


def count_fpf(n: int) -> int:
    """``|F_n| = (n-1)!!``, the number of fixed-point-free involutions."""
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")
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
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")
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


# -- uniform sampling ----------------------------------------------------------


def random_fpf(n: int, rng: RngState) -> FpfInvolution:
    """A uniformly random fixed-point-free involution of even degree ``n``."""
    return FpfInvolution(random_fpf_images(n, rng))


def random_fpf_images(n: int, rng: RngState) -> list[int]:
    """The 1-based image list of :func:`random_fpf`, same draws, unchecked."""
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")
    slots = list(range(1, n + 1))
    images = [0] * n
    for step in range(n // 2):
        anchor_pos = 2 * step
        j = anchor_pos + 1 + rng.randbelow(n - anchor_pos - 1)
        slots[anchor_pos + 1], slots[j] = slots[j], slots[anchor_pos + 1]
        a, b = slots[anchor_pos], slots[anchor_pos + 1]
        images[a - 1], images[b - 1] = b, a
    return images
