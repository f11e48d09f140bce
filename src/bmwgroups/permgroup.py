"""Queries on subgroups of Sym(d) given by generators.

This backs every "the local action is Sym/Alt" certificate in the package:
exact orders, transitivity and 2-transitivity, primitivity, recognition of
alternating-group containment, and Schreier graphs of generator actions.

Primitivity is a suborbit test: Schreier generators of the stabilizer of
point 1, formed along a breadth-first walk of its orbit, merge the other
points into suborbits, and one finest-block refinement runs per suborbit
rather than one per point.  Merging usually ends at a single suborbit,
which proves 2-transitivity and needs no refinement.

Exact orders sit behind a degree guard, which refuses before any work.  Past
it, three exact facts decide most groups the package meets without a
stabilizer chain:

* generators that are all transpositions generate the direct product of the
  symmetric groups on the components of their graph;
* Jordan's theorem: a primitive group containing a p-cycle, p prime and
  p <= d-3, contains Alt(d), and generator parity then tells Sym(d) from
  Alt(d);
* a transitive group containing such a p-cycle with 2p > d is primitive.

Only when none applies does the deterministic stabilizer chain in
:mod:`bmwgroups.schreier` run, so every order is exact.  Results that cannot
be decided within a budget are reported as ``None`` ("unknown"), never
coerced to ``False``.

Past the exact route, Alt(d) is recognized by Jordan's theorem from random
words in the generators (Seress, *Permutation Group Algorithms*, 2003,
10.2).  Without an explicit rng the words come from one fixed stream, so
word j is the same in every group with k generators.  Groups of one (k, d)
shape are therefore classified together, by :func:`_classify_groups`, on
their block-diagonal stack: a read-only (k, B*d) int64 table whose row r is
every group's row r, block b shifted by b*d.  The stack is built once per
shape, and transitivity, generator parity and the Jordan words all read
it.  :func:`_word` composes each word once on the stack, and one pass of
the isolated-prime rule reads every block's cycles.  A block whose word
certifies leaves the stack: a boolean mask narrows the stack's (k, B, d)
view and the blocks kept shift down, with no rebuild from the groups.  An
involution's parity is read from the number of points it moves, so only
the other rows have their cycles counted.  The stack of one group is its
``images0``.

Group analyses cache write-once on the instance; concurrent readers are safe
once a value is computed, and analyses of distinct groups are independent.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegreeError, RangeError, ResourceError, UsageError
from .perm import Permutation
from .rng import RngState

DEFAULT_ORDER_GUARD = 2000
DEFAULT_PRIMITIVITY_GUARD = 10_000
DEFAULT_EXACT_MAX_DEGREE = 128
DEFAULT_JORDAN_WORDS = 200
DEFAULT_JORDAN_WORD_LEN = 100
# list entries (8 bytes each) of the transversal one primitivity test may build
_TRANSVERSAL_ENTRIES = 1 << 21
_JORDAN_SEED = 0x6A09E667F3BCC908


@functools.lru_cache(maxsize=4)
def _prime_sieve(degree: int) -> np.ndarray:
    """Read-only flags over 0..degree: True at the primes p <= degree-3."""
    sieve = np.ones(degree + 1, dtype=bool)
    sieve[:2] = False
    for f in range(2, math.isqrt(degree) + 1):
        sieve[f * f::f] = False
    sieve[max(degree - 2, 0):] = False
    sieve.flags.writeable = False
    return sieve


def _find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class GroupClassification:
    """Aggregated predicates for one generated group.

    ``None`` means "not computed / not decided within budget"; callers must
    treat it as unknown, not as false.
    """

    degree: int
    method: str  # "exact" | "jordan"
    order: Optional[int] = None
    is_transitive: Optional[bool] = None
    is_two_transitive: Optional[bool] = None
    is_primitive: Optional[bool] = None
    contains_alternating: Optional[bool] = None
    equals_symmetric: Optional[bool] = None

    def to_dict(self) -> dict:
        def tri(v):
            return "unknown" if v is None else v

        return {
            "degree": self.degree,
            "method": self.method,
            "order": "unknown" if self.order is None else self.order,
            "is_transitive": tri(self.is_transitive),
            "is_two_transitive": tri(self.is_two_transitive),
            "is_primitive": tri(self.is_primitive),
            "contains_alternating": tri(self.contains_alternating),
            "equals_symmetric": tri(self.equals_symmetric),
        }


def _cycles(img0: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The least point and the length of each cycle of a 0-based image array.

    No cycle may have more than ``span`` points: the degree, or on a
    block-diagonal stack (:func:`_block_stack`) the block size, so the
    cycles come ordered by block.  Pointer doubling labels each point with
    its cycle minimum: after t rounds ``labels[x]`` is the least of the 2**t
    points x, g(x), g(g(x)), ... and ``jump`` is g**(2**t), so
    ceil(log2 span) rounds cover every cycle.
    """
    points = np.arange(len(img0))
    labels, jump = points.copy(), img0
    for _ in range((span - 1).bit_length()):
        np.minimum(labels, labels.take(jump), out=labels)
        jump = jump.take(jump)
    minima = np.flatnonzero(labels == points)
    return minima, np.bincount(labels)[minima]


def _isolated_primes(
    blocks: np.ndarray, lengths: np.ndarray, count: int, degree: int
) -> np.ndarray:
    """Per block, the largest prime p <= degree-3 such that a power of its permutation is a p-cycle.

    ``blocks`` and ``lengths`` give each cycle's block, in increasing order,
    and its length, as :func:`_cycles` reads them off a stack of ``count``
    blocks of ``degree`` points.  A permutation with a p-cycle whose other
    cycle lengths p does not divide powers to that p-cycle: raise it to the
    lcm of the other lengths.  So p counts when it is the only cycle length
    divisible by p and occurs once.  A block where no p counts gets 0.

    The cycles are sorted by block, then length, so a candidate p, a prime
    length that occurs once in its block, is spoiled only by a longer length
    of its block that p divides; one gather pairs every candidate with
    those lengths.
    """
    span = degree + 1
    keys = blocks * span + lengths
    keys.sort()
    differ = np.ones(len(keys) + 1, dtype=bool)  # from the key before, and the key after
    np.not_equal(keys[1:], keys[:-1], out=differ[1:-1])
    block, length = np.divmod(keys, span)
    once = differ[1:] & differ[:-1]
    candidates = np.flatnonzero(once & _prime_sieve(degree).take(length))
    primes = np.zeros(count, dtype=np.int64)
    if not len(candidates):
        return primes
    block = block.take(candidates)
    longer = np.searchsorted(keys, (block + 1) * span) - candidates - 1
    owner = np.repeat(np.arange(len(candidates)), longer)
    other = np.arange(len(owner)) + np.repeat(candidates + 1 - np.cumsum(longer) + longer, longer)
    p = length.take(candidates)
    spoiled = np.zeros(len(candidates), dtype=bool)
    spoiled[owner[length.take(other) % p.take(owner) == 0]] = True
    block, p = block[~spoiled], p[~spoiled]
    last = np.ones(len(block), dtype=bool)  # each block's largest p
    np.not_equal(block[1:], block[:-1], out=last[:-1])
    primes[block[last]] = p[last]
    return primes


def _row_primes(rows: np.ndarray) -> np.ndarray:
    """:func:`_isolated_primes` of each row of an (r, d) 0-based image array, one block per row."""
    r, d = rows.shape
    minima, lengths = _cycles((rows + np.arange(0, r * d, d)[:, None]).reshape(-1), d)
    return _isolated_primes(minima // d, lengths, r, d)


def _involution_rows(gens: np.ndarray) -> list[bool]:
    """Whether each row of a (k, d) 0-based image array is an involution."""
    points = np.arange(gens.shape[1])
    return [np.array_equal(row.take(row), points) for row in gens]


def _word(
    gens: np.ndarray, rng: RngState, max_word_len: int, involutions: Optional[list[bool]] = None
) -> np.ndarray:
    """A random word in the rows of a (k, d) 0-based image array, as its image array.

    The word takes ``1 + randbelow(max_word_len)`` letters, each
    ``randbelow(k)``, drawn by one
    :meth:`~bmwgroups.rng.RngState.randbelow_block`, and is their product
    from the first letter on.  Adjacent equal letters whose row is an
    involution cancel on a stack before anything is composed, so the product
    is the same with fewer compositions, and a word that cancels whole is
    the identity.  ``involutions`` flags such rows; without it every row is
    tested.  A flag may be False for an involution, which only leaves its
    letters uncancelled.
    """
    if involutions is None:
        involutions = _involution_rows(gens)
    length = 1 + rng.randbelow(max_word_len)
    letters: list[int] = []
    for i in rng.randbelow_block(np.full(length, len(gens))).tolist():
        if letters and letters[-1] == i and involutions[i]:
            letters.pop()
        else:
            letters.append(i)
    if not letters:
        return np.arange(gens.shape[1])
    cur = gens[letters[0]]
    for i in letters[1:]:
        cur = gens[i].take(cur)
    return cur


def _orbit_labels(gens: np.ndarray) -> np.ndarray:
    """The orbit minimum of every point under the rows of a (k, d) 0-based image array.

    Each round hooks every label onto the least label one generator or
    inverse step away from its points, then jumps labels to their labels
    until they settle.  Labels stay in their points' orbits and never
    exceed them, so at the fixpoint each orbit carries its minimum.
    Hooking whole labels keeps the rounds few on a long cycle or path.
    Every gather and scatter reads or writes one row at a time.
    """
    points = np.arange(gens.shape[1])
    moves = list(gens)
    for row in gens:
        inverse = np.empty_like(row)
        inverse[row] = points
        # an involution is its own inverse, so involution rows need no second copy
        if (inverse != row).any():
            moves.append(inverse)
    labels = points
    while True:
        least = labels.copy()  # a label's own point changes no hook
        for row in moves:
            np.minimum(least, labels.take(row), out=least)
        hooked = labels.copy()
        np.minimum.at(hooked, labels, least)
        jumped = hooked.take(hooked)
        while (jumped != hooked).any():
            hooked, jumped = jumped, jumped.take(jumped)
        if (hooked == labels).all():
            return labels
        labels = hooked


def _generator_arrays(degree: int, tables: np.ndarray) -> list[np.ndarray]:
    """``images0`` of each table of a (B, k, degree) array of 0-based images.

    That is the table's distinct rows that move a point, in first-seen
    order, as a read-only int64 array.  One linear hash of every row screens
    the whole array: equal rows hash equal, so a table whose hashes are
    distinct and differ from the identity's keeps a view of its rows, and
    only the others are deduplicated row by row.  The weights increase, so
    no other permutation hashes as the identity while no sum wraps.
    """
    tables = np.ascontiguousarray(tables, dtype=np.int64)
    view = tables.view()
    view.flags.writeable = False
    weights = np.arange(1, degree + 1) ** 2
    hashes = np.einsum("bkd,d->bk", tables, weights)
    hashes.sort(axis=1)
    clean = (hashes != weights @ np.arange(degree)).all(axis=1)
    clean &= (hashes[:, 1:] != hashes[:, :-1]).all(axis=1)
    return [view[b] if ok else _distinct_moving(tables[b]) for b, ok in enumerate(clean.tolist())]


def _distinct_moving(table: np.ndarray) -> np.ndarray:
    """The distinct rows of a (k, d) int64 table that move a point, first-seen order, read-only."""
    d = table.shape[1]
    moving = table[(table != np.arange(d)).any(axis=1)]
    rows = dict.fromkeys(row.tobytes() for row in moving)  # first-seen order
    # an array over immutable bytes is read-only
    return np.frombuffer(b"".join(rows), dtype=np.int64).reshape(len(rows), d)


class PermutationGroup:
    """A subgroup of Sym(degree) given by a list of generators.

    ``images0`` holds the generators as one read-only (k, degree) int64 array
    of 0-based images: row i is the i-th distinct non-identity generator, in
    first-seen order.  The Jordan route's random words index these rows, so
    their order is part of the output.
    """

    # write-once analysis caches
    _rows = _order = _transitive = _two_transitive = _primitive = None

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        degree = int(degree)
        if degree < 1:
            raise DegreeError("degree must be positive")
        gens = tuple(generators)
        if any(g.degree != degree for g in gens):
            raise DegreeError("generator degree mismatch")
        table = np.array([g.images for g in gens], dtype=np.int64).reshape(1, len(gens), degree)
        self._init(degree, _generator_arrays(degree, table - 1)[0], gens)

    @classmethod
    def _from_images0(cls, degree: int, table: np.ndarray) -> "PermutationGroup":
        """The group generated by the rows of a (k, degree) array of 0-based images.

        The one-table case of :meth:`_batch_from_images0`.
        """
        return cls._batch_from_images0(degree, np.asarray(table)[None])[0]

    @classmethod
    def _batch_from_images0(cls, degree: int, tables: np.ndarray) -> list["PermutationGroup"]:
        """The group of each table of a (B, k, degree) array of 0-based images.

        The rows are not checked; each must be a permutation of
        0..degree-1.  A group may view the array, which must not change
        afterwards.
        """
        degree = int(degree)
        groups = []
        for images0 in _generator_arrays(degree, tables):
            group = object.__new__(cls)
            group._init(degree, images0, None)
            groups.append(group)
        return groups

    def _init(
        self, degree: int, images0: np.ndarray, generators: Optional[tuple[Permutation, ...]]
    ) -> None:
        self.degree = degree
        self._generators = generators
        self.images0 = images0

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """The generators as given; for a group built from an array, its rows."""
        if self._generators is None:
            self._generators = tuple(
                Permutation._unchecked(tuple(row)) for row in (self.images0 + 1).tolist()
            )
        return self._generators

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, generators={len(self.images0)})"

    # -- internals -------------------------------------------------------------

    def _lists0(self) -> list[list[int]]:
        """The rows of ``images0`` as lists, for loops that visit one point at a time."""
        if self._rows is None:
            self._rows = self.images0.tolist()
        return self._rows

    # -- order -----------------------------------------------------------------

    def order(self, guard: int = DEFAULT_ORDER_GUARD) -> int:
        """Exact order: by theorem when one applies, else by a stabilizer chain.

        The degree guard comes first and covers both routes.  Then
        :meth:`_order_by_theorem` tries the exact facts listed in the module
        docstring; only when none decides does the Schreier-Sims chain of
        :func:`bmwgroups.schreier.chain_order` run.
        """
        if self._order is None:
            if self.degree > guard:
                raise ResourceError(
                    f"degree {self.degree} exceeds the stabilizer-chain guard {guard};"
                    " use the jordan strategy instead"
                )
            if not len(self.images0):
                self._order = 1
            else:
                self._order = self._order_by_theorem()
            if self._order is None:
                from .schreier import chain_order

                self._order = chain_order(self.degree, self.images0)
        return self._order

    def _order_by_theorem(self) -> Optional[int]:
        """The exact order when a classical theorem settles it, else ``None``.

        * Every generator a transposition: the group is the direct product of
          Sym(O) over its orbits O, so the order is the product of the
          ``|O|!``.  With one orbit it is Sym(d), which is primitive and
          2-transitive.
        * Jordan (Wielandt, *Finite Permutation Groups*, Thm 13.9;
          Dixon-Mortimer, *Permutation Groups*, Thm 3.3E): a primitive group
          containing a p-cycle, p prime and p <= d-3, contains Alt(d).  The
          p-cycle is a power of a generator or of a product of two generators
          (:func:`_isolated_primes`, read with each permutation as a block:
          the generators first, then the products with each generator in
          turn).  A transitive group with such a p-cycle and
          2p > d is primitive, since a block system would need blocks of
          size >= p > d/2; otherwise :meth:`is_primitive` decides.  An odd
          generator then gives d!, all even ones d!/2.

        ``None`` (intransitive, imprimitive, no certificate, or d < 5) leaves
        the order to the stabilizer chain.
        """
        d = self.degree
        gens = self.images0
        if ((gens != np.arange(d)).sum(axis=1) == 2).all():
            sizes = np.bincount(_orbit_labels(gens))
            self._transitive = bool(sizes[0] == d)
            if self._transitive:  # the group is Sym(d)
                self._primitive = self._two_transitive = True
            return math.prod(math.factorial(size) for size in sizes.tolist())
        if d < 5 or not self.is_transitive():
            return None
        products = (gens[i + 1:].take(h, axis=1) for i, h in enumerate(gens[:-1]))
        primes = (_row_primes(rows) for rows in itertools.chain([gens], products))
        p = next((int(found[found > 0][0]) for found in primes if found.any()), None)
        if p is None:
            return None
        if 2 * p <= d and not (d <= DEFAULT_PRIMITIVITY_GUARD and self.is_primitive()):
            return None
        # Alt(d) <= G at d >= 5, so G is also primitive and 2-transitive
        self._primitive = self._two_transitive = True
        return math.factorial(d) if _odd_generators(gens, d)[0] else math.factorial(d) // 2

    # -- orbit predicates --------------------------------------------------------

    def is_transitive(self) -> bool:
        if self._transitive is None:
            self._transitive = not _orbit_labels(self.images0).any()
        return self._transitive

    def is_two_transitive(self) -> bool:
        """Transitive on ordered pairs of distinct points.

        The pair (x, y) is coded x * d + y, on which g acts as
        g[x] * d + g[y]; every off-diagonal code must share the orbit, and so
        the label, of the code 1 of the pair (0, 1).
        """
        if self.degree < 2:
            raise DegreeError("2-transitivity needs degree at least 2")
        if self._two_transitive is None:
            if not self.is_transitive():
                self._two_transitive = False
            else:
                d = self.degree
                gens = self.images0
                pairs = (gens[:, :, None] * d + gens[:, None, :]).reshape(len(gens), d * d)
                labels = _orbit_labels(pairs)
                self._two_transitive = bool((labels[~np.eye(d, dtype=bool).ravel()] == 1).all())
        return self._two_transitive

    def is_primitive(self) -> bool:
        """No nontrivial invariant partition; ``False`` for intransitive groups.

        A suborbit test (Atkinson, *An algorithm for finding the blocks of a
        permutation group*, Math. Comp. 1975; Seress, *Permutation Group
        Algorithms*, 2003, 5.5).  If h fixes 1 and maps w to w', it maps the
        finest block system joining {1, w} onto the one joining {1, w'}, so
        both blocks have the same size.  One :meth:`minimal_block_with` call
        per orbit on {2..d} of any subgroup H of the stabilizer of 1 therefore
        decides, whatever H is; :meth:`_suborbit_representatives` grows H.
        When H is transitive on {2..d}, the group is 2-transitive and so
        primitive with no refinement at all.
        """
        if self._primitive is None:
            if self.degree > DEFAULT_PRIMITIVITY_GUARD:
                raise ResourceError(
                    f"degree {self.degree} exceeds the primitivity guard"
                    f" {DEFAULT_PRIMITIVITY_GUARD}"
                )
            if not self.is_transitive():
                self._primitive = False
            elif self.degree <= 2:
                self._primitive = True
            else:
                reps = self._suborbit_representatives()
                self._primitive = len(reps) == 1 or all(
                    len(self.minimal_block_with(w)) == self.degree for w in reps
                )
        return self._primitive

    def _suborbit_representatives(self) -> list[int]:
        """The least point of each orbit on {2..d} of a subgroup H of the stabilizer of 1.

        1-based; the group must be transitive.  H is generated by the
        Schreier generators of :meth:`_stabilizer_generators`, whose orbits
        merge in a union-find with orbit minima as roots until {2..d} is one
        orbit.  :meth:`is_primitive` is exact for any H, so the walk may stop
        there or at its budget.
        """
        d = self.degree
        parent = list(range(d))
        labels = parent[:]  # the root of each point: the least point of its orbit
        classes = d - 1
        for a, b in self._stabilizer_generators():
            la, lb = list(map(labels.__getitem__, a)), list(map(labels.__getitem__, b))
            if la == lb:
                continue
            for p, q in zip(la, lb):
                if p != q:
                    rp, rq = _find(parent, p), _find(parent, q)
                    if rp != rq:
                        parent[max(rp, rq)] = min(rp, rq)
                        classes -= 1
            if classes == 1:
                return [2]
            labels = [_find(parent, x) for x in range(d)]
        return [w + 1 for w in range(1, d) if labels[w] == w]

    def _stabilizer_generators(self) -> Iterator[tuple[list[int], list[int]]]:
        """Schreier generators of the stabilizer of point 1, in breadth-first order.

        A breadth-first walk from 1 reaches y = g(x) over a tree edge or
        over an edge that closes a cycle.  With u_x the product of the tree
        edges from 1 to x, each edge of the second kind gives the Schreier
        generator u_y^-1 g u_x, which fixes 1; all of them generate the
        stabilizer (Schreier's lemma).  Each comes as two 0-based lists
        (a, b): it maps a[r] to b[r] for every r.  The walk keeps the inverse
        v_x of u_x, so a = v_x and b = v_y g need no inversion.  A transversal
        element is built, with the missing ones on its tree path, only when a
        generator needs it; the walk ends early rather than build more than
        ``_TRANSVERSAL_ENTRIES // d`` of them.
        """
        d = self.degree
        rows = self._lists0()
        inverses: dict[int, list[int]] = {}
        up, via = [-1] * d, [-1] * d  # tree parent of each reached point, and its generator
        up[0] = 0
        orbit = [0]
        transversal = {0: list(range(d))}  # x -> v_x
        cap = _TRANSVERSAL_ENTRIES // d

        def element(x: int) -> Optional[list[int]]:
            """v_x, or None when building it would pass the cap."""
            path = []
            y = x
            while y not in transversal:
                path.append(y)
                y = up[y]
            if len(transversal) + len(path) > cap:
                return None
            for y in reversed(path):
                i = via[y]
                if i not in inverses:
                    inverses[i] = sorted(range(d), key=rows[i].__getitem__)
                # v_y = v_x g^-1 for the tree edge y = g(x)
                transversal[y] = list(map(transversal[up[y]].__getitem__, inverses[i]))
            return transversal[x]

        for x in orbit:  # the list grows as the walk reaches new points
            for i, g in enumerate(rows):
                y = g[x]
                if up[y] < 0:
                    up[y], via[y] = x, i
                    orbit.append(y)
                    continue
                v_x, v_y = element(x), element(y)
                if v_x is None or v_y is None:
                    return
                yield v_x, list(map(v_y.__getitem__, g))

    def minimal_block_with(self, w: int) -> frozenset[int]:
        """The block of point 1 in the finest system merging {1, w} (1-based)."""
        if not (2 <= w <= self.degree):
            raise RangeError("w must lie in 2..degree")
        parent = list(range(self.degree))
        gens0 = self._lists0()
        parent[w - 1] = 0
        queue = [(0, w - 1)]
        classes = self.degree - 1
        while queue and classes > 1:
            x, y = queue.pop()
            for g in gens0:
                rx, ry = _find(parent, g[x]), _find(parent, g[y])
                if rx != ry:
                    parent[ry] = rx
                    classes -= 1
                    queue.append((g[x], g[y]))
        root0 = _find(parent, 0)
        return frozenset(x + 1 for x in range(self.degree) if _find(parent, x) == root0)

    # -- alternating-group recognition --------------------------------------------

    def contains_alternating(
        self,
        strategy: str = "exact",
        *,
        rng: Optional[RngState] = None,
        words: int = DEFAULT_JORDAN_WORDS,
        max_word_len: int = DEFAULT_JORDAN_WORD_LEN,
    ) -> Optional[bool]:
        """Whether Alt(degree) is contained in the group.

        exact
            Computes the exact order and compares against d!/2 (for every
            d >= 2 the unique index-2 subgroup of Sym(d) is Alt(d)).
            Deterministic true/false.

        jordan
            Semi-decision procedure for degrees beyond the stabilizer-chain
            guard.  Certifies containment from transitivity plus a random
            word in the generators whose cycle type powers to a p-cycle,
            p prime <= d-3 (Jordan).  A found p > d/2 additionally
            certifies primitivity for free: a nontrivial block system would
            need blocks of size >= p > d/2.  Smaller p fall back to the
            explicit primitivity check once the words are spent, when the
            degree permits.  Returns None when the word budget is exhausted
            without a certificate.  Without ``rng`` the words come from one
            fixed stream, so word j is the same in every group with as many
            generators, and a batch of such groups composes it once on their
            block-diagonal stack (:func:`_classify_groups`).  With ``rng``,
            its draws are those of a loop over the words up to the first
            certifying one.
        """
        if strategy not in ("exact", "jordan"):
            raise UsageError(f"unknown strategy {strategy!r}")
        if strategy == "jordan":
            cls = self.classify("jordan", rng=rng, words=words, max_word_len=max_word_len)
            return cls.contains_alternating
        if not len(self.images0):
            return self.degree <= 2  # Alt(d) is trivial only for d <= 2
        return self.order() >= math.factorial(self.degree) // 2

    # -- aggregation ----------------------------------------------------------------

    def classify(
        self,
        strategy: str = "auto",
        *,
        rng: Optional[RngState] = None,
        order_guard: int = DEFAULT_ORDER_GUARD,
        exact_max_degree: int = DEFAULT_EXACT_MAX_DEGREE,
        words: int = DEFAULT_JORDAN_WORDS,
        max_word_len: int = DEFAULT_JORDAN_WORD_LEN,
    ) -> GroupClassification:
        """Compute the feasible predicates and package them up.

        ``auto`` selects exact analysis up to ``exact_max_degree`` and the
        jordan route beyond it.
        """
        return _classify_groups(
            [self],
            strategy,
            rng=rng,
            order_guard=order_guard,
            exact_max_degree=exact_max_degree,
            words=words,
            max_word_len=max_word_len,
        )[0]

    def _exact_classification(self, order_guard: int) -> GroupClassification:
        d = self.degree
        order = self.order(guard=order_guard)
        return GroupClassification(
            degree=d,
            method="exact",
            order=order,
            is_transitive=self.is_transitive(),
            is_two_transitive=self.is_two_transitive() if d >= 2 else None,
            is_primitive=self.is_primitive(),
            contains_alternating=order >= math.factorial(d) // 2,
            equals_symmetric=order == math.factorial(d),
        )

    def _jordan_classification(
        self, contains_alt: Optional[bool], odd: bool
    ) -> GroupClassification:
        """The jordan route's classification from its answer and generator parity."""
        d = self.degree
        if not odd:
            equals_sym = False
        elif contains_alt is True:
            equals_sym = True  # an odd generator rules out G <= Alt(d)
        else:
            equals_sym = None
        return GroupClassification(
            degree=d,
            method="jordan",
            order=None,
            is_transitive=self.is_transitive(),
            is_two_transitive=True if (contains_alt is True and d >= 4) else None,
            is_primitive=True if (contains_alt is True and d >= 3) else None,
            contains_alternating=contains_alt,
            equals_symmetric=equals_sym,
        )


# -- batches of groups on one block-diagonal stack ---------------------------------------


def _by_shape(groups: Sequence[PermutationGroup]) -> list[list[int]]:
    """The indices of the groups, gathered by the (k, d) shape of their generator arrays."""
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, g in enumerate(groups):
        shapes.setdefault(g.images0.shape, []).append(i)
    return list(shapes.values())


def _block_stack(groups: Sequence[PermutationGroup]) -> np.ndarray:
    """The block-diagonal stack of groups of one (k, d) shape: a read-only (k, B*d) table.

    Row r is every group's row r, block b shifted by b*d, so a word in the
    stack's rows is that word in every block, and the stack's orbits and
    cycles are those of its blocks.  ``reshape(k, B, d)`` views the blocks.
    The stack of one group is its ``images0``.
    """
    if len(groups) == 1:
        return groups[0].images0
    d = groups[0].degree
    table = np.concatenate([g.images0 for g in groups], axis=1)
    table += np.repeat(np.arange(0, len(groups) * d, d), d)
    table.flags.writeable = False
    return table


def _sub_stack(stack: np.ndarray, d: int, keep: np.ndarray) -> np.ndarray:
    """The stack of the blocks a boolean mask keeps, each shifted down to its new place."""
    k = len(stack)
    kept = np.flatnonzero(keep)
    table = stack.reshape(k, -1, d).take(kept, axis=1).reshape(k, -1)
    table -= np.repeat((kept - np.arange(len(kept))) * d, d)
    table.flags.writeable = False
    return table


def _transitive_blocks(stack: np.ndarray, d: int) -> list[bool]:
    """Whether each block of a stack is transitive: all its orbit labels are its first point."""
    labels = _orbit_labels(stack).reshape(-1, d)
    return (labels == labels[:, :1]).all(axis=1).tolist()


def _mark_transitive(groups: Sequence[PermutationGroup]) -> None:
    """Cache ``is_transitive`` of every group: one orbit labelling per shape."""
    pending = [g for g in groups if g._transitive is None]
    for shape in _by_shape(pending):
        members = [pending[i] for i in shape]
        for g, t in zip(members, _transitive_blocks(_block_stack(members), members[0].degree)):
            g._transitive = t


def _odd_generators(stack: np.ndarray, d: int) -> list[bool]:
    """Whether each block of a stack of degree-d groups has an odd generator.

    A row's block that is an involution and moves 2t points has parity t
    mod 2; only a row that is no involution in some block has its cycles
    counted, and its parity is d minus its cycle count there.  The rows stop
    once every block has an odd one.
    """
    points = np.arange(stack.shape[1])
    found = np.zeros(stack.shape[1] // d, dtype=bool)
    for row in stack:
        if found.all():
            break
        moved = (row != points).reshape(-1, d).sum(axis=1)
        odd = moved // 2 % 2 == 1
        involution = (row.take(row) == points).reshape(-1, d).all(axis=1)
        if not involution.all():
            cycles = np.bincount(_cycles(row, d)[0] // d, minlength=len(found))
            odd = np.where(involution, odd, (d - cycles) % 2 == 1)
        found |= odd
    return found.tolist()


def _jordan_words(
    groups: Sequence[PermutationGroup],
    stack: np.ndarray,
    rng: RngState,
    words: int,
    max_word_len: int,
) -> list[Optional[bool]]:
    """Jordan certificates of transitive groups of one (k, d) shape, d >= 5, from their stack.

    Each word is composed once, by :func:`_word` on the stack of the groups
    still uncertified, and one :func:`_isolated_primes` call reads every
    block's prime off its cycles.  A block whose prime p lies in (d/2, d-3]
    is certified and leaves the stack: a boolean mask drops it from the
    (k, B, d) view and the blocks kept shift down, so the stack is never
    rebuilt from the groups.  The stream stops once no block is left.  A
    block's flag for a smaller p matters only once the words are spent:
    then :meth:`PermutationGroup.is_primitive` decides.  The involution
    flags come from the first stack: a row that is an involution in every
    block is one in every sub-stack.
    """
    d = groups[0].degree
    answers: list[Optional[bool]] = [None] * len(groups)
    small = np.zeros(len(groups), dtype=bool)
    live = np.arange(len(groups))  # the group of each block of the stack
    involutions = _involution_rows(stack)
    for _ in range(words):
        minima, lengths = _cycles(_word(stack, rng, max_word_len, involutions), d)
        primes = _isolated_primes(minima // d, lengths, len(live), d)
        small[live] |= primes > 0
        hit = 2 * primes > d
        if hit.any():
            for i in live[hit].tolist():
                answers[i] = True
            live = live[~hit]
            if not len(live):
                break
            stack = _sub_stack(stack, d, ~hit)
    for i in live.tolist():
        if small[i] and d <= DEFAULT_PRIMITIVITY_GUARD and groups[i].is_primitive():
            answers[i] = True
    return answers


def _classify_groups(
    groups: Sequence[PermutationGroup],
    strategy: str = "auto",
    *,
    rng: Optional[RngState] = None,
    order_guard: int = DEFAULT_ORDER_GUARD,
    exact_max_degree: int = DEFAULT_EXACT_MAX_DEGREE,
    words: int = DEFAULT_JORDAN_WORDS,
    max_word_len: int = DEFAULT_JORDAN_WORD_LEN,
) -> list[GroupClassification]:
    """``classify`` of each group; the jordan route reads one stack per shape.

    Each (k, d) shape of the jordan-route groups is stacked once
    (:func:`_block_stack`), and that stack gives the groups' transitivity,
    when not cached, their generator parity and their Jordan words.  Groups
    with no generator or of degree below 5 are decided exactly.  The
    transitive rest draw their words from the default stream, started
    afresh for each shape, so one :func:`_jordan_words` call serves a shape.
    An explicit ``rng`` is one stream, consumed as the word loop would, so
    it serves one jordan-route group.  The caller bounds the stacks' memory:
    a shape's stack holds k·B·d entries for its B groups.
    """
    if strategy not in ("auto", "exact", "jordan"):
        raise UsageError(f"unknown strategy {strategy!r}")
    exact = [
        strategy == "exact" or (strategy == "auto" and g.degree <= exact_max_degree)
        for g in groups
    ]
    jordan = [g for g, e in zip(groups, exact) if not e]
    if rng is not None and len(jordan) > 1:
        raise UsageError("an explicit rng serves one group")
    found: list[Optional[GroupClassification]] = [None] * len(jordan)
    for shape in _by_shape(jordan):
        members = [jordan[i] for i in shape]
        k, d = members[0].images0.shape
        stack = _block_stack(members)
        if any(g._transitive is None for g in members):
            for g, t in zip(members, _transitive_blocks(stack, d)):
                g._transitive = t
        odd = _odd_generators(stack, d)
        transitive = [g._transitive for g in members]
        contains = [False] * len(members)  # an intransitive group holds no Alt(d)
        if not k or d < 5:
            contains = [g.contains_alternating("exact") for g in members]
        elif any(transitive):
            if not all(transitive):
                stack = _sub_stack(stack, d, np.array(transitive))
            stream = RngState(_JORDAN_SEED) if rng is None else rng
            pending = [g for g, t in zip(members, transitive) if t]
            certified = iter(_jordan_words(pending, stack, stream, words, max_word_len))
            contains = [next(certified) if t else False for t in transitive]
        for i, g, c, o in zip(shape, members, contains, odd):
            found[i] = g._jordan_classification(c, o)
    jordan_cls = iter(found)
    return [
        g._exact_classification(order_guard) if e else next(jordan_cls)
        for g, e in zip(groups, exact)
    ]


# -- Schreier graphs -------------------------------------------------------------------


@dataclass(frozen=True)
class SchreierAnalysis:
    """Connectivity/bipartiteness data of a generator action on a domain.

    ``edges`` is the simple Schreier graph (loops discarded, no multi-edges);
    ``loops`` records the discarded fixed-point incidences ``(generator
    index, point)`` separately, since a loop is an odd closed walk even
    though it never obstructs a 2-coloring of the simple graph.
    ``odd_cycle`` is a closed walk of odd length witnessing bipartite=False,
    as a vertex sequence with equal endpoints.
    """

    domain: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    connected: bool
    bipartite: bool
    loops: tuple[tuple[int, int], ...]
    odd_cycle: Optional[tuple[int, ...]]


def schreier_analysis(
    generators: Sequence[Permutation], domain: Iterable[int]
) -> SchreierAnalysis:
    """Build the Schreier graph of a generator action and 2-color it.

    Edges are the pairs ``{x, g(x)}`` over all generators and domain points;
    connectivity and bipartiteness come from one breadth-first 2-coloring.
    Every generator must map the domain into itself.
    """
    points = sorted(set(int(x) for x in domain))
    if not points:
        raise RangeError("domain must be non-empty")
    point_set = set(points)
    edges = set()
    loops = []
    adj: dict[int, list[int]] = {p: [] for p in points}
    for gi, g in enumerate(generators):
        for x in points:
            y = g(x)
            if y not in point_set:
                raise RangeError(f"generator {gi} maps {x} outside the domain")
            if y == x:
                loops.append((gi, x))
            elif (min(x, y), max(x, y)) not in edges:
                edges.add((min(x, y), max(x, y)))
                adj[x].append(y)
                adj[y].append(x)
    color: dict[int, int] = {}
    parent: dict[int, Optional[int]] = {}
    bipartite = True
    odd_cycle = None
    components = 0
    for root in points:
        if root in color:
            continue
        components += 1
        color[root] = 0
        parent[root] = None
        queue = [root]
        while queue:
            nxt = []
            for x in queue:
                for y in adj[x]:
                    if y not in color:
                        color[y] = color[x] ^ 1
                        parent[y] = x
                        nxt.append(y)
                    elif color[y] == color[x] and bipartite:
                        bipartite = False

                        def walk_to_root(v):
                            path = [v]
                            while parent[path[-1]] is not None:
                                path.append(parent[path[-1]])
                            return path

                        up_x = walk_to_root(x)
                        up_y = walk_to_root(y)
                        odd_cycle = tuple(reversed(up_x)) + tuple(up_y)
            queue = nxt
    connected = components == 1
    return SchreierAnalysis(
        domain=tuple(points),
        edges=frozenset(edges),
        connected=connected,
        bipartite=bipartite,
        loops=tuple(loops),
        odd_cycle=odd_cycle,
    )
