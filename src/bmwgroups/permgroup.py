"""Queries on subgroups of Sym(d) given by generators.

This backs every "the local action is Sym/Alt" certificate in the package:
exact orders, transitivity and 2-transitivity, primitivity through
finest-block refinement, recognition of alternating-group containment, and
Schreier graphs of generator actions.

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

Group analyses cache write-once on the instance; concurrent readers are safe
once a value is computed, and analyses of distinct groups are independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegreeError, RangeError, ResourceError, UsageError
from .perm import Permutation
from . import rng as rng_module
from .rng import RngState, raw_block

DEFAULT_ORDER_GUARD = 2000
DEFAULT_PRIMITIVITY_GUARD = 10_000
DEFAULT_JORDAN_WORDS = 200
DEFAULT_JORDAN_WORD_LEN = 100
_JORDAN_SEED = 0x6A09E667F3BCC908


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


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


def _cycle_lengths(img0: np.ndarray) -> np.ndarray:
    """The lengths of the cycles of a 0-based image array, one per cycle.

    Pointer doubling labels each point with its cycle minimum: after t
    rounds ``labels[x]`` is the least of the 2**t points x, g(x), g(g(x)),
    ... and ``jump`` is g**(2**t), so ceil(log2 d) rounds cover every cycle.
    """
    labels, jump = np.arange(len(img0)), img0
    for _ in range((len(img0) - 1).bit_length()):
        labels = np.minimum(labels, labels[jump])
        jump = jump[jump]
    return np.bincount(labels, minlength=len(img0))[labels == np.arange(len(img0))]


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
        table = np.array([g.images for g in gens], dtype=np.int64).reshape(len(gens), degree)
        self._init(degree, table - 1, gens)

    @classmethod
    def _from_images0(cls, degree: int, table: np.ndarray) -> "PermutationGroup":
        """The group generated by the rows of a (k, degree) array of 0-based images.

        The rows are not checked; each must be a permutation of 0..degree-1.
        """
        group = object.__new__(cls)
        group._init(int(degree), table, None)
        return group

    def _init(
        self, degree: int, table: np.ndarray, generators: Optional[tuple[Permutation, ...]]
    ) -> None:
        self.degree = degree
        self._generators = generators
        moving = table[(table != np.arange(degree)).any(axis=1)].astype(np.int64, copy=False)
        rows = dict.fromkeys(row.tobytes() for row in moving)  # first-seen order
        # an array over immutable bytes is read-only
        self.images0 = np.frombuffer(b"".join(rows), dtype=np.int64).reshape(len(rows), degree)

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

    def _orbit_labels(self) -> np.ndarray:
        """The orbit minimum of every point.

        Each round hooks every label onto the least label one generator or
        inverse step away from its points, then jumps labels to their labels
        until they settle.  Labels stay in their points' orbits and never
        exceed them, so at the fixpoint each orbit carries its minimum.
        Hooking whole labels keeps the rounds few on a long cycle or path.
        """
        d = self.degree
        gens = self.images0
        inverses = np.empty_like(gens)
        np.put_along_axis(inverses, gens, np.arange(d), axis=1)
        # an involution is its own inverse
        moves = np.concatenate([gens, inverses[(inverses != gens).any(axis=1)]])
        labels = np.arange(d)
        while True:
            hooked = labels.copy()
            np.minimum.at(hooked, labels, labels[moves].min(axis=0, initial=d))
            jumped = hooked[hooked]
            while not np.array_equal(jumped, hooked):
                hooked, jumped = jumped, jumped[jumped]
            if np.array_equal(hooked, labels):
                return labels
            labels = hooked

    def _has_odd_generator(self) -> bool:
        """Whether some generator is odd: d minus its cycle count is odd."""
        return any((self.degree - len(_cycle_lengths(g))) % 2 for g in self.images0)

    def _prime_cycle(self, img0: np.ndarray) -> Optional[int]:
        """The largest prime p <= d-3 such that a power of ``img0`` is a p-cycle.

        A permutation with a p-cycle whose other cycle lengths p does not
        divide powers to that p-cycle: raise it to the lcm of the other
        lengths.  So p counts when it is the only cycle length divisible by
        p and occurs once.  None when no p counts.
        """
        d = self.degree
        counts = np.bincount(_cycle_lengths(img0))
        present = np.flatnonzero(counts).tolist()
        for p in reversed(present):
            if (
                p <= d - 3
                and counts[p] == 1
                and _is_prime(p)
                and not any(q % p == 0 for q in present if q != p)
            ):
                return p
        return None

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
          ``|O|!``.
        * Jordan (Wielandt, *Finite Permutation Groups*, Thm 13.9;
          Dixon-Mortimer, *Permutation Groups*, Thm 3.3E): a primitive group
          containing a p-cycle, p prime and p <= d-3, contains Alt(d).  The
          p-cycle is a power of a generator or of a product of two generators
          (:meth:`_prime_cycle`).  A transitive group with such a p-cycle and
          2p > d is primitive, since a block system would need blocks of
          size >= p > d/2; otherwise :meth:`is_primitive` decides.  An odd
          generator then gives d!, all even ones d!/2.

        ``None`` (intransitive, imprimitive, no certificate, or d < 5) leaves
        the order to the stabilizer chain.
        """
        d = self.degree
        gens = self.images0
        if ((gens != np.arange(d)).sum(axis=1) == 2).all():
            sizes = np.bincount(self._orbit_labels())
            return math.prod(math.factorial(size) for size in sizes.tolist())
        if d < 5 or not self.is_transitive():
            return None
        products = (g.take(h) for h, g in itertools.combinations(gens, 2))
        p = next(filter(None, map(self._prime_cycle, itertools.chain(gens, products))), None)
        if p is None:
            return None
        if 2 * p <= d and not (d <= DEFAULT_PRIMITIVITY_GUARD and self.is_primitive()):
            return None
        # Alt(d) <= G at d >= 5, so G is also primitive and 2-transitive
        self._primitive = self._two_transitive = True
        return math.factorial(d) if self._has_odd_generator() else math.factorial(d) // 2

    # -- orbit predicates --------------------------------------------------------

    def is_transitive(self) -> bool:
        if self._transitive is None:
            self._transitive = not self._orbit_labels().any()
        return self._transitive

    def is_two_transitive(self) -> bool:
        """Transitive on ordered pairs of distinct points."""
        if self.degree < 2:
            raise DegreeError("2-transitivity needs degree at least 2")
        if self._two_transitive is None:
            if not self.is_transitive():
                self._two_transitive = False
            else:
                d = self.degree
                gens0 = self._lists0()
                start = 0 * d + 1  # the ordered pair (1, 2)
                seen = {start}
                stack = [start]
                while stack:
                    code = stack.pop()
                    x, y = divmod(code, d)
                    for g in gens0:
                        nxt = g[x] * d + g[y]
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                self._two_transitive = len(seen) == d * (d - 1)
        return self._two_transitive

    def is_primitive(self, guard: int = DEFAULT_PRIMITIVITY_GUARD) -> bool:
        """No nontrivial invariant partition; ``False`` for intransitive groups.

        Builds, for every point ``w != 1``, the finest block system whose
        block contains both 1 and ``w`` (union-find refinement) and checks it
        is the full point set.  O(d^2 * generators) worst case.
        """
        if self._primitive is None:
            if self.degree > guard:
                raise ResourceError(
                    f"degree {self.degree} exceeds the primitivity guard {guard}"
                )
            if not self.is_transitive():
                self._primitive = False
            elif self.degree <= 2:
                self._primitive = True
            else:
                self._primitive = all(
                    len(self.minimal_block_with(w)) == self.degree
                    for w in range(2, self.degree + 1)
                )
        return self._primitive

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

    def _word_element(self, rng: RngState, max_word_len: int) -> np.ndarray:
        """A random word in the generators, as its 0-based image array.

        The word takes ``1 + randbelow(max_word_len)`` letters, each
        ``randbelow(k)``, and is their product from the first letter on.
        The letters' raw words are computed as one block and checked against
        the rejection limit at once; on a rejection the scalar loop draws
        them from the untouched state, so the draws are always its draws.
        """
        gens = self.images0
        k = len(gens)
        length = 1 + rng.randbelow(max_word_len)
        words = raw_block(rng.seed, rng.index, length)
        if (words > np.uint64(rng_module.rejection_limit(k) - 1)).any():
            letters = [rng.randbelow(k) for _ in range(length)]
        else:
            letters = (words % np.uint64(k)).tolist()
            rng.index += length
        cur = gens[letters[0]]
        for i in letters[1:]:
            cur = gens[i].take(cur)
        return cur

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
            guard.  Certifies containment from transitivity plus a group
            element whose cycle type powers to a p-cycle, p prime <= d-3
            (Jordan).  A found p > d/2 additionally certifies primitivity for
            free: a nontrivial block system would need blocks of size
            >= p > d/2.  Smaller p fall back to the explicit primitivity
            check when the degree permits.  Returns None when the word budget
            is exhausted without a certificate.
        """
        d = self.degree
        if strategy not in ("exact", "jordan"):
            raise UsageError(f"unknown strategy {strategy!r}")
        if not len(self.images0):
            return d <= 2  # Alt(d) is trivial only for d <= 2
        if strategy == "exact" or d < 5:
            return self.order() >= math.factorial(d) // 2
        if not self.is_transitive():
            return False
        if rng is None:
            rng = RngState(_JORDAN_SEED)
        small_p = False
        for _ in range(words):
            p = self._prime_cycle(self._word_element(rng, max_word_len))
            if p is None:
                continue
            if 2 * p > d:
                return True
            small_p = True
        if small_p and d <= DEFAULT_PRIMITIVITY_GUARD and self.is_primitive():
            return True
        return None

    # -- aggregation ----------------------------------------------------------------

    def classify(
        self,
        strategy: str = "auto",
        *,
        rng: Optional[RngState] = None,
        order_guard: int = DEFAULT_ORDER_GUARD,
        exact_max_degree: int = 128,
        words: int = DEFAULT_JORDAN_WORDS,
        max_word_len: int = DEFAULT_JORDAN_WORD_LEN,
    ) -> GroupClassification:
        """Compute the feasible predicates and package them up.

        ``auto`` selects exact analysis up to ``exact_max_degree`` and the
        jordan route beyond it.
        """
        if strategy not in ("auto", "exact", "jordan"):
            raise UsageError(f"unknown strategy {strategy!r}")
        d = self.degree
        if strategy == "auto":
            strategy = "exact" if d <= exact_max_degree else "jordan"
        transitive = self.is_transitive()
        if strategy == "exact":
            order = self.order(guard=order_guard)
            return GroupClassification(
                degree=d,
                method="exact",
                order=order,
                is_transitive=transitive,
                is_two_transitive=self.is_two_transitive() if d >= 2 else None,
                is_primitive=self.is_primitive(),
                contains_alternating=order >= math.factorial(d) // 2,
                equals_symmetric=order == math.factorial(d),
            )
        contains_alt = self.contains_alternating(
            "jordan", rng=rng, words=words, max_word_len=max_word_len
        )
        if not self._has_odd_generator():
            equals_sym = False
        elif contains_alt is True:
            equals_sym = True  # an odd generator rules out G <= Alt(d)
        else:
            equals_sym = None
        two_transitive = True if (contains_alt is True and d >= 4) else None
        primitive = True if (contains_alt is True and d >= 3) else None
        return GroupClassification(
            degree=d,
            method="jordan",
            order=None,
            is_transitive=transitive,
            is_two_transitive=two_transitive,
            is_primitive=primitive,
            contains_alternating=contains_alt,
            equals_symmetric=equals_sym,
        )


# -- module-level operation wrappers -------------------------------------------------


def group_order(group: PermutationGroup, guard: int = DEFAULT_ORDER_GUARD) -> int:
    return group.order(guard=guard)


def is_transitive(group: PermutationGroup) -> bool:
    return group.is_transitive()


def is_two_transitive(group: PermutationGroup) -> bool:
    return group.is_two_transitive()


def is_primitive(group: PermutationGroup, guard: int = DEFAULT_PRIMITIVITY_GUARD) -> bool:
    return group.is_primitive(guard=guard)


def contains_alternating(
    group: PermutationGroup, strategy: str = "exact", **kwargs
) -> Optional[bool]:
    return group.contains_alternating(strategy, **kwargs)


def classify(group: PermutationGroup, strategy: str = "auto", **kwargs) -> GroupClassification:
    return group.classify(strategy, **kwargs)


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
