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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegreeError, RangeError, ResourceError, UsageError
from .perm import Permutation
from .rng import RngState

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


class PermutationGroup:
    """A subgroup of Sym(degree) given by a list of generators."""

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        self.degree = int(degree)
        if self.degree < 1:
            raise DegreeError("degree must be positive")
        gens = tuple(generators)
        for g in gens:
            if g.degree != self.degree:
                raise DegreeError("generator degree mismatch")
        self.generators = gens
        # first-seen order: the Jordan route's random words index _gens
        uniq = [g for g in {g.images: g for g in gens}.values() if not g.is_identity()]
        self._gens = tuple(uniq)
        self._gens0 = tuple(tuple(v - 1 for v in g.images) for g in uniq)
        self._gen_arrays: Optional[list[np.ndarray]] = None
        self._order: Optional[int] = None
        self._transitive: Optional[bool] = None
        self._two_transitive: Optional[bool] = None
        self._primitive: Optional[bool] = None

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, generators={len(self._gens)})"

    # -- internals -------------------------------------------------------------

    def _arrays0(self) -> list[np.ndarray]:
        if self._gen_arrays is None:
            self._gen_arrays = [np.array(g, dtype=np.int64) for g in self._gens0]
        return self._gen_arrays

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
            if not self._gens:
                self._order = 1
            else:
                self._order = self._order_by_theorem()
            if self._order is None:
                from .schreier import chain_order

                self._order = chain_order(self.degree, self._gens0)
        return self._order

    def _order_by_theorem(self) -> Optional[int]:
        """The exact order when a classical theorem settles it, else ``None``.

        * Every generator a transposition: the group is the direct product of
          Sym(C) over the components C of the graph whose edges are the
          transpositions, so the order is the product of the ``|C|!``.
        * Jordan (Wielandt, *Finite Permutation Groups*, Thm 13.9;
          Dixon-Mortimer, *Permutation Groups*, Thm 3.3E): a primitive group
          containing a p-cycle, p prime and p <= d-3, contains Alt(d).  The
          p-cycle is a power of a generator or of a product of two generators
          (:meth:`_prime_cycle_certificate`).  A transitive group with such a
          p-cycle and 2p > d is primitive, since a block system would need
          blocks of size >= p > d/2; otherwise :meth:`is_primitive` decides.
          An odd generator then gives d!, all even ones d!/2.

        ``None`` (intransitive, imprimitive, no certificate, or d < 5) leaves
        the order to the stabilizer chain.
        """
        d = self.degree
        gens0 = self._gens0
        moved = [[x for x, y in enumerate(g) if x != y] for g in gens0]
        if all(len(points) == 2 for points in moved):
            parent = list(range(d))
            for a, b in moved:
                parent[_find(parent, a)] = _find(parent, b)
            sizes = Counter(_find(parent, x) for x in range(d))
            return math.prod(math.factorial(size) for size in sizes.values())
        if d < 5 or not self.is_transitive():
            return None
        products = ([g[x] for x in h] for h, g in itertools.combinations(gens0, 2))
        for img0 in itertools.chain(gens0, products):
            cert = self._prime_cycle_certificate(img0)
            if cert is not None:
                break
        else:
            return None
        if 2 * cert[0] <= d and not (
            d <= DEFAULT_PRIMITIVITY_GUARD and self.is_primitive()
        ):
            return None
        # Alt(d) <= G at d >= 5, so G is also primitive and 2-transitive
        self._primitive = self._two_transitive = True
        odd = any(g.parity() for g in self._gens)
        return math.factorial(d) if odd else math.factorial(d) // 2

    # -- orbit predicates --------------------------------------------------------

    def is_transitive(self) -> bool:
        if self._transitive is None:
            seen = {0}
            stack = [0]
            gens0 = self._gens0
            while stack:
                x = stack.pop()
                for g in gens0:
                    y = g[x]
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            self._transitive = len(seen) == self.degree
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
                gens0 = self._gens0
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
        gens0 = self._gens0
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

    def _word_element(self, rng: RngState, max_word_len: int) -> list[int]:
        gens = self._arrays0()
        length = 1 + rng.randbelow(max_word_len)
        cur = gens[rng.randbelow(len(gens))].copy()
        for _ in range(length - 1):
            cur = gens[rng.randbelow(len(gens))][cur]
        return cur.tolist()

    def _prime_cycle_certificate(self, img0: list[int]):
        """A (p, power-element) pair certifying a p-cycle in the group, or None.

        Scans the cycle type of ``img0`` for a prime-length cycle with
        p <= d-3 such that no other cycle length is divisible by p; raising
        to the lcm of the other lengths then isolates a p-cycle.
        """
        d = self.degree
        seen = [False] * d
        cycles = []
        for s in range(d):
            if not seen[s]:
                seen[s] = True
                cyc = [s]
                t = img0[s]
                while t != s:
                    seen[t] = True
                    cyc.append(t)
                    t = img0[t]
                cycles.append(cyc)
        lengths = [len(c) for c in cycles]
        best = None
        for i, p in enumerate(lengths):
            if p < 2 or p > d - 3 or not _is_prime(p):
                continue
            if any(j != i and lengths[j] % p == 0 for j in range(len(lengths))):
                continue
            if best is None or p > best[1]:
                best = (i, p)
        if best is None:
            return None
        i, p = best
        other_lcm = 1
        for j, length in enumerate(lengths):
            if j != i:
                other_lcm = math.lcm(other_lcm, length)
        power = [0] * d
        for j, cyc in enumerate(cycles):
            r = other_lcm % len(cyc)
            for pos, x in enumerate(cyc):
                power[x] = cyc[(pos + r) % len(cyc)]
        moved = [x for x in range(d) if power[x] != x]
        if len(moved) != p:  # other cycles did not die; certificate void
            return None
        return p, power

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
            element that powers to a p-cycle, p prime <= d-3 (Jordan).  A
            found p > d/2 additionally certifies primitivity for free: a
            nontrivial block system would need blocks of size >= p > d/2.
            Smaller p fall back to the explicit primitivity check when the
            degree permits.  Returns None when the word budget is exhausted
            without a certificate.
        """
        d = self.degree
        if strategy not in ("exact", "jordan"):
            raise UsageError(f"unknown strategy {strategy!r}")
        if not self._gens:
            return d <= 2  # Alt(d) is trivial only for d <= 2
        if strategy == "exact" or d < 5:
            return self.order() >= math.factorial(d) // 2
        if not self.is_transitive():
            return False
        if rng is None:
            rng = RngState(_JORDAN_SEED)
        small_p = False
        for _ in range(words):
            cert = self._prime_cycle_certificate(self._word_element(rng, max_word_len))
            if cert is None:
                continue
            p, _power = cert
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
        all_even = all(g.parity() == 0 for g in self._gens)
        if all_even:
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
