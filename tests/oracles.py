"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values from first principles, without
touching the implementation paths under test: permutation filtering instead
of backtracking enumeration, multiplication closures instead of stabilizer
chains, partition scans instead of union-find block refinement, one
refinement per point instead of one per stabilizer suborbit, per-vertex
and per-point breadth-first searches over the pairings instead of the
bit-parallel white balls and the orbit labels of the match graph,
coincidence scans of image arrays instead of local-action groups or the
match graph, one scalar tuple at a time instead of batched image-array
statistics, listed structure sets and a relabeling-orbit search instead of
the census DP and Burnside's lemma, one ``FpfInvolution`` per row instead of
the vectorized tuple check, listed tuples instead of the batched
enumeration, one ``randbelow`` call per sampler step instead of the
block-drawn tuple, a Python cycle walk, a point-by-point orbit search
and one ``randbelow`` call per letter instead of the array group layer's
pointer doubling, label hooking and block-drawn Jordan words, one word
loop per group instead of words shared on a block-diagonal stack, an
``np.unique`` over every covered cell instead of the low-corner square
view, the square-and-merge completion instead of the s0 fill table, and
the s0 blueprint and its placement one square at a time, from the outer
involutions' cycles, instead of family arrays and one scatter.

Some reference paths live only here: the scalar fixed-point-free sampler
(one ``randbelow`` call per step, the semantics every library sampler
keeps), orbit pairings, restriction to an invariant domain, the
backtracking listing of every structure set, and the edge lists of a match
graph.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from bmwgroups.errors import (
    ArityError,
    DegreeError,
    DoublyCoveredPairError,
    IndexOutOfRangeError,
    TripleMatchingError,
)
from bmwgroups.perm import FpfInvolution, Permutation, enumerate_fpf
from bmwgroups.permgroup import (
    DEFAULT_ORDER_GUARD,
    DEFAULT_PRIMITIVITY_GUARD,
    PermutationGroup,
    _classify_groups,
    _mark_transitive,
)
from bmwgroups.radu import _DELTA_SQUARES, TaggedSquare, free_block
from bmwgroups.randmodel import (
    CertificateReport,
    InvolutionTuple,
    MidpointResult,
    OverlapWitness,
    TripleWitness,
    match_graph,
    sample_tuple,
    white_ball_vertex,
)
from bmwgroups.structure import (
    DEFAULT_CENSUS_GUARD,
    PartialStructureSet,
    Square,
    StructureSet,
    _census_degrees,
    _frozen,
    validate,
)


def random_fpf_images(n, rng):
    """A uniform fixed-point-free involution of even degree n, as 1-based images.

    Step s pairs the anchor slot 2s with a uniform slot among the remaining
    ones, one ``randbelow(n - 1 - 2s)`` call per step.
    """
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


def random_fpf(n, rng):
    """:func:`random_fpf_images` as a checked ``FpfInvolution``."""
    return FpfInvolution(random_fpf_images(n, rng))


def pairing(alpha):
    """The 2-point orbits of an involution as sorted pairs.

    For a fixed-point-free involution of degree ``n`` this is a perfect
    matching with exactly ``n/2`` pairs.
    """
    if not alpha.is_involution():
        raise DegreeError("pairing is defined for involutions")
    return frozenset((i + 1, v) for i, v in enumerate(alpha.images) if i + 1 < v)


def shares_common_orbit(alpha, beta):
    """Whether two involutions of equal degree have a common 2-point orbit."""
    if alpha.degree != beta.degree:
        raise DegreeError("degree mismatch")
    a, b = alpha.images, beta.images
    return any(v == b[i] and v != i + 1 for i, v in enumerate(a))


def restricted(perm, domain):
    """Re-index the action of ``perm`` on an invariant sorted ``domain`` to 1..len(domain)."""
    pos = {p: i + 1 for i, p in enumerate(domain)}
    if any(perm(p) not in pos for p in domain):
        raise DegreeError("domain is not invariant")
    return Permutation([pos[perm(p)] for p in domain])


def iter_structure_sets(m, n, guard=DEFAULT_CENSUS_GUARD):
    """Every ``(m, n)``-structure set, once each, by backtracking.

    Cells run in row-major order: the first free cell picks the square
    covering it, which is fixed by the choice of its opposite corner.
    ``partner`` holds the 0-based flat partner cell of each covered cell, -1
    on free ones.
    """
    m, n = _census_degrees(m, n, guard)
    size = m * n
    partner = [-1] * size

    def rec(c):
        while c < size and partner[c] >= 0:
            c += 1
        if c == size:
            flat = np.array(partner)
            yield _frozen(StructureSet, np.stack(divmod(flat, n), axis=-1).reshape(m, n, 2) + 1)
            return
        i, k = divmod(c, n)
        for j in range(m):
            for l in range(n):
                il, jk, jl = i * n + l, j * n + k, j * n + l
                if partner[il] >= 0 or partner[jk] >= 0 or partner[jl] >= 0:
                    continue
                partner[c], partner[jl] = jl, c
                partner[il], partner[jk] = jk, il
                yield from rec(c + 1)
                partner[c] = partner[il] = partner[jk] = partner[jl] = -1

    return rec(0)


def white_edges(graph):
    """The edges ``(k, l)``, ``k < l``, of a match graph not among its black edges, in order."""
    edges = {(k, l) for row in graph.images.tolist() for k, l in enumerate(row, 1) if k < l}
    return tuple(sorted(edges - set(graph.black_edges())))


def fpf_involutions_by_filter(n):
    """All fixed-point-free involutions of degree n by filtering Sym(n)."""
    out = []
    for img in itertools.permutations(range(1, n + 1)):
        if all(img[v - 1] == i + 1 and v != i + 1 for i, v in enumerate(img)):
            out.append(img)
    return out


def involution_count_by_filter(n):
    """Number of self-inverse permutations of n points, by filtering."""
    count = 0
    for img in itertools.permutations(range(1, n + 1)):
        if all(img[v - 1] == i + 1 for i, v in enumerate(img)):
            count += 1
    return count


def closure(gens_images):
    """Multiplication closure of 0-based image tuples (BFS)."""
    degree = len(next(iter(gens_images)))
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in gens_images]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(g[v] for v in cur)
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    return elements


def closure_order(perms):
    """Order of the group generated by 1-based Permutation objects."""
    if not perms:
        return 1
    return len(closure([tuple(v - 1 for v in p.images) for p in perms]))


def contains_alternating_by_closure(perms, degree):
    """Whether the closure of the generators holds every even permutation."""
    elements = closure([tuple(v - 1 for v in p.images) for p in perms]) if perms else {tuple(range(degree))}
    for img in itertools.permutations(range(degree)):
        inversions = sum(img[i] > img[j] for i, j in itertools.combinations(range(degree), 2))
        if inversions % 2 == 0 and img not in elements:
            return False
    return True


def is_two_transitive_by_closure(perms, degree):
    elements = closure([tuple(v - 1 for v in p.images) for p in perms]) if perms else {tuple(range(degree))}
    pairs = {(g[0], g[1]) for g in elements}
    return len(pairs) == degree * (degree - 1)


def prime_cycle_by_walk(img0):
    """The prime p whose p-cycle a power of ``img0`` isolates, or None.

    Walks the cycles of the 0-based image list in Python, takes the largest
    prime length p <= d-3 that divides no other cycle length, raises the
    permutation to the lcm of the other lengths and checks that exactly p
    points still move.
    """
    d = len(img0)
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
        if p < 2 or p > d - 3 or any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
            continue
        if any(j != i and lengths[j] % p == 0 for j in range(len(lengths))):
            continue
        if best is None or p > best[1]:
            best = (i, p)
    if best is None:
        return None
    i, p = best
    other_lcm = math.lcm(*(length for j, length in enumerate(lengths) if j != i))
    power = [0] * d
    for cyc in cycles:
        r = other_lcm % len(cyc)
        for pos, x in enumerate(cyc):
            power[x] = cyc[(pos + r) % len(cyc)]
    assert sum(power[x] != x for x in range(d)) == p
    return p


def orbit_by_search(gens0, start=0):
    """The orbit of ``start`` under 0-based image lists, by a graph search."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for g in gens0:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    return seen


def word_by_scalar_loop(gens0, rng, max_word_len):
    """A Jordan word drawn one ``randbelow`` call per letter, as 0-based images.

    The length is ``1 + randbelow(max_word_len)``; each letter is
    ``randbelow(k)`` and the word is the product from the first letter on.
    """
    length = 1 + rng.randbelow(max_word_len)
    letters = [rng.randbelow(len(gens0)) for _ in range(length)]
    cur = list(gens0[letters[0]])
    for i in letters[1:]:
        cur = [gens0[i][x] for x in cur]
    return cur


def contains_alternating_by_word_loop(group, rng, words, max_word_len):
    """``contains_alternating("jordan")`` by one scalar word loop for one group.

    Degree below 5 is decided by closure, and transitivity by an orbit
    search.  Each word is drawn by :func:`word_by_scalar_loop` and its
    p-cycle found by :func:`prime_cycle_by_walk`; p > d/2 certifies at once,
    and a smaller p defers to ``group.is_primitive()`` once the words are
    spent.  ``rng`` is left after the first certifying word, or the last.
    """
    d = group.degree
    rows = group.images0.tolist()
    if not rows:
        return d <= 2
    if d < 5:
        return contains_alternating_by_closure(group.generators, d)
    if len(orbit_by_search(rows)) < d:
        return False
    small_p = False
    for _ in range(words):
        p = prime_cycle_by_walk(word_by_scalar_loop(rows, rng, max_word_len))
        if p is None:
            continue
        if 2 * p > d:
            return True
        small_p = True
    if small_p and d <= DEFAULT_PRIMITIVITY_GUARD and group.is_primitive():
        return True
    return None


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def is_primitive_by_partition_scan(perms, degree):
    """Primitivity by scanning every partition of the point set (tiny d)."""
    elements = closure([tuple(v - 1 for v in p.images) for p in perms]) if perms else {tuple(range(degree))}
    orbit = {0}
    changed = True
    while changed:
        changed = False
        for g in elements:
            for x in list(orbit):
                if g[x] not in orbit:
                    orbit.add(g[x])
                    changed = True
    if len(orbit) != degree:
        return False
    for part in _set_partitions(list(range(degree))):
        if len(part) in (1, degree):
            continue
        blocks = [frozenset(b) for b in part]
        block_set = set(blocks)
        if all(
            frozenset(g[x] for x in b) in block_set for g in elements for b in blocks
        ):
            return False
    return True


def is_primitive_by_all_blocks(group):
    """Primitivity by one finest-block refinement for every point w = 2..d.

    The block of 1 in the finest system joining {1, w} must be the whole
    point set for every w; O(d^2 * generators).
    """
    if not group.is_transitive():
        return False
    if group.degree <= 2:
        return True
    return all(
        len(group.minimal_block_with(w)) == group.degree for w in range(2, group.degree + 1)
    )


def white_ball_exists_by_bfs(n, edges, radius):
    """Per-vertex BFS oracle for the all-white closed-ball condition.

    ``edges`` maps (lo, hi) -> is_black.  Returns the smallest admissible
    vertex or None.
    """
    adj = {v: [] for v in range(1, n + 1)}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    for b in range(1, n + 1):
        dist = {b: 0}
        frontier = [b]
        d = 0
        while frontier and d < radius:
            d += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        ok = True
        for (u, v), black in edges.items():
            if black and u in dist and v in dist:
                ok = False
                break
        if ok:
            return b
    return None


def structure_set_tables_by_filter(m, n):
    """All (m, n) partner tables by filtering every cell map (tiny m*n).

    A partner table is a map cells -> cells that is an involution and obeys
    the square-swap law; this is exactly the structure-set axiom set.
    """
    cells = [(i, k) for i in range(1, m + 1) for k in range(1, n + 1)]
    out = []
    for values in itertools.product(cells, repeat=len(cells)):
        table = dict(zip(cells, values))
        ok = True
        for (i, k), (j, l) in table.items():
            if table[(j, l)] != (i, k) or table[(i, l)] != (j, k):
                ok = False
                break
        if ok:
            out.append(table)
    return out


def partner_table_fault(m, n, table, partial=False):
    """The (error type, message) a partner table must be refused with, or None.

    ``table`` maps cells to partners.  Cells are scanned in row-major order,
    one dictionary lookup per law: the first cell whose partner is out of
    range, is not paired back, or breaks the square-swap law decides, in that
    order.  ``partial`` selects the partial-table messages; free cells are
    absent from ``table``.
    """
    what = "partial" if partial else "partner"
    for (i, k) in sorted(table):
        j, l = table[(i, k)]
        if not (1 <= j <= m and 1 <= l <= n):
            if not partial:
                return IndexOutOfRangeError, f"partner of ({i},{k}) out of range"
            side = "b" if 1 <= j <= m else "a"
            return IndexOutOfRangeError, f"{side}-index out of range at ({i},{k})"
        if table.get((j, l)) != (i, k):
            return DegreeError, f"{what} table is not an involution"
        if table.get((i, l)) != (j, k):
            return DegreeError, f"{what} table violates the square-swap law"
    return None


def squares_by_unique(s):
    """The canonical squares of a (partial) structure set, sorted.

    Every covered cell gives the square through it and its partner, and
    ``np.unique`` removes the repeats of the squares with two or four cells.
    """
    table = s._partners
    covered = table[..., 0] > 0
    rows, cols = np.meshgrid(np.arange(1, s.m + 1), np.arange(1, s.n + 1), indexing="ij")
    here, there = np.stack([rows, cols], axis=-1)[covered], table[covered]
    corners = np.concatenate([np.minimum(here, there), np.maximum(here, there)], axis=1)
    return tuple(Square(*sq) for sq in np.unique(corners, axis=0).tolist())


def outer_involution_by_cycles(side, index, d):
    """An outer involution of ``side`` "a" or "b" at degree ``d``, from its cycles.

    The head transpositions are listed; the tail pairs consecutive labels
    from its first label upward while both fit, leaving a last odd label fixed.
    """
    heads, tail = {
        ("a", 1): ([(6, 9), (7, 10)], 11),
        ("a", 2): ([(6, 8), (7, 9)], 10),
        ("a", 3): ([(5, 8)], d),
        ("b", 1): ([(7, 10), (8, 11)], 12),
        ("b", 2): ([(7, 9), (8, 10)], 11),
        ("b", 3): ([(6, 9)], d),
    }[side, index]
    cycles = list(heads)
    x = tail
    while x + 1 <= d:
        cycles.append((x, x + 1))
        x += 2
    return Permutation.from_cycles(d, cycles)


def blueprint_by_loop(m, n):
    """The s0 blueprint's tagged squares, one square at a time.

    Each family walks its index range and appends canonical squares; the
    "once" families skip a square any of them already listed.
    """
    alpha = {i: outer_involution_by_cycles("b", i, n) for i in (1, 2, 3)}
    beta = {i: outer_involution_by_cycles("a", i, m) for i in (1, 2, 3)}
    tagged = []

    def add(fam, i, k, j, l):
        tagged.append(TaggedSquare(Square.canonical(i, k, j, l), fam))

    for i, k, j, l in _DELTA_SQUARES:
        add("seed", i, k, j, l)
    seen = set()

    def add_once(fam, i, k, j, l):
        sq = Square.canonical(i, k, j, l)
        if sq not in seen:
            seen.add(sq)
            tagged.append(TaggedSquare(sq, fam))

    for i in (1, 2, 3):
        for k in range(6, n + 1):
            add_once("top_rows", i, k, i, alpha[i](k))
    for k in (1, 2, 3):
        for i in range(5, m + 1):
            add_once("left_cols", i, k, beta[k](i), k)
    for k in (6, 7, 8):
        add("row4_diagonal", 4, k, 4, k)
    for i in (5, 6, 7):
        for k in (4, 5):
            add("mid_diagonal", i, k, i, k)
    for i in (5, 6, 7):
        for k in (6, 7, 8):
            add_once("mixed_block", i, k, beta[k - 5](i), alpha[i - 4](k))
    for i in (5, 6, 7):
        for k in range(9, n + 1):
            if alpha[i - 4](k) > 8:
                add_once("mid_rows", i, k, i, alpha[i - 4](k))
    for k in (6, 7, 8):
        for i in range(8, m + 1):
            if beta[k - 5](i) > 7:
                add_once("mid_cols", i, k, beta[k - 5](i), k)
    add("markers", 4, n, m, n - 1)
    add("markers", m - 2, 4, m - 1, n - 2)
    for i in range(8, m):
        add("last_col_diagonal", i, n, i, n)
        add("last_col_diagonal", i, n - 1, i, n - 1)
    for k in range(9, n - 2):
        add("late_row_diagonal", m - 1, k, m - 1, k)
        add("late_row_diagonal", m - 2, k, m - 2, k)
    return tuple(tagged)


def families_by_loop(tagged):
    """Each family's squares, sorted, in the order the families first appear."""
    out = {}
    for sq, fam in tagged:
        out.setdefault(fam, []).append(sq)
    return {fam: sorted(sqs) for fam, sqs in out.items()}


def place_by_loop(m, n, squares, partial):
    """The partner table (0 on free cells) covered by ``squares``, one square at a time.

    Each square is range-checked, canonicalized and written corner by corner;
    a square meeting a covered cell raises at its first covered corner, in
    the order (i,k), (i,l), (j,k), (j,l), unless the table is ``partial`` and
    the same square is already there.
    """
    if m < 1 or n < 1:
        raise DegreeError("m and n must be positive")
    a_part, b_part = [0] * (m * n), [0] * (m * n)  # row-major partner halves
    for raw in squares:
        i, k, j, l = (int(v) for v in raw)
        a_ok, b_ok = 1 <= i <= m and 1 <= j <= m, 1 <= k <= n and 1 <= l <= n
        if partial and not (a_ok and b_ok):
            raise IndexOutOfRangeError(f"square {tuple(raw)} out of range")
        if not a_ok:
            raise IndexOutOfRangeError(f"a-index of {tuple(raw)} outside 1..{m}")
        if not b_ok:
            raise IndexOutOfRangeError(f"b-index of {tuple(raw)} outside 1..{n}")
        i, k, j, l = min(i, j), min(k, l), max(i, j), max(k, l)
        corners = ((i, k, j, l), (i, l, j, k), (j, k, i, l), (j, l, i, k))
        cells = [(x - 1) * n + y - 1 for x, y, _, _ in corners]
        covered = [c for c in cells if a_part[c]]
        if covered:
            held = [(a_part[c], b_part[c]) for c in cells]
            if partial and held == [(x, y) for _, _, x, y in corners]:
                continue
            row, col = divmod(covered[0], n)
            raise DoublyCoveredPairError((row + 1, col + 1))
        for c, (_, _, x, y) in zip(cells, corners):
            a_part[c], b_part[c] = x, y
    return np.stack([a_part, b_part], axis=-1).reshape(m, n, 2)


def extension_by_merge(m, n, filler=None):
    """The s0 extension by squares: the looped blueprint's squares placed one at
    a time, merged with one square per filler pair, then completed with
    diagonal squares."""
    squares = [sq for sq, _ in blueprint_by_loop(m, n)]
    base = _frozen(PartialStructureSet, place_by_loop(m, n, squares, partial=True))
    if filler:
        rows, cols = free_block(m, n)
        squares = [
            Square(row, k, row, sigma(k))
            for row, sigma in zip(rows, filler)
            for k in cols
            if k <= sigma(k)
        ]
        base = base.merge(_frozen(PartialStructureSet, place_by_loop(m, n, squares, partial=True)))
    return base.complete_with_diagonal()


def census_count_by_enumeration(m, n, guard=DEFAULT_CENSUS_GUARD):
    """Number of (m, n)-structure sets, by listing every one of them."""
    return sum(1 for _ in iter_structure_sets(m, n, guard=guard))


def census_classes_by_orbit_bfs(m, n, guard=DEFAULT_CENSUS_GUARD):
    """Number of relabeling classes of (m, n)-structure sets.

    Enumerates the census and partitions it into orbits under adjacent-label
    transpositions on both sides, which generate the full relabeling group.
    Each set is its flat row-major table of 0-based partner cells.  A
    relabeling g moves cell c to g(c) and maps the table f to g f g^-1; the
    generators are involutions, so the image of f at c is g(f(g(c))).
    """
    size = m * n
    sets = {
        tuple((j - 1) * n + (l - 1) for j, l in s.encoding())
        for s in iter_structure_sets(m, n, guard=guard)
    }
    gens = []
    for a in range(m - 1):
        swap = {a: a + 1, a + 1: a}
        gens.append([swap.get(c // n, c // n) * n + c % n for c in range(size)])
    for b in range(n - 1):
        swap = {b: b + 1, b + 1: b}
        gens.append([c - c % n + swap.get(c % n, c % n) for c in range(size)])
    unseen = set(sets)
    classes = 0
    while unseen:
        classes += 1
        stack = [unseen.pop()]
        while stack:
            f = stack.pop()
            for g in gens:
                img = tuple(g[f[g[c]]] for c in range(size))
                if img in unseen:
                    unseen.remove(img)
                    stack.append(img)
    return classes


def shared_orbit_graph_connected(images):
    """Whether the coordinates of a tuple are linked by shared 2-cycles.

    ``images`` holds one image array per coordinate.  Coordinates i and j
    are adjacent when their involutions share a 2-cycle, i.e. map some point
    to the same image; the result is the connectivity of that graph, by
    union-find.
    """
    parent = list(range(len(images)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(len(images)), 2):
        if any(u == v for u, v in zip(images[i], images[j])):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(images))}) == 1


def connected_graph_probability(m, q):
    """Exact probability that the random graph G(m, q) is connected.

    Conditioning on the size j of the component of vertex 1 gives
    C(k) = 1 - sum_{j<k} C(k-1, j-1) C(j) (1-q)^(j(k-j)).  With q = a/b the
    recursion runs on the integers C(k) * b^C(k,2), so a fraction is
    normalized only once.
    """
    if m < 1:
        raise ValueError("m must be positive")
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    scaled = [0, 1]
    for k in range(2, m + 1):
        scaled.append(
            b ** math.comb(k, 2)
            - sum(
                math.comb(k - 1, j - 1)
                * scaled[j]
                * (b - a) ** (j * (k - j))
                * b ** math.comb(k - j, 2)
                for j in range(1, k)
            )
        )
    return Fraction(scaled[m], b ** math.comb(m, 2))


def enumerate_tuples(m, n):
    """All of (F_n)^m, in lexicographic order; desk-scale only."""
    pool = list(enumerate_fpf(n))
    for combo in itertools.product(pool, repeat=m):
        yield InvolutionTuple([e.images for e in combo])


def sample_tuple_by_scalar_loop(m, n, rng):
    """The image rows ``sample_tuple(m, n, rng)`` must return, drawn step by step.

    Each coordinate makes its ``n/2`` ``randbelow`` calls in turn, so ``rng``
    ends where ``sample_tuple`` must leave it, on every branch.
    """
    return [random_fpf_images(n, rng) for _ in range(m)]


def pairings(t):
    """The 2-point orbits of each coordinate of ``t`` as sorted pairs.

    The rows are read once, as plain lists; the tuple checked them already.
    """
    return tuple(
        frozenset((i + 1, v) for i, v in enumerate(row) if i + 1 < v) for row in t.images.tolist()
    )


def edge_colours_by_pairings(t):
    """Each match-graph edge ``(lo, hi)`` -> whether it is black, in edge order.

    An edge is a pair in some coordinate's pairing; it is black when two or
    more pairings contain it.
    """
    counts = {}
    for pairs in pairings(t):
        for edge in pairs:
            counts[edge] = counts.get(edge, 0) + 1
    return {edge: count >= 2 for edge, count in sorted(counts.items())}


def match_graph_connected_by_bfs(t):
    """Whether the match graph is connected, by a point BFS over the pairings."""
    adj = {v: [] for v in range(1, t.n + 1)}
    for pairs in pairings(t):
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == t.n


def involution_rows_fault(images):
    """The (error type, message) an image table must be refused with, or None.

    Each row is built as a ``FpfInvolution`` in order, so the first faulty
    row's own check decides; rows of unequal degree are refused after that.
    """
    try:
        degrees = {FpfInvolution(row).degree for row in images}
    except DegreeError as exc:
        return DegreeError, str(exc)
    if not degrees:
        return ArityError, "at least one involution required"
    if len(degrees) > 1:
        return DegreeError, "entry degree mismatch"
    return None


def triple_matchings_by_scan(t):
    """First (point, coordinate triple) with three coordinates agreeing.

    Scans the points in order and groups the coordinates by their image
    there; the witness is lexicographically first in ``(k, i, j, p)``.
    """
    if t.m < 3:
        return None
    images = t.images.tolist()
    for k in range(1, t.n + 1):
        hits = {}
        for idx, img in enumerate(images, 1):
            hits.setdefault(img[k - 1], []).append(idx)
        best = None
        for coords in hits.values():
            if len(coords) >= 3:
                triple = tuple(coords[:3])
                if best is None or triple < best:
                    best = triple
        if best is not None:
            return TripleWitness(k, best)
    return None


def overlapping_matches_by_scan(t):
    """First point where two distinct coordinate pairs agree, by a point scan."""
    if t.m < 2:
        return None
    images = t.images.tolist()
    for k in range(1, t.n + 1):
        hits = {}
        for idx, img in enumerate(images, 1):
            hits.setdefault(img[k - 1], []).append(idx)
        point_pairs = []
        for coords in hits.values():
            if len(coords) >= 2:
                point_pairs.extend(
                    (coords[i], coords[j])
                    for i in range(len(coords))
                    for j in range(i + 1, len(coords))
                )
        if len(point_pairs) >= 2:
            point_pairs.sort()
            return OverlapWitness(k, point_pairs[0], point_pairs[1])
    return None


def midpoint_by_pairings(t):
    """The midpoint property from intersections of the orbit pairings."""
    if t.m < 3:
        raise ArityError("midpoint property needs at least 3 coordinates")
    ps = pairings(t)
    shared = [
        [bool(ps[i] & ps[j]) if i != j else True for j in range(t.m)]
        for i in range(t.m)
    ]
    for i in range(t.m):
        for i2 in range(i + 1, t.m):
            if not any(
                shared[i][j] and shared[j][i2]
                for j in range(t.m)
                if j != i and j != i2
            ):
                return MidpointResult(False, (i + 1, i2 + 1))
    return MidpointResult(True, None)


def match_statistic_by_pairings(t):
    """Shared orbits over all coordinate pairs, from pairing intersections."""
    ps = pairings(t)
    return sum(len(ps[i] & ps[j]) for i in range(t.m) for j in range(i + 1, t.m))


def structure_set_by_squares(t):
    """The derived structure set, built as a square list and validated.

    For each ``k < l`` the coordinates mapping k to l span one square.
    """
    witness = triple_matchings_by_scan(t)
    if witness is not None:
        raise TripleMatchingError(witness)
    squares = []
    images = t.images.tolist()
    for k in range(1, t.n + 1):
        groups = {}
        for idx in range(1, t.m + 1):
            l = images[idx - 1][k - 1]
            if l > k:
                groups.setdefault(l, []).append(idx)
        for l, coords in groups.items():
            if len(coords) == 1:
                squares.append(Square(coords[0], k, coords[0], l))
            else:
                squares.append(Square(coords[0], k, coords[1], l))
    return validate(t.m, t.n, squares)


def scalar_mc_values(kind, m, n, trials, rng):
    """Per-trial values of a batched Monte-Carlo kind, one tuple at a time.

    Trial ``t`` is ``sample_tuple(m, n, rng.derive(t))``; its value comes from
    the point-by-point oracles above instead of image-array statistics.
    ``orbit_share`` reads the first two coordinates.
    """
    values = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        tup = sample_tuple(m, n, rng.derive(t))
        if kind == "orbit_share":
            values[t] = bool(pairings(tup)[0] & pairings(tup)[1])
        elif kind == "expected_M":
            values[t] = match_statistic_by_pairings(tup)
        elif kind == "triple_matching_rate":
            values[t] = triple_matchings_by_scan(tup) is not None
        elif kind == "overlap_rate":
            values[t] = overlapping_matches_by_scan(tup) is not None
        else:
            raise ValueError(f"kind {kind!r} has no scalar oracle")
    return values


def certificates_by_tuple(
    tuples,
    radius,
    *,
    rng=None,
    exact_max_degree=128,
    jordan_words=200,
    jordan_word_len=100,
    order_guard=DEFAULT_ORDER_GUARD,
):
    """``irr_certificate`` of each tuple, its front read one tuple at a time.

    Each tuple takes its witnesses from the point scans, its midpoint,
    statistic and black edges from its orbit pairings, its white ball from
    its match graph, and classifies its A side from the a-part columns of
    the structure set built from its squares.  The B sides are classified
    together, as in the batch front.
    """
    fronts, b_groups = [], []
    for t in tuples:
        triple = triple_matchings_by_scan(t)
        overlap = overlapping_matches_by_scan(t)
        mid = midpoint_by_pairings(t) if t.m >= 3 else None
        a_cls = None
        if triple is None:
            # the A-side local involutions: the structure set's a-part columns
            a_parts = structure_set_by_squares(t)._partners[..., 0]
            a_group = PermutationGroup._from_images0(t.m, a_parts.T - 1)
            a_cls = a_group.classify(
                "auto", order_guard=order_guard, exact_max_degree=exact_max_degree
            )
        fronts.append(
            dict(
                m=t.m,
                n=t.n,
                radius=radius,
                no_triple_matchings=triple is None,
                triple_witness=triple,
                no_overlapping_matches=overlap is None,
                overlap_witness=overlap,
                midpoint=None if mid is None else mid.holds,
                midpoint_witness=None if mid is None else mid.failing,
                white_ball_vertex=white_ball_vertex(match_graph(t), radius),
                has_black_edge=any(edge_colours_by_pairings(t).values()),
                match_statistic=match_statistic_by_pairings(t),
                a_local=a_cls,
            )
        )
        # The group of the tuple's rows is transitive exactly when the match
        # graph is connected; without triple matchings it is the B-side local
        # action.
        b_groups.append(PermutationGroup._from_images0(t.n, t.images - 1))
    _mark_transitive(b_groups)
    b_cls = iter(
        _classify_groups(
            [g for g, front in zip(b_groups, fronts) if front["no_triple_matchings"]],
            "auto",
            rng=rng,
            order_guard=order_guard,
            exact_max_degree=exact_max_degree,
            words=jordan_words,
            max_word_len=jordan_word_len,
        )
    )
    return [
        CertificateReport(
            **front,
            connected=g.is_transitive(),
            b_local=next(b_cls) if front["no_triple_matchings"] else None,
        )
        for front, g in zip(fronts, b_groups)
    ]
