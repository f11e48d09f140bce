"""Structure sets: the combinatorial core.

An ``(m, n)``-structure set partitions the pairs ``(a_i, b_k)`` of two label
alphabets into squares ``{a_i, b_k, a_j, b_l}`` (possibly degenerate) so that
every pair lies in exactly one square; equivalently it partitions the edges
of the complete bipartite graph K_{m,n} into closed 4-paths.  Each structure
set presents a group acting simply transitively on the vertices of a product
of two regular trees, and relabeling orbits correspond to those groups up to
conjugacy.

A structure set is stored as its total grid involution ``f(i, k) = (j, l)``
pairing opposite corners of the square through ``(i, k)``: a read-only
``(m, n, 2)`` integer array holding the 1-based partner of each cell.
Uniqueness and exact cover are then structural, and the square list is a
derived view.  The opposite-corner pairing is forced by the square: the
partner of ``(a_i, b_k)`` inside ``{a_i, b_k, a_j, b_l}`` is (other a-label,
other b-label), including the degenerate cases with repeated labels.  A
partial structure set has the same array with ``(0, 0)`` on its free cells;
local involutions, relabeling and transposition are slices and indexing.  A
square list is placed as one ``(s, 4)`` array: the earliest square through
each cell is found at once, and one scatter writes the partner table.

The census counts structure sets without listing them.  The count is a
memoized dynamic program over the bitmask of covered cells: the lowest free
cell picks the square covering it, which is fixed by its opposite corner.  The
number of relabeling classes comes from Burnside's lemma: the same DP counts
the sets fixed by one relabeling of each pair of cycle types, placing whole
orbits of squares at a time, and the weighted mean of those counts over
Sym(m) x Sym(n) is the number of orbits.  The identity term of that sum is
the set count, so :func:`census_counts` runs its DP once for both numbers.

All objects are immutable after construction.  Census-style operations carry
hard guards and raise :class:`ResourceError` beyond them; they never truncate
silently.

File format: ``{"m": M, "n": N, "squares": [[i, k, j, l], ...]}`` with
1-based indices, each square canonically ordered (``i <= j``, ``k <= l``) and
the list sorted lexicographically; see :mod:`bmwgroups.formats`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConflictingPairError,
    DegreeError,
    DoublyCoveredPairError,
    IndexOutOfRangeError,
    ResourceError,
    UncoveredPairError,
)
from .perm import Permutation

DEFAULT_CENSUS_GUARD = 16
DEFAULT_CANONICAL_GUARD = 20
_CANONICAL_NODE_BUDGET = 500_000


class Square(NamedTuple):
    """A (possibly degenerate) square ``{a_lo, b_lo, a_hi, b_hi}``.

    Canonical ordering: ``a_lo <= a_hi`` and ``b_lo <= b_hi``.  Degenerate
    squares carry repeated indices; e.g. the diagonal square on ``(a_i,
    b_k)`` is ``Square(i, k, i, k)``.
    """

    a_lo: int
    b_lo: int
    a_hi: int
    b_hi: int

    @classmethod
    def canonical(cls, i: int, k: int, j: int, l: int) -> "Square":
        return cls(min(i, j), min(k, l), max(i, j), max(k, l))

    def cells(self) -> tuple[tuple[int, int], ...]:
        """The distinct pairs covered: 1, 2 or 4 cells."""
        i, k, j, l = self
        return tuple(sorted({(i, k), (i, l), (j, k), (j, l)}))

    def multiplicity(self) -> int:
        return len(self.cells())


class Relabeling(NamedTuple):
    """A simultaneous relabeling of the two sides."""

    mu: Permutation  # acts on a-labels, degree m
    nu: Permutation  # acts on b-labels, degree n


# -- partner arrays ------------------------------------------------------------------


def _degrees(m: int, n: int) -> tuple[int, int]:
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise DegreeError("m and n must be positive")
    return m, n


def _grid(m: int, n: int) -> np.ndarray:
    """The ``(m, n, 2)`` array holding each cell's own coordinates ``(i, k)``."""
    rows, cols = np.meshgrid(np.arange(1, m + 1), np.arange(1, n + 1), indexing="ij")
    return np.stack([rows, cols], axis=-1)


def _first_cell(mask: np.ndarray) -> tuple[int, int]:
    """The first set cell of an ``(m, n)`` mask in row-major order, 1-based."""
    i, k = divmod(int(mask.argmax()), mask.shape[1])
    return i + 1, k + 1


def _frozen(cls, table: np.ndarray):
    """An instance of ``cls`` holding ``table`` read-only, unchecked."""
    obj = object.__new__(cls)
    obj.m, obj.n = table.shape[:2]
    table.flags.writeable = False
    obj._partners = table
    return obj


def _check_laws(table: np.ndarray, defined: Optional[np.ndarray] = None) -> None:
    """Raise at the first faulty cell, in row-major order, of a partner table.

    A cell is faulty when its partner ``(j, l)`` is out of range, is not
    paired back with it, or breaks the square-swap law ``f(i, l) = (j, k)``;
    the first of these that fails is reported.  ``defined`` restricts the
    checks to the cells of a partial table (its free cells hold 0) and
    selects the partial-table messages.
    """
    m, n = table.shape[:2]
    (j, l), (i, k) = np.moveaxis(table, -1, 0), np.moveaxis(_grid(m, n), -1, 0)
    a_ok = (1 <= j) & (j <= m)
    in_range = a_ok & (1 <= l) & (l <= n)
    l0 = np.where(in_range, l - 1, 0)
    back, swap = table[np.where(in_range, j - 1, 0), l0], table[i - 1, l0]
    involutive = (back[..., 0] == i) & (back[..., 1] == k)
    swapped = (swap[..., 0] == j) & (swap[..., 1] == k)
    faulty = ~(in_range & involutive & swapped) & (True if defined is None else defined)
    if not faulty.any():
        return
    r, c = _first_cell(faulty)
    at, what = f"({r},{c})", "partner" if defined is None else "partial"
    if not in_range[r - 1, c - 1]:
        side = "b" if a_ok[r - 1, c - 1] else "a"
        partial_msg = f"{side}-index out of range at {at}"
        raise IndexOutOfRangeError(f"partner of {at} out of range" if defined is None else partial_msg)
    if not involutive[r - 1, c - 1]:
        raise DegreeError(f"{what} table is not an involution")
    raise DegreeError(f"{what} table violates the square-swap law")


def _canonical(squares: np.ndarray) -> np.ndarray:
    """Each ``(i, k, j, l)`` row as ``(min(i, j), min(k, l), max(i, j), max(k, l))``."""
    return np.sort(squares.reshape(-1, 2, 2), axis=1).reshape(-1, 4)


def _codes(squares: np.ndarray, m: int, n: int) -> np.ndarray:
    """One integer per square in range, increasing in lexicographic order."""
    return squares @ np.array([(n + 1) ** 2 * (m + 1), (n + 1) * (m + 1), n + 1, 1])


def _place(m: int, n: int, squares: Iterable[Sequence[int]], partial: bool) -> np.ndarray:
    """The partner table (0 on free cells) covered by the ``(s, 4)`` ``squares``.

    Square ``{i, j} x {k, l}`` pairs ``(i, k)`` with ``(j, l)`` and ``(i, l)``
    with ``(j, k)``.  The first faulty square in order raises: out of range,
    :class:`IndexOutOfRangeError` (``partial`` selects the message); meeting a
    cell an earlier square covers, :class:`DoublyCoveredPairError` at its first
    such corner of (i,k), (i,l), (j,k), (j,l), unless the table is ``partial``
    and that square is the same.  One scatter writes the table.
    """
    m, n = _degrees(m, n)
    rows = squares if isinstance(squares, np.ndarray) else list(squares)
    try:
        raw = np.array(rows, dtype=np.int64)
    except OverflowError:  # an index past int64 is out of range, reported as given
        raw = np.array(rows, dtype=object)
    if raw.shape != (0,) and raw.shape[1:] != (4,):
        raise ValueError("each square must be 4 integers")
    raw = raw.reshape(-1, 4)
    a_ok = ((1 <= raw[:, ::2]) & (raw[:, ::2] <= m)).all(axis=1)
    in_range = a_ok & ((1 <= raw[:, 1::2]) & (raw[:, 1::2] <= n)).all(axis=1)
    s = len(raw) if in_range.all() else int(in_range.argmin())
    sq = _canonical(np.asarray(raw[:s], dtype=np.int64))
    i, k, j, l = sq.T - 1
    cells = np.stack([i * n + k, i * n + l, j * n + k, j * n + l], axis=1)
    order = np.arange(s)[:, None]
    first = np.full(m * n, s)
    np.minimum.at(first, cells, order)
    owner, codes = first[cells], _codes(sq, m, n)
    clash = (owner < order) & ((codes[owner] != codes[:, None]) | (not partial))
    if clash.any():
        p = int(clash.any(axis=1).argmax())
        row, col = divmod(int(cells[p, clash[p].argmax()]), n)
        raise DoublyCoveredPairError((row + 1, col + 1))
    if s < len(raw):
        at = tuple(raw[s].tolist())
        if partial:
            raise IndexOutOfRangeError(f"square {at} out of range")
        if not a_ok[s]:
            raise IndexOutOfRangeError(f"a-index of {at} outside 1..{m}")
        raise IndexOutOfRangeError(f"b-index of {at} outside 1..{n}")
    table = np.zeros((m * n, 2), dtype=np.int64)
    table[cells] = np.stack([sq[:, 2:], sq[:, [2, 1]], sq[:, [0, 3]], sq[:, :2]], axis=1)
    return table.reshape(m, n, 2)


def _squares(table: np.ndarray) -> np.ndarray:
    """The canonical squares through the covered cells, sorted, as an ``(s, 4)`` array.

    Square ``{i, j} x {k, l}`` with ``i <= j``, ``k <= l`` has one low corner
    ``(i, k)``: its partner ``(j, l)`` is at least as large in both coordinates.
    The partners ``(j, k)``, ``(i, l)``, ``(i, k)`` of the other corners are
    smaller in some coordinate, and a free cell's ``(0, 0)`` in both.  The low
    corners are distinct cells, so their row-major order is the sorted order.
    """
    here = _grid(*table.shape[:2])
    low = (table >= here).all(axis=-1)
    return np.concatenate([here[low], table[low]], axis=1)


class StructureSet:
    """A validated ``(m, n)``-structure set, stored as its grid involution.

    ``pairs`` lists the partner ``(j, l)`` of every cell in row-major order.
    """

    __slots__ = ("m", "n", "_partners")

    def __init__(self, m: int, n: int, pairs: Sequence[tuple[int, int]]):
        self.m, self.n = _degrees(m, n)
        table = np.array(pairs, dtype=np.int64)
        if table.size != 2 * self.m * self.n or table.shape[-1:] != (2,):
            raise DegreeError("partner table has the wrong size")
        table = table.reshape(self.m, self.n, 2)
        _check_laws(table)
        table.flags.writeable = False
        self._partners = table

    def partner(self, i: int, k: int) -> tuple[int, int]:
        """The opposite corner ``f(i, k)`` of the square through ``(i, k)``."""
        return tuple(self._partners[i - 1, k - 1].tolist())

    def encoding(self) -> tuple:
        """Flat row-major partner table; injective on structure sets."""
        return tuple(map(tuple, self._partners.reshape(-1, 2).tolist()))

    def __eq__(self, other):
        return isinstance(other, StructureSet) and np.array_equal(self._partners, other._partners)

    def __hash__(self):
        return hash((self.m, self.n, self._partners.tobytes()))

    def __repr__(self):
        return f"StructureSet(m={self.m}, n={self.n}, squares={len(_squares(self._partners))})"

    def to_squares(self) -> tuple[Square, ...]:
        """The squares, canonically ordered and sorted lexicographically."""
        return tuple(map(Square._make, _squares(self._partners).tolist()))

    def local_involutions(self, side: str) -> tuple[Permutation, ...]:
        """The local involutions read off the grid involution.

        Side "B" returns one permutation of ``{1..n}`` per a-label
        (``alpha_i(k)`` = b-part of the partner of ``(i, k)``: row ``i`` of
        the b-parts); side "A" returns one permutation of ``{1..m}`` per
        b-label (column ``k`` of the a-parts).  All returned permutations are
        involutions, possibly with fixed points.  Equal rows or columns share
        one :class:`Permutation`, built once.  The structure-set laws make
        every row a bijection; one test of the whole table checks it, and a
        faulty row raises the :class:`Permutation` error.
        """
        if side not in ("A", "B"):
            raise ValueError("side must be 'A' or 'B'")
        table = self._partners[..., 1] if side == "B" else self._partners[..., 0].T
        d = table.shape[1]
        bijective = (np.sort(table, axis=1) == np.arange(1, d + 1)).all(axis=1)
        if not bijective.all():
            row = table[int(bijective.argmin())].tolist()
            raise DegreeError(f"{row} is not a bijection of 1..{d}")
        rows = list(map(tuple, table.tolist()))
        perms = {row: Permutation._unchecked(row) for row in dict.fromkeys(rows)}
        return tuple(perms[row] for row in rows)

    def transpose(self) -> "StructureSet":
        """Swap the roles of the two sides: ``f'(k, i) = (l, j)``."""
        return _frozen(StructureSet, self._partners[..., ::-1].transpose(1, 0, 2).copy())

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "squares": _squares(self._partners).tolist()}


# -- construction ------------------------------------------------------------------


def validate(m: int, n: int, squares: Iterable[Sequence[int]]) -> StructureSet:
    """Build a structure set from squares, checking exact cover.

    Raises :class:`IndexOutOfRangeError`, :class:`DoublyCoveredPairError` (also
    for a square listed twice) or :class:`UncoveredPairError` as appropriate.
    """
    table = _place(m, n, squares, partial=False)
    free = table[..., 0] == 0
    if free.any():
        raise UncoveredPairError(_first_cell(free))
    return _frozen(StructureSet, table)


def all_diagonal(m: int, n: int) -> StructureSet:
    """The structure set whose squares are all degenerate diagonals."""
    return _frozen(StructureSet, _grid(*_degrees(m, n)))


# -- partial structure sets -----------------------------------------------------------


class PartialStructureSet:
    """A partial grid involution: each pair covered at most once.

    The defined cells are closed under the square symmetry, and the involution
    and swap laws hold on the defined domain.  The constructor checks a map
    from cells to partners; free cells hold ``(0, 0)`` in the array.
    """

    __slots__ = ("m", "n", "_partners")

    def __init__(self, m: int, n: int, cells: dict):
        self.m, self.n = m, n = _degrees(m, n)
        table = np.zeros((m, n, 2), dtype=np.int64)
        defined = np.zeros((m, n), dtype=bool)
        for (i, k), (j, l) in dict(cells).items():
            if not (1 <= i <= m and 1 <= k <= n):
                side = "b" if 1 <= i <= m and 1 <= j <= m else "a"
                raise IndexOutOfRangeError(f"{side}-index out of range at ({i},{k})")
            table[i - 1, k - 1] = j, l
            defined[i - 1, k - 1] = True
        _check_laws(table, defined)
        table.flags.writeable = False
        self._partners = table

    @classmethod
    def empty(cls, m: int, n: int) -> "PartialStructureSet":
        return cls(m, n, {})

    @classmethod
    def from_squares(cls, m: int, n: int, squares: Iterable[Sequence[int]]) -> "PartialStructureSet":
        """The partial set covered by ``squares``; a square listed twice is kept once."""
        return _frozen(cls, _place(m, n, squares, partial=True))

    def defined_cells(self) -> frozenset[tuple[int, int]]:
        rows, cols = np.nonzero(self._partners[..., 0])
        return frozenset(zip((rows + 1).tolist(), (cols + 1).tolist()))

    def partner(self, i: int, k: int) -> Optional[tuple[int, int]]:
        j, l = self._partners[i - 1, k - 1].tolist()
        return (j, l) if j else None

    def covers(self, i: int, k: int) -> bool:
        return bool(self._partners[i - 1, k - 1, 0])

    def __len__(self):
        return int(np.count_nonzero(self._partners[..., 0]))

    def to_squares(self) -> tuple[Square, ...]:
        return tuple(map(Square._make, _squares(self._partners).tolist()))

    def merge(self, other: "PartialStructureSet") -> "PartialStructureSet":
        """Union of defined cells; a pair defined in both is a conflict."""
        if (self.m, self.n) != (other.m, other.n):
            raise DegreeError("cannot merge partial sets of different degree")
        both = (self._partners[..., 0] > 0) & (other._partners[..., 0] > 0)
        if both.any():
            raise ConflictingPairError(_first_cell(both))
        return _frozen(PartialStructureSet, self._partners + other._partners)

    def complete_with_diagonal(self) -> StructureSet:
        """Cover every free pair with its degenerate diagonal square."""
        partners = self._partners
        return _frozen(StructureSet, np.where(partners > 0, partners, _grid(self.m, self.n)))


# -- relabeling -------------------------------------------------------------------------


def relabel(s: StructureSet, r: Relabeling) -> StructureSet:
    """Apply ``(mu, nu)`` to both sides: ``f'(mu i, nu k) = (mu x nu) f(i, k)``."""
    mu, nu = r
    if mu.degree != s.m or nu.degree != s.n:
        raise DegreeError("relabeling degree mismatch")
    mu_of, nu_of = np.array((0,) + mu.images), np.array((0,) + nu.images)
    moved = np.stack([mu_of[s._partners[..., 0]], nu_of[s._partners[..., 1]]], axis=-1)
    return _frozen(StructureSet, moved[np.ix_(np.argsort(mu_of[1:]), np.argsort(nu_of[1:]))])


# -- canonical forms ----------------------------------------------------------------------


def _swap_col_automorphisms(s: StructureSet) -> list[set[int]]:
    """auto[c] = columns c2 > c whose transposition with c fixes the set."""
    n = s.n
    auto: list[set[int]] = [set() for _ in range(n + 1)]
    for c in range(1, n + 1):
        for c2 in range(c + 1, n + 1):
            tau = Permutation.transposition(n, c, c2)
            if relabel(s, Relabeling(Permutation.identity(s.m), tau)) == s:
                auto[c].add(c2)
                auto[c2].add(c)
    return auto


def _canonical_one_row(s: StructureSet) -> StructureSet:
    """Closed form at m == 1: fixed labels first, then adjacent transpositions."""
    alpha = s.local_involutions("B")[0]
    t = len(alpha.cycles())
    fixed = s.n - 2 * t
    squares = [Square(1, k, 1, k) for k in range(1, fixed + 1)]
    squares += [
        Square(1, fixed + 2 * c + 1, 1, fixed + 2 * c + 2) for c in range(t)
    ]
    return validate(1, s.n, squares)


def _canonical_search(s: StructureSet, node_budget: int) -> StructureSet:
    """Lexicographically minimal row-major partner encoding over relabelings.

    Assumes m! <= n!.  Rows are brute-forced; column labels are assigned by a
    depth-first search over the first row with prefix pruning against the
    best complete encoding found so far.  Column candidates equivalent under
    a column-transposition automorphism are explored once.
    """
    m, n = s.m, s.n
    fa, fb = s._partners[..., 0].tolist(), s._partners[..., 1].tolist()
    col_auto = _swap_col_automorphisms(s)
    best: Optional[list[int]] = None
    nodes = 0

    def full_encoding(row_order, new_a, new_b, old_of) -> list[int]:
        enc = []
        for old_r in row_order:
            row_a, row_b = fa[old_r - 1], fb[old_r - 1]
            for c_new in range(1, n + 1):
                old_c = old_of[c_new]
                enc.append(new_a[row_a[old_c - 1]])
                enc.append(new_b[row_b[old_c - 1]])
        return enc

    for row_order in itertools.permutations(range(1, m + 1)):
        new_a = [0] * (m + 1)
        for label, old in enumerate(row_order, 1):
            new_a[old] = label
        r1 = row_order[0]
        row1_a, row1_b = fa[r1 - 1], fb[r1 - 1]
        new_b = [0] * (n + 1)
        old_of = [0] * (n + 1)

        def extend(c_new: int, cmp_state: str):
            # cmp_state: "eq" prefix equals best so far, "lt" strictly below,
            # "ambig" contains an unresolved forward reference.
            nonlocal best, nodes
            nodes += 1
            if nodes > node_budget:
                raise ResourceError(
                    "canonical-form search exceeded its node budget"
                )
            if c_new > n:
                enc = full_encoding(row_order, new_a, new_b, old_of)
                if best is None or enc < best:
                    best = enc
                return
            pos = 2 * (c_new - 1)
            candidates = []
            for old_c in range(1, n + 1):
                if new_b[old_c]:
                    continue
                a_val = new_a[row1_a[old_c - 1]]
                partner_col = row1_b[old_c - 1]
                if partner_col == old_c:
                    b_val = c_new
                else:
                    b_val = new_b[partner_col]  # 0 when still unassigned
                sort_b = b_val if b_val else n + 1
                candidates.append((a_val, sort_b, old_c, b_val))
            candidates.sort()
            tried: list[int] = []
            for a_val, _sort_b, old_c, b_val in candidates:
                if any(old_c in col_auto[t] for t in tried):
                    continue
                tried.append(old_c)
                state = cmp_state
                if state == "eq" and best is not None:
                    if a_val > best[pos]:
                        continue
                    if a_val < best[pos]:
                        state = "lt"
                    elif b_val:
                        if b_val > best[pos + 1]:
                            continue
                        if b_val < best[pos + 1]:
                            state = "lt"
                    else:
                        # unresolved label is at least c_new + 1
                        if best[pos + 1] < c_new + 1:
                            continue
                        state = "ambig"
                new_b[old_c] = c_new
                old_of[c_new] = old_c
                extend(c_new + 1, state)
                new_b[old_c] = 0
                old_of[c_new] = 0

        extend(1, "eq")

    assert best is not None
    return StructureSet(m, n, np.reshape(best, (m * n, 2)))


def canonical_form(
    s: StructureSet,
    guard: int = DEFAULT_CANONICAL_GUARD,
    node_budget: int = _CANONICAL_NODE_BUDGET,
) -> StructureSet:
    """A canonical representative of the relabeling orbit of ``s``.

    Two structure sets are relabelings of each other iff their canonical
    forms are equal.  Exact minimization, guarded at ``m * n <= guard``.
    """
    if s.m * s.n > guard:
        raise ResourceError(
            f"canonical form guarded at m*n <= {guard}, got {s.m * s.n}"
        )
    if s.m == 1:
        return _canonical_one_row(s)
    if s.n == 1:
        return _canonical_one_row(s.transpose()).transpose()
    if math.factorial(s.m) <= math.factorial(s.n):
        return _canonical_search(s, node_budget)
    return _canonical_search(s.transpose(), node_budget).transpose()


# -- presentations and summaries -------------------------------------------------------------


def presentation_text(s: StructureSet) -> str:
    """Plain-text presentation: generator line, then one relator per line.

    Generators are ``a1..am b1..bn``; relators are the generator squares
    ``ai^2``/``bk^2`` and one length-4 word per square.
    """
    lines = [
        "generators: "
        + " ".join(f"a{i}" for i in range(1, s.m + 1))
        + " "
        + " ".join(f"b{k}" for k in range(1, s.n + 1))
    ]
    lines += [f"a{i}^2" for i in range(1, s.m + 1)]
    lines += [f"b{k}^2" for k in range(1, s.n + 1)]
    lines += [f"a{sq.a_lo} b{sq.b_lo} a{sq.a_hi} b{sq.b_hi}" for sq in s.to_squares()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComplexSummary:
    """Statistics of the 4-vertex quotient complex of a structure set."""

    vertices: int
    horizontal_edges: int
    vertical_edges: int
    distinct_squares: int
    pair_cover_total: int
    multiplicities: dict

    def to_dict(self) -> dict:
        return {
            "vertices": self.vertices,
            "horizontal_edges": self.horizontal_edges,
            "vertical_edges": self.vertical_edges,
            "distinct_squares": self.distinct_squares,
            "pair_cover_total": self.pair_cover_total,
            "multiplicities": dict(self.multiplicities),
        }


def complex_summary(s: StructureSet) -> ComplexSummary:
    """Vertex/edge/square statistics; pair covers always total ``m * n``."""
    squares = s.to_squares()
    hist: dict[int, int] = {}
    total = 0
    for sq in squares:
        mult = sq.multiplicity()
        hist[mult] = hist.get(mult, 0) + 1
        total += mult
    return ComplexSummary(
        vertices=4,
        horizontal_edges=2 * s.m,
        vertical_edges=2 * s.n,
        distinct_squares=len(squares),
        pair_cover_total=total,
        multiplicities=hist,
    )


# -- census ------------------------------------------------------------------------------------


def _census_degrees(m: int, n: int, guard: int) -> tuple[int, int]:
    m, n = _degrees(m, n)
    if m * n > guard:
        raise ResourceError(f"census guarded at m*n <= {guard}, got {m * n}")
    return m, n


def _fixed_count(m: int, n: int, mu: Sequence[int], nu: Sequence[int]) -> int:
    """Number of ``(m, n)``-structure sets fixed by the relabeling ``(mu, nu)``.

    ``mu`` and ``nu`` are 0-based image lists.  A square is the cell set
    ``{i, j} x {k, l}``, so a relabeling maps squares to squares and fixes a
    structure set exactly when it permutes the set's squares.  Cell ``(i, k)``
    (0-based) is bit ``i * n + k`` of the covered mask.  As in the set
    count, the lowest free cell picks its opposite corner; a fixed set holds
    the whole ``<(mu, nu)>``-orbit of that square, so the orbit is placed at
    once.  It is a legal move only when its distinct squares are pairwise
    cell-disjoint and cover no cell below the free one, all of which are
    covered by then.  The count of completions depends only on the mask,
    which keys the memo.
    """
    size = m * n

    def cells(a1: int, a2: int, b1: int, b2: int) -> int:
        row1, row2 = a1 * n, a2 * n
        return (1 << row1 + b1) | (1 << row1 + b2) | (1 << row2 + b1) | (1 << row2 + b2)

    # moves[c]: the cell mask of every legal orbit whose lowest cell is c
    moves: list[list[int]] = []
    for c in range(size):
        below = (1 << c) - 1
        i, k = divmod(c, n)
        at_c = []
        for j in range(m):
            for l in range(n):
                a1, a2, b1, b2 = i, j, k, l
                first = square = cells(a1, a2, b1, b2)
                orbit = 0
                while not square & (orbit | below):
                    orbit |= square
                    a1, a2, b1, b2 = mu[a1], mu[a2], nu[b1], nu[b2]
                    square = cells(a1, a2, b1, b2)
                    if square == first:
                        at_c.append(orbit)
                        break
        moves.append(at_c)

    memo = {(1 << size) - 1: 1}

    def completions(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            c = (~mask & (mask + 1)).bit_length() - 1
            got = sum(completions(mask | orbit) for orbit in moves[c] if not orbit & mask)
            memo[mask] = got
        return got

    return completions(0)


def _partitions(k: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of ``k`` into parts ``<= largest``, parts non-increasing."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def _cycle_types(k: int) -> Iterator[tuple[list[int], int]]:
    """One permutation (0-based images) per cycle type of Sym(k), with its class size.

    The class of cycle type ``lambda`` has ``k! / z_lambda`` elements, where
    ``z_lambda = prod_i i^(a_i) a_i!`` and ``a_i`` counts the parts equal to ``i``.
    """
    for parts in _partitions(k, k):
        images: list[int] = []
        for part in parts:
            start = len(images)
            images += [*range(start + 1, start + part), start]
        z = math.prod(
            length ** parts.count(length) * math.factorial(parts.count(length))
            for length in set(parts)
        )
        yield images, math.factorial(k) // z


def enumerate_structure_sets(m: int, n: int, guard: int = DEFAULT_CENSUS_GUARD) -> int:
    """Number of ``(m, n)``-structure sets, counted without listing them.

    The memoized covered-cell DP of :func:`_fixed_count` at the identity
    relabeling.
    """
    m, n = _census_degrees(m, n, guard)
    return _fixed_count(m, n, list(range(m)), list(range(n)))


def count_up_to_relabeling(m: int, n: int, guard: int = DEFAULT_CENSUS_GUARD) -> int:
    """Number of relabeling classes of ``(m, n)``-structure sets.

    Burnside's lemma (Cauchy-Frobenius): the number of orbits of
    Sym(m) x Sym(n) is the mean number of fixed sets,
    ``sum Fix(g_lambda, g_rho) * |C_lambda| * |C_rho| / (m! n!)`` over the
    cycle types ``lambda`` of m and ``rho`` of n, with one representative
    ``(g_lambda, g_rho)`` per pair of conjugacy classes (fixed counts are
    constant on them).  The sum is exact in integers; a nonzero remainder
    means a fixed count is wrong and raises ``ArithmeticError``.
    """
    return census_counts(m, n, guard)[1]


def census_counts(m: int, n: int, guard: int = DEFAULT_CENSUS_GUARD) -> tuple[int, int]:
    """``(enumerate_structure_sets(m, n), count_up_to_relabeling(m, n))``.

    The set count is the identity term of Burnside's sum, so its DP, the
    largest in the sum, runs once for both numbers.
    """
    m, n = _census_degrees(m, n, guard)
    identity = (list(range(m)), list(range(n)))
    sets = _fixed_count(m, n, *identity)
    total = 0
    for mu, mu_class in _cycle_types(m):
        for nu, nu_class in _cycle_types(n):
            fixed = sets if (mu, nu) == identity else _fixed_count(m, n, mu, nu)
            total += fixed * mu_class * nu_class
    group_order = math.factorial(m) * math.factorial(n)
    classes, remainder = divmod(total, group_order)
    if remainder:
        raise ArithmeticError(
            f"Burnside sum {total} at (m, n) = ({m}, {n})"
            f" is not a multiple of m! n! = {group_order}"
        )
    return sets, classes
