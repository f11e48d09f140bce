"""The explicit family seeded by Radu's (4,5)-lattice.

Radu's group Gamma_{4,5,1} (Theorem 5.5 of "New simple lattices in products
of trees and their projections", 2020) is an involutive group of degree
(4, 5) whose finite residual is exactly the index-4 type-preserving
subgroup.  :func:`delta` returns its structure set.

Around that seed, :func:`blueprint` lays out eleven index-range families
of squares pinned to the boundary rows and columns, and its
:meth:`~S0Blueprint.partial_set` is a partial (m, n)-structure set for
m >= 13, n >= 14.  Every completion of the partial set has full
symmetric local actions on both sides and simple type-preserving subgroup
(by Radu's theorem plus the Burger-Mozes machinery); the rows 11..m-3 and
columns 12..n-3 are left untouched, so completions can differ arbitrarily on
that free block.  :func:`extension` lays the base partner table over one fill
table: the diagonal everywhere, except that the free rows pair their columns
by a chosen family of involutions on the free columns.

Everything here is a pure constructor; the generation and connectivity
claims are machine-checked by the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import ConflictingPairError, DoublyCoveredPairError, RangeError
from .perm import Permutation
from .permgroup import SchreierAnalysis, schreier_analysis
from .rng import RngState
from .structure import PartialStructureSet, Square, StructureSet, validate
from .structure import _first_cell, _frozen, _grid, _place

MIN_M = 13
MIN_N = 14

_DELTA_SQUARES = (
    # Radu's listing, one quadruple [a, b, a', b'] per square.
    (1, 1, 1, 1),
    (1, 2, 1, 2),
    (2, 3, 1, 3),
    (2, 1, 2, 1),
    (3, 2, 2, 2),
    (3, 3, 3, 1),
    (1, 4, 1, 4),
    (4, 5, 1, 5),
    (3, 5, 2, 4),
    (4, 2, 4, 1),
    (4, 4, 4, 3),
)


def delta() -> StructureSet:
    """Radu's (4,5)-structure set; local actions are Sym(4) and Sym(5)."""
    return validate(4, 5, [Square.canonical(i, k, j, l) for i, k, j, l in _DELTA_SQUARES])


def _consecutive_pairs(start: int, top: int):
    """(start, start+1), (start+2, start+3), ... while they fit below top."""
    x = start
    while x + 1 <= top:
        yield (x, x + 1)
        x += 2


def outer_b_involution(index: int, n: int) -> Permutation:
    """The three involutions on b-labels 6..n that generate Sym there.

    Degree-n permutations fixing labels 1..5.  Head transpositions are
    fixed; the tails continue as consecutive transpositions up the interval,
    with a leftover endpoint fixed.  The generation property is verified by
    the tests for both parities of n, not assumed.
    """
    if n < MIN_N:
        raise RangeError(f"n must be at least {MIN_N}")
    if index == 1:
        cycles = [(7, 10), (8, 11)] + list(_consecutive_pairs(12, n))
    elif index == 2:
        cycles = [(7, 9), (8, 10)] + list(_consecutive_pairs(11, n))
    elif index == 3:
        cycles = [(6, 9)]
    else:
        raise RangeError("index must be 1, 2 or 3")
    return Permutation.from_cycles(n, cycles)


def outer_a_involution(index: int, m: int) -> Permutation:
    """The a-side counterpart on labels 5..m (degree-m, fixing 1..4)."""
    if m < MIN_M:
        raise RangeError(f"m must be at least {MIN_M}")
    if index == 1:
        cycles = [(6, 9), (7, 10)] + list(_consecutive_pairs(11, m))
    elif index == 2:
        cycles = [(6, 8), (7, 9)] + list(_consecutive_pairs(10, m))
    elif index == 3:
        cycles = [(5, 8)]
    else:
        raise RangeError("index must be 1, 2 or 3")
    return Permutation.from_cycles(m, cycles)


class TaggedSquare(NamedTuple):
    square: Square
    family: str


@dataclass(frozen=True)
class S0Blueprint:
    """The eleven square families of the base partial set at (m, n)."""

    m: int
    n: int
    tagged: tuple[TaggedSquare, ...]

    def families(self) -> dict[str, tuple[Square, ...]]:
        out: dict[str, list[Square]] = {}
        for sq, fam in self.tagged:
            out.setdefault(fam, []).append(sq)
        return {fam: tuple(sorted(sqs)) for fam, sqs in out.items()}

    def partial_set(self) -> PartialStructureSet:
        """All squares placed at once; a clash names the two squares' families."""
        try:
            table = _place(self.m, self.n, [sq for sq, _ in self.tagged], partial=True)
        except DoublyCoveredPairError as err:
            # The first square through the pair placed it; the first later one
            # through it that is a different square is the clash.
            (first, family), *later = [t for t in self.tagged if err.pair in t.square.cells()]
            first = Square.canonical(*first)
            clash = next(fam for sq, fam in later if Square.canonical(*sq) != first)
            raise ConflictingPairError(err.pair, tags=(family, clash)) from None
        return _frozen(PartialStructureSet, table)

    def extension(self, filler: Optional[Sequence[Permutation]] = None) -> StructureSet:
        """The base partner table laid over one fill table, valid by construction.

        The fill table is the diagonal, except that free row ``11 + r`` pairs
        column ``k`` with ``filler[r](k)``: one degree-n involution of the free
        columns per free row.  With a filler, a base square on the free block
        raises :class:`ConflictingPairError` at the first such cell.
        """
        rows, cols = free_block(self.m, self.n)
        base, fill = self.partial_set()._partners, _grid(self.m, self.n)
        if filler:
            if len(filler) != len(rows):
                raise RangeError(f"filler must have one involution per free row ({len(rows)})")
            for sigma in filler:
                if sigma.degree != self.n:
                    raise RangeError("filler involutions must have degree n")
                if not sigma.is_involution():
                    raise RangeError("filler entries must be involutions")
                p = next((p for p in sigma.moved_points() if p not in cols or sigma(p) not in cols), 0)
                if p:
                    raise RangeError(f"filler involution moves {p} outside the free columns")
            r0, c0 = rows.start - 1, cols.start - 1
            covered = base[r0 : rows.stop - 1, c0 : cols.stop - 1, 0] > 0
            if covered.any():
                i, k = _first_cell(covered)
                raise ConflictingPairError((r0 + i, c0 + k))
            fill[r0 : rows.stop - 1, :, 1] = [sigma.images for sigma in filler]
        fill[base > 0] = base[base > 0]
        return _frozen(StructureSet, fill)


def blueprint(m: int, n: int) -> S0Blueprint:
    """Generate the tagged square families from their index-range definitions."""
    if m < MIN_M:
        raise RangeError(f"m must be at least {MIN_M}")
    if n < MIN_N:
        raise RangeError(f"n must be at least {MIN_N}")
    alpha = {i: outer_b_involution(i, n) for i in (1, 2, 3)}
    beta = {i: outer_a_involution(i, m) for i in (1, 2, 3)}
    tagged: list[TaggedSquare] = []

    def add(fam: str, i: int, k: int, j: int, l: int):
        tagged.append(TaggedSquare(Square.canonical(i, k, j, l), fam))

    for i, k, j, l in _DELTA_SQUARES:
        add("seed", i, k, j, l)
    seen: set[Square] = set()

    def add_once(fam: str, i: int, k: int, j: int, l: int):
        sq = Square.canonical(i, k, j, l)
        if sq not in seen:
            seen.add(sq)
            tagged.append(TaggedSquare(sq, fam))

    # rows 1..3 paired along the outer b-involutions
    for i in (1, 2, 3):
        for k in range(6, n + 1):
            add_once("top_rows", i, k, i, alpha[i](k))
    # columns 1..3 paired along the outer a-involutions
    for k in (1, 2, 3):
        for i in range(5, m + 1):
            add_once("left_cols", i, k, beta[k](i), k)
    # row 4 diagonals on columns 6..8
    for k in (6, 7, 8):
        add("row4_diagonal", 4, k, 4, k)
    # diagonals on rows 5..7, columns 4..5
    for i in (5, 6, 7):
        for k in (4, 5):
            add("mid_diagonal", i, k, i, k)
    # the fully mixed 3x3 block
    for i in (5, 6, 7):
        for k in (6, 7, 8):
            add_once("mixed_block", i, k, beta[k - 5](i), alpha[i - 4](k))
    # rows 5..7 paired along the b-involutions, past the mixed block
    for i in (5, 6, 7):
        for k in range(9, n + 1):
            if alpha[i - 4](k) > 8:
                add_once("mid_rows", i, k, i, alpha[i - 4](k))
    # columns 6..8 paired along the a-involutions, below the mixed block
    for k in (6, 7, 8):
        for i in range(8, m + 1):
            if beta[k - 5](i) > 7:
                add_once("mid_cols", i, k, beta[k - 5](i), k)
    # the two marker squares tying the last rows/columns in
    add("markers", 4, n, m, n - 1)
    add("markers", m - 2, 4, m - 1, n - 2)
    # diagonals on the last two columns
    for i in range(8, m):
        add("last_col_diagonal", i, n, i, n)
        add("last_col_diagonal", i, n - 1, i, n - 1)
    # diagonals on the last interior rows
    for k in range(9, n - 2):
        add("late_row_diagonal", m - 1, k, m - 1, k)
        add("late_row_diagonal", m - 2, k, m - 2, k)
    return S0Blueprint(m, n, tuple(tagged))


def free_block(m: int, n: int) -> tuple[range, range]:
    """(rows, columns) of the block untouched by the base partial set."""
    return range(11, m - 2), range(12, n - 2)


def extension(m: int, n: int, filler: Optional[Sequence[Permutation]] = None) -> StructureSet:
    """``blueprint(m, n).extension(filler)``; distinct fillers differ on the free block."""
    return blueprint(m, n).extension(filler)


def random_filler(m: int, n: int, rng: RngState) -> list[Permutation]:
    """Deterministic random involutions on the free block, one per free row.

    Sampling is a simple sequential pairing (not uniform over involutions);
    it exists to produce reproducibly distinct extensions from a seed.
    """
    rows, cols = free_block(m, n)
    out = []
    for _ in rows:
        remaining = list(cols)
        images = list(range(1, n + 1))
        while remaining:
            x = remaining.pop(0)
            choice = rng.randbelow(len(remaining) + 1)
            if choice > 0:
                y = remaining.pop(choice - 1)
                images[x - 1], images[y - 1] = y, x
        out.append(Permutation(images))
    return out


class ClaimCheck(NamedTuple):
    """Connectivity and odd-closed-walk existence for the outer b-action.

    ``not_bipartite`` asserts that any two domain points are joined by an
    even-length generator walk: the graph is connected and contains an odd
    closed walk, where a fixed point of a generator counts as a loop (an odd
    walk of length 1).  The simple graph with loops discarded is in fact
    always a path here, so the loops carry the claim.
    """

    connected: bool
    not_bipartite: bool
    analysis: SchreierAnalysis


def schreier_claim_check(n: int) -> ClaimCheck:
    """Check the outer b-involutions' Schreier graph on labels 6..n."""
    if n < MIN_N:
        raise RangeError(f"n must be at least {MIN_N}")
    gens = [outer_b_involution(i, n) for i in (1, 2, 3)]
    analysis = schreier_analysis(gens, range(6, n + 1))
    odd_walk = (not analysis.bipartite) or bool(analysis.loops)
    return ClaimCheck(analysis.connected, odd_walk, analysis)
