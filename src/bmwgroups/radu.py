"""The explicit family seeded by Radu's (4,5)-lattice.

Radu's group Gamma_{4,5,1} (Theorem 5.5 of "New simple lattices in products
of trees and their projections", 2020) is an involutive group of degree
(4, 5) whose finite residual is exactly the index-4 type-preserving
subgroup.  :func:`delta` returns its structure set.

Around that seed, :func:`blueprint` builds eleven index-range families of
squares on the boundary rows and columns, each one array read off the outer
involutions' images, and :meth:`~S0Blueprint.partial_set` places them in one
scatter: a partial (m, n)-structure set for m >= 13, n >= 14.  Every
completion of it has full symmetric local actions on both sides and simple
type-preserving subgroup (by Radu's theorem plus the Burger-Mozes machinery);
the rows 11..m-3 and columns 12..n-3 are left untouched, so completions can
differ arbitrarily on that free block.  :func:`extension` lays the base
partner table over one fill table: the diagonal everywhere, except that the
free rows pair their columns by a chosen family of involutions on them.

Everything here is a pure constructor; the generation and connectivity
claims are machine-checked by the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConflictingPairError, DoublyCoveredPairError, RangeError
from .perm import Permutation
from .permgroup import SchreierAnalysis, schreier_analysis
from .rng import RngState
from .structure import PartialStructureSet, Square, StructureSet, validate
from .structure import _canonical, _codes, _first_cell, _frozen, _grid, _place

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


# The a-side outer involutions as (head transpositions, first tail label);
# the b side is the same shifted up by one label.
_OUTER = ((((6, 9), (7, 10)), 11), (((6, 8), (7, 9)), 10), (((5, 8),), None))

FAMILIES = (
    "seed", "top_rows", "left_cols", "row4_diagonal", "mid_diagonal", "mixed_block",
    "mid_rows", "mid_cols", "markers", "last_col_diagonal", "late_row_diagonal",
)
_ONCE = (1, 2, 5, 6, 7)  # families that skip a square any of them already holds


def delta() -> StructureSet:
    """Radu's (4,5)-structure set; local actions are Sym(4) and Sym(5)."""
    return validate(4, 5, _DELTA_SQUARES)


def _outer_images(side: str, d: int) -> np.ndarray:
    """The outer involutions of ``side`` ("a" or "b") at degree d, as a ``(3, d)`` image array.

    The tails pair consecutive labels up the interval, a leftover endpoint fixed.
    """
    name, low, shift = ("n", MIN_N, 1) if side == "b" else ("m", MIN_M, 0)
    if d < low:
        raise RangeError(f"{name} must be at least {low}")
    images = np.tile(np.arange(1, d + 1), (3, 1))
    for row, (heads, tail) in zip(images, _OUTER):
        tails = np.arange(tail or d, d - shift, 2)[:, None] + (0, 1)
        lo, hi = np.concatenate([heads, tails]).T + shift
        row[lo - 1], row[hi - 1] = hi, lo
    return images


def _outer_involution(side: str, index: int, d: int) -> Permutation:
    images = _outer_images(side, d)
    if index not in (1, 2, 3):
        raise RangeError("index must be 1, 2 or 3")
    return Permutation._unchecked(tuple(images[index - 1].tolist()))


def outer_b_involution(index: int, n: int) -> Permutation:
    """The three involutions on b-labels 6..n that generate Sym there.

    Degree-n permutations fixing labels 1..5.  The generation property is
    verified by the tests for both parities of n, not assumed.
    """
    return _outer_involution("b", index, n)


def outer_a_involution(index: int, m: int) -> Permutation:
    """The a-side counterpart on labels 5..m (degree-m, fixing 1..4)."""
    return _outer_involution("a", index, m)


class TaggedSquare(NamedTuple):
    square: Square
    family: str


@dataclass(frozen=True, eq=False)
class S0Blueprint:
    """The eleven square families of the base partial set at (m, n): canonical
    ``squares`` in placement order, row ``r`` in family ``names[family[r]]``."""

    m: int
    n: int
    squares: np.ndarray
    family: np.ndarray
    names: tuple[str, ...]

    @property
    def tagged(self) -> tuple[TaggedSquare, ...]:
        """The squares with their family names, in placement order."""
        rows = zip(self.squares.tolist(), self.family.tolist())
        return tuple(TaggedSquare(Square(*sq), self.names[f]) for sq, f in rows)

    def families(self) -> dict[str, np.ndarray]:
        """Each family's sorted ``(k, 4)`` square array, in order of first appearance."""
        order = np.argsort(_codes(self.squares, self.m, self.n))
        present = dict.fromkeys(self.family.tolist())
        return {self.names[f]: self.squares[order[self.family[order] == f]] for f in present}

    def partial_set(self) -> PartialStructureSet:
        """All squares placed at once; a clash names the two squares' families."""
        try:
            table = _place(self.m, self.n, self.squares, partial=True)
        except DoublyCoveredPairError as err:
            # The first square through the pair placed it; the first later one
            # through it that is a different square is the clash.
            (r, c), (i, k, j, l) = err.pair, self.squares.T
            through = np.flatnonzero(((i == r) | (j == r)) & ((k == c) | (l == c)))
            codes = _codes(_canonical(self.squares[through]), self.m, self.n)
            first, clash = self.family[through[[0, (codes != codes[0]).argmax()]]]
            raise ConflictingPairError(err.pair, tags=(self.names[first], self.names[clash])) from None
        return _frozen(PartialStructureSet, table)

    def extension(self, filler: Optional[Sequence[Permutation]] = None) -> StructureSet:
        """The base partner table laid over one fill table, valid by construction.

        The fill table is the diagonal, except that free row ``11 + r`` pairs
        column ``k`` with ``filler[r](k)``: one degree-n involution of the free
        columns per free row, checked as one stacked image array.  With a
        filler, a base square on the free block raises
        :class:`ConflictingPairError` at the first such cell.
        """
        rows, cols = free_block(self.m, self.n)
        base, fill = self.partial_set()._partners, _grid(self.m, self.n)
        if filler:
            if len(filler) != len(rows):
                raise RangeError(f"filler must have one involution per free row ({len(rows)})")
            points = np.arange(1, self.n + 1)
            wrong = np.array([sigma.degree != self.n for sigma in filler])
            images = np.array([points if w else sigma.images for sigma, w in zip(filler, wrong)])
            not_involution = (np.take_along_axis(images, images - 1, axis=1) != points).any(axis=1)
            free = (cols.start <= points) & (points < cols.stop)
            outside = (images != points) & ~(free & free[images - 1])
            faulty = wrong | not_involution | outside.any(axis=1)
            if faulty.any():
                r = int(faulty.argmax())
                if wrong[r]:
                    raise RangeError("filler involutions must have degree n")
                if not_involution[r]:
                    raise RangeError("filler entries must be involutions")
                p = int(outside[r].argmax()) + 1
                raise RangeError(f"filler involution moves {p} outside the free columns")
            r0, c0 = rows.start - 1, cols.start - 1
            covered = base[r0 : rows.stop - 1, c0 : cols.stop - 1, 0] > 0
            if covered.any():
                i, k = _first_cell(covered)
                raise ConflictingPairError((r0 + i, c0 + k))
            fill[r0 : rows.stop - 1, :, 1] = images
        fill[base > 0] = base[base > 0]
        return _frozen(StructureSet, fill)


def _rows(*cols) -> np.ndarray:
    """The broadcast index columns as the rows of one 2-D array, outer index first."""
    out = np.empty(np.broadcast(*cols).shape + (len(cols),), dtype=np.int64)
    for c, col in enumerate(cols):
        out[..., c] = col
    return out.reshape(-1, len(cols))


def blueprint(m: int, n: int) -> S0Blueprint:
    """Generate the tagged square families from their index-range definitions.

    Each family is one array of squares read from the outer involutions'
    images; a square of a once-family that an earlier once-family square
    already holds is dropped.
    """
    beta, alpha = _outer_images("a", m) - 1, _outer_images("b", n) - 1  # 0-based images
    r3, c3 = np.arange(3)[:, None], np.arange(3)[None, :]  # outer-major 3x3 index grids
    mid_l, mid_j = alpha[:, 8:], beta[:, 7:]  # images of columns 9..n and rows 8..m
    parts = [  # 0-based; diagonal squares (i, k, i, k) tile their cells (i, k)
        np.array(_DELTA_SQUARES) - 1,
        _rows(r3, np.arange(5, n), r3, alpha[:, 5:]),  # rows 1..3 along the outer b-involutions
        _rows(np.arange(4, m), r3, beta[:, 4:], r3),  # columns 1..3 along the outer a-involutions
        np.tile(_rows(3, np.arange(5, 8)), 2),  # row 4 diagonals on columns 6..8
        np.tile(_rows(r3 + 4, c3[:, :2] + 3), 2),  # diagonals on rows 5..7, columns 4..5
        _rows(r3 + 4, c3 + 5, beta[c3, r3 + 4], alpha[r3, c3 + 5]),  # the mixed 3x3 block
        _rows(r3 + 4, np.arange(8, n), r3 + 4, mid_l)[mid_l.ravel() > 7],  # rows 5..7, right of it
        _rows(np.arange(7, m), r3 + 5, mid_j, r3 + 5)[mid_j.ravel() > 6],  # columns 6..8, below it
        np.array([(3, n - 1, m - 1, n - 2), (m - 3, 3, m - 2, n - 3)]),  # the two markers
        np.tile(_rows(np.arange(7, m - 1)[:, None], [n - 1, n - 2]), 2),  # the last two columns
        np.tile(_rows([m - 2, m - 3], np.arange(8, n - 3)[:, None]), 2),  # the last interior rows
    ]
    squares = _canonical(np.concatenate(parts) + 1)
    family = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    # a once-family square keeps its first occurrence; every other square is its own code
    codes = np.where(np.isin(family, _ONCE), _codes(squares, m, n), -1 - np.arange(len(family)))
    keep = np.sort(np.unique(codes, return_index=True)[1])
    squares, family = squares[keep], family[keep]
    squares.flags.writeable = family.flags.writeable = False
    return S0Blueprint(m, n, squares, family, FAMILIES)


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
    gens = [Permutation._unchecked(tuple(row)) for row in _outer_images("b", n).tolist()]
    analysis = schreier_analysis(gens, range(6, n + 1))
    odd_walk = (not analysis.bipartite) or bool(analysis.loops)
    return ClaimCheck(analysis.connected, odd_walk, analysis)
