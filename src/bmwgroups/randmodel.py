"""The random model: tuples of fixed-point-free involutions and certificates.

A tuple ``(alpha_1, .., alpha_m)`` of fixed-point-free involutions of degree
``n`` with no triple matchings determines a structure set whose B-side local
involutions are exactly the ``alpha_i``.  This module samples such tuples
reproducibly, evaluates every certificate used to predict properties of the
presented group, and runs exact or Monte-Carlo probability computations
against closed-form values.

A tuple (:class:`InvolutionTuple`) is one read-only ``(m, n)`` array of
1-based images, and that array is the match graph (:class:`MatchGraph`):
the neighbours of point k are ``images[:, k - 1]``.  The graph adds only
the number of coordinate pairs agreeing at each point, and reads its black
edges, witnesses and derived structure set with the helpers of the batch
front below, on a batch of one.  A derived structure set's b-parts are the
tuple's image array, and its a-parts differ from the row's own coordinate
only on black edges (at most two coordinates per edge span one square).

Every Monte-Carlo kind reads ``(B, m, n)`` batches of one sampler, in
memory-bounded chunks.  The certificates of a piece of a batch are read off
its array at once (:func:`_certificates`, of which :func:`irr_certificate`
is the one-tuple case): the flags, statistic and midpoint from the
coordinate pairs agreeing at each point, the black edges and a-parts from
the sorted columns of the points where pairs agree, the white balls of all
its graphs in one walk, the A sides by the theorem on groups generated by
transpositions, and the B sides classified together, sharing their Jordan
words.  Connectivity is the transitivity of the group of a tuple's rows.

Certificates (names used in reports):

* no_triple_matchings - no three coordinates agree at a point;
* no_overlapping_matches - no two distinct coordinate pairs agree at one
  point;
* midpoint - every two coordinates are linked through a third sharing an
  orbit with each (the strengthened reading that the middle coordinate is
  distinct from both; with the two conditions above this forces the A-side
  local action to be the full symmetric group);
* white_ball - some vertex of the match graph sees only white edges in its
  closed ball of a given radius (default 6, the radius required by the
  Trofimov-Weiss non-discreteness criterion);
* connected / has_black_edge - properties of the match graph;
* A-side 2-transitivity - evaluated on the derived structure set.

Conclusions are conjunctions of certificates plus externally cited theorems
(Burger-Mozes for hereditary just-infiniteness; m, n >= 6 and alternating
local actions required); the report only certifies hypotheses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ArityError,
    DegreeError,
    RangeError,
    ResourceError,
    TripleMatchingError,
    UsageError,
)
from .perm import FpfInvolution, _check_even, count_fpf, enumerate_fpf
from .permgroup import (
    DEFAULT_EXACT_MAX_DEGREE,
    DEFAULT_JORDAN_WORD_LEN,
    DEFAULT_JORDAN_WORDS,
    DEFAULT_ORDER_GUARD,
    GroupClassification,
    PermutationGroup,
    _classify_groups,
    _mark_transitive,
)
from .rng import RngState, randbelow_draft
from .structure import StructureSet, _frozen

DEFAULT_BALL_RADIUS = 6
DEFAULT_ENUMERATION_LIMIT = 1_000_000
MC_KINDS = (
    "orbit_share",
    "expected_M",
    "triple_matching_rate",
    "overlap_rate",
    "certificate_rates",
)


class InvolutionTuple:
    """An element of (F_n)^m, stored as one read-only (m, n) int64 image array.

    One vectorized test checks that every entry is in range, an involution
    and not fixed.  Malformed input raises the error that the first faulty
    row raises as an :class:`FpfInvolution`.
    """

    __slots__ = ("m", "n", "images")

    def __init__(self, images: Sequence[Sequence[int]]):
        try:
            table = np.array(images, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            table = None
        if table is None or table.ndim != 2 or not table.size or not _fpf_rows(table):
            raise _row_fault(images)
        table.flags.writeable = False
        self.m, self.n = table.shape
        self.images = table

    @property
    def entries(self) -> tuple[FpfInvolution, ...]:
        """The coordinates as :class:`FpfInvolution` objects, built on each call."""
        return tuple(FpfInvolution(row) for row in self.images.tolist())

    def __eq__(self, other):
        return isinstance(other, InvolutionTuple) and np.array_equal(self.images, other.images)

    def __hash__(self):
        return hash((self.m, self.n, self.images.tobytes()))


def _fpf_rows(table: np.ndarray) -> bool:
    """Whether every row of a 1-based image table is a fixed-point-free involution."""
    rows, n = table.shape
    points = np.arange(1, n + 1)
    if table.min() < 1 or table.max() > n:
        return False
    # row r's image of point k sits at flat position r * n + k - 1
    back = table.reshape(-1).take(table + (np.arange(rows) * n - 1)[:, None])
    return bool((back == points).all() and (table != points).all())


def _row_fault(images) -> Exception:
    """The error of a malformed image table: its first faulty row's, in order."""
    degrees = {FpfInvolution(row).degree for row in images}
    if not degrees:
        return ArityError("at least one involution required")
    if len(degrees) > 1:
        return DegreeError("entry degree mismatch")
    return DegreeError("images must form an (m, n) table of integers")


def _check_shape(m: int, n: int) -> None:
    if m < 1:
        raise ArityError("m must be positive")
    _check_even(n)


def sample_tuple(m: int, n: int, rng: RngState) -> InvolutionTuple:
    """m independent uniform fixed-point-free involutions, one rng stream.

    Each coordinate lists the points ``1..n`` in slots ``0..n-1``; step
    ``s`` swaps slot ``2s + 1`` with slot ``2s + 1 + randbelow(n - 1 - 2s)``
    and pairs the points in slots ``2s`` and ``2s + 1``.  The
    ``n - 1, n - 3, ..`` equally likely outcomes telescope to ``(n-1)!!``
    and every pairing comes from exactly one choice sequence, so each
    coordinate is uniform.  Coordinate ``c`` makes its ``n/2`` calls after
    those of the coordinates before it, and the whole tuple is a pure
    function of the rng seed.  All ``m * n/2`` calls are made by one
    :meth:`~bmwgroups.rng.RngState.randbelow_block`.

    The swaps then run in rounds, on one flat slot array that holds
    coordinate ``c`` at offset ``c * n`` (deterministic reservations: Shun,
    Gu, Blelloch, Fineman and Gibbons, SODA 2015).  Each round every pending
    step reserves both its slots with its index, the least index winning,
    and every step that holds both swaps.  Those steps touch disjoint slots,
    and no earlier step that touches one is pending, so each swaps what the
    sequential loop would: the result is the loop's.  About half the pending
    steps win a round, so (6, 7778) takes 14-18 rounds.
    """
    _check_shape(m, n)
    steps = n // 2
    bounds = np.tile(np.arange(n - 1, 0, -2), m)
    anchor = np.arange(1, n, 2) + np.arange(0, m * n, n)[:, None]
    target = (rng.randbelow_block(bounds).reshape(m, steps) + anchor).reshape(-1)
    anchor = anchor.reshape(-1)
    step = np.arange(m * steps)
    free = m * steps  # above every step index
    held = np.full(m * n, free)
    slots = np.tile(np.arange(n), m)
    while len(step):
        np.minimum.at(held, anchor, step)
        np.minimum.at(held, target, step)
        won = (held.take(anchor) == step) & (held.take(target) == step)
        a, j = anchor.compress(won), target.compress(won)
        slots[a], slots[j] = slots.take(j), slots.take(a)
        held[anchor] = free
        held[target] = free
        pending = np.flatnonzero(~won)
        anchor, target, step = anchor.take(pending), target.take(pending), step.take(pending)
    slots = slots.reshape(m, n)
    anchors, partners = slots[:, 0::2], slots[:, 1::2]
    images = np.empty((m, n), dtype=np.int64)
    np.put_along_axis(images, anchors, partners + 1, axis=1)
    np.put_along_axis(images, partners, anchors + 1, axis=1)
    return InvolutionTuple(images)


def sample_tuple_images_batch(
    m: int, n: int, rng: RngState, first_trial: int, count: int
) -> np.ndarray:
    """Image arrays of ``sample_tuple(m, n, rng.derive(t))`` for a trial range.

    Returns a ``(count, m, n)`` 1-based array whose row ``t`` equals the
    scalar tuple for trial ``first_trial + t`` on every branch.  One pass per
    coordinate draws every trial's words by
    :func:`~bmwgroups.rng.randbelow_draft` and swaps the slots of all trials
    at once, in one trial-major ``(count, n)`` slot array: slot ``i`` of
    trial ``t`` sits at flat position ``t * n + i``, so each trial's shuffle
    stays in its own contiguous row (Sanders, IPL 1998).  The draws become
    flat slot targets in place, and the pairs are then scattered straight
    into the output, each row into its trial's own block.  A trial whose
    draws hit the rejection branch in any coordinate shifts the draws of the
    later coordinates, so it is recomputed whole with :func:`sample_tuple`.
    """
    _check_shape(m, n)
    seeds = rng.derived_seeds(first_trial, count)
    steps = n // 2
    bounds = np.arange(n - 1, 0, -2)
    anchors = np.arange(1, n, 2)
    row_starts = np.arange(count)[:, None] * n
    out = np.empty((count, m, n), dtype=np.int64)
    flat_out = out.reshape(-1)  # out[t, c, i] is flat_out[(t * m + c) * n + i]
    rejected = np.zeros(count, dtype=bool)
    slots = np.empty(count * n, dtype=np.int64)
    grid = slots.reshape(count, n)
    for c in range(m):
        draws, hit = randbelow_draft(seeds, c * steps, bounds)
        rejected |= hit
        draws += anchors  # step s swaps slot a = 2 s + 1 with slot a + drawn
        draws += row_starts
        draws = draws.T.copy()  # step s's targets in one contiguous row
        grid[:] = np.arange(n)
        for a, at in zip(anchors.tolist(), draws):
            partner = slots.take(at)
            slots[at] = grid[:, a]
            grid[:, a] = partner
        del draws, at  # free this coordinate's targets before the pair scatter
        starts = row_starts * m + c * n  # (t * m + c) * n
        flat_out[grid[:, 0::2] + starts] = grid[:, 1::2] + 1
        flat_out[grid[:, 1::2] + starts] = grid[:, 0::2] + 1
    for t in np.nonzero(rejected)[0]:
        out[t] = sample_tuple(m, n, rng.derive(first_trial + int(t))).images
    return out


# -- the match graph: the tuple's image array and its black edges -------------------------


class TripleWitness(NamedTuple):
    point: int
    coords: tuple[int, int, int]


class OverlapWitness(NamedTuple):
    point: int
    first: tuple[int, int]
    second: tuple[int, int]


@dataclass(frozen=True)
class MidpointResult:
    holds: bool
    failing: Optional[tuple[int, int]] = None


class MatchGraph:
    """Graph on the points 1..n with an edge where some coordinate matches.

    An edge {k, l} exists when some coordinate maps k to l; it is black when
    at least two distinct coordinates do, white otherwise.  The tuple's image
    array is the graph: the neighbours of point k are ``images[:, k - 1]``.
    The graph adds only ``pairs_at``, the ``(1, n)`` number of coordinate
    pairs agreeing at each point (:func:`_agreeing_pairs`); every read is the
    one-tuple case of a helper of the batch front (:func:`_certificates`).
    """

    __slots__ = ("m", "n", "images", "pairs_at")

    def __init__(self, t: InvolutionTuple):
        self.m, self.n, self.images = t.m, t.n, t.images
        self.pairs_at = _agreeing_pairs(t.images[None])[0]

    def black_edges(self) -> tuple[tuple[int, int], ...]:
        """The black edges ``(k, l)``, ``k < l``, in order."""
        edges = _black_edges(self.images[None], self.pairs_at)[:, 1:] + 1
        return tuple(map(tuple, edges.tolist()))

    def triple_witness(self) -> Optional[TripleWitness]:
        """First (point, coordinate triple) with three coordinates agreeing, or None."""
        return _triple_witness(self.images, int(_triples(self.images[None], self.pairs_at)[0]))

    def overlap_witness(self) -> Optional[OverlapWitness]:
        """First point where two distinct coordinate pairs agree, or None."""
        return _overlap_witness(self.images, int(_first(self.pairs_at >= 2)[0]))

    def structure_set(self) -> StructureSet:
        """The structure set with B-side local involutions the tuple's entries.

        Each edge ``{k < l}`` spans one square: cell ``(c, k)`` is paired with
        ``(c', l)``, c' being the edge's other coordinate, or c on a white
        edge.  The b-parts are thus the tuple's image array, and the a-parts
        come from :func:`_a_parts`.  An edge with three coordinates raises
        TripleMatchingError.
        """
        witness = self.triple_witness()
        if witness is not None:
            raise TripleMatchingError(witness)
        a_parts = _a_parts(self.images[None], _black_edges(self.images[None], self.pairs_at))
        # valid by construction, so the laws are not checked again
        return _frozen(StructureSet, np.stack([a_parts[0], self.images], axis=-1))

    def is_connected(self) -> bool:
        """Whether the group generated by the tuple's rows is transitive.

        Its orbits are the components of the graph.
        """
        return PermutationGroup._from_images0(self.n, self.images - 1).is_transitive()


def match_graph(t: InvolutionTuple) -> MatchGraph:
    return MatchGraph(t)


def triple_matchings(t: InvolutionTuple) -> Optional[TripleWitness]:
    """The first triple matching of ``t``; see :func:`_triple_witness`."""
    return match_graph(t).triple_witness()


def overlapping_matches(t: InvolutionTuple) -> Optional[OverlapWitness]:
    """The first overlapping match of ``t``; see :func:`_overlap_witness`."""
    return match_graph(t).overlap_witness()


def midpoint_property(t: InvolutionTuple) -> MidpointResult:
    """The midpoint property of ``t``; the one-tuple case of :func:`_midpoints`."""
    return _midpoints(_agreeing_pairs(t.images[None], shared=True)[1])[0]


def match_statistic(t: InvolutionTuple) -> int:
    """Total number of shared orbits over all coordinate pairs of ``t``.

    A black edge with coordinates ``cs`` is shared by C(|cs|, 2) pairs, so
    the total equals the black-edge count exactly without triple matchings.
    The one-tuple case of ``_shared_orbit_count``.
    """
    return int(_shared_orbit_count(t.images[None])[0])


def structure_set_from_tuple(t: InvolutionTuple) -> StructureSet:
    """The structure set with B-side local involutions exactly ``t.entries``."""
    return match_graph(t).structure_set()


def _agreeing_pairs(
    imgs: np.ndarray, shared: bool = False
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The coordinate pairs agreeing at the points of a (B, m, n) image array.

    Coordinates i != j agree at point k when they send k to the same point,
    i.e. they share the orbit of a black edge at k.  Returns the (B, n)
    number of agreeing pairs i < j at each point and, if ``shared``, the
    (B, m, m) shared-orbit matrix S: S[b, i, j] = 1 when i != j agree at
    some point.
    """
    size, m, n = imgs.shape
    counts = np.zeros((size, n), dtype=np.int32)
    matrix = np.zeros((size, m, m), dtype=np.int64) if shared else None
    agree = np.empty((size, n), dtype=bool)
    for i, j in itertools.combinations(range(m), 2):
        np.equal(imgs[:, i], imgs[:, j], out=agree)
        counts += agree
        if shared:
            matrix[:, i, j] = matrix[:, j, i] = agree.any(axis=1)
    return counts, matrix


def _first(mask: np.ndarray) -> np.ndarray:
    """The first true column of each row of a (B, n) mask, or -1 where none is."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), -1)


def _triples(imgs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first 0-based point where three coordinates agree, per tuple, or -1.

    Three coordinates agreeing at a point make three agreeing pairs there
    (``counts`` of :func:`_agreeing_pairs`); only those points' columns are
    sorted, equal neighbours side by side.  The first point of a triple
    matching is the lower end of its edge.
    """
    hb, hk = np.nonzero(counts >= 3)
    column = np.sort(imgs[hb, :, hk], axis=1)
    hit = (column[:, 2:] == column[:, :-2]).any(axis=1)
    mask = np.zeros(counts.shape, dtype=bool)
    mask[hb[hit], hk[hit]] = True
    return _first(mask)


def _black_edges(imgs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The black edges of a (B, m, n) image array as rows ``(b, k, l)``.

    Each edge once, 0-based with k < l, sorted: the equal neighbours in the
    sorted columns of the points where pairs agree (``counts`` of
    :func:`_agreeing_pairs`), deduplicated by one sort of their codes.
    """
    n = imgs.shape[2]
    hb, hk = np.nonzero(counts)
    column = np.sort(imgs[hb, :, hk], axis=1)
    at, r = np.nonzero(column[:, 1:] == column[:, :-1])
    eb, ek, el = hb[at], hk[at], column[at, r] - 1
    code = np.sort(((eb * n + ek) * n + el)[ek < el])
    code = code[np.diff(code, prepend=-1) != 0]
    return np.stack([code // (n * n), code // n % n, code % n], axis=1)


def _runs(column: np.ndarray, length: int) -> list[list[int]]:
    """The 1-based coordinates, in order, of each value a column holds ``length`` times or more."""
    values, counts = np.unique(column, return_counts=True)
    return [(np.flatnonzero(column == v) + 1).tolist() for v in values[counts >= length]]


def _triple_witness(images: np.ndarray, k: int) -> Optional[TripleWitness]:
    """The triple matching of an (m, n) image array at its first such point k.

    k is 0-based (from :func:`_triples`), and -1 gives None.  The witness is
    lexicographically first in ``(k, i, j, p)``: the least first three
    coordinates of a run of three or more equal neighbours in column k.
    """
    if k < 0:
        return None
    return TripleWitness(k + 1, min(tuple(run[:3]) for run in _runs(images[:, k], 3)))


def _overlap_witness(images: np.ndarray, k: int) -> Optional[OverlapWitness]:
    """The overlapping match of an (m, n) image array at its first such point k.

    k is 0-based, and -1 gives None.  The pairs agreeing at k are those of
    each run of equal neighbours in column k, and the two pairs may
    intersect.  The witness holds the two smallest, which are among the
    first two pairs of each run.
    """
    if k < 0:
        return None
    pairs = sorted((run[0], c) for run in _runs(images[:, k], 2) for c in run[1:3])
    return OverlapWitness(k + 1, pairs[0], pairs[1])


def _a_parts(images: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The (B, m, n) a-parts of structure sets, from black edges ``(b, k, l)``.

    Cell (c, k) of a black edge {k, l} is paired with (c', l), c' being the
    edge's other coordinate, so the a-part of row c is c' at both ends and c
    elsewhere.  The edges' tuples need no triple matchings; a tuple with no
    edge listed keeps each row's own coordinate.
    """
    size, m, n = images.shape
    a_part = np.broadcast_to(np.arange(1, m + 1)[:, None], (size, m, n)).copy()
    b, k, l = edges.T
    agree = images[b, :, k] == l[:, None] + 1  # (E, m): the edge's two coordinates
    c, c2 = agree.argmax(axis=1), m - 1 - agree[:, ::-1].argmax(axis=1)
    for end in (k, l):
        a_part[b, c, end], a_part[b, c2, end] = c2 + 1, c + 1
    return a_part


def _midpoints(shared: np.ndarray) -> list[MidpointResult]:
    """The midpoint property of each tuple, from its (B, m, m) shared-orbit matrix.

    For every i != i', some third coordinate shares an orbit with both.  The
    middle coordinate j is required to differ from i and i'; this is the
    reading under which the property, together with no triple matchings and
    no overlapping matches, forces the A-side local action to be the full
    symmetric group.  S having an empty diagonal, the pair i < i' fails when
    (S·S)[i, i'] = 0; the witness is the first failing pair in
    ``triu_indices`` order.
    """
    m = shared.shape[1]
    if m < 3:
        raise ArityError("midpoint property needs at least 3 coordinates")
    i, j = np.triu_indices(m, 1)
    fails = (shared @ shared)[:, i, j] == 0
    i, j = (i + 1).tolist(), (j + 1).tolist()
    return [
        MidpointResult(False, (i[p], j[p])) if failed else MidpointResult(True)
        for failed, p in zip(fails.any(axis=1).tolist(), fails.argmax(axis=1).tolist())
    ]


def white_ball_vertex(graph: MatchGraph, radius: int) -> Optional[int]:
    """Smallest vertex whose closed ball of the given radius is all white.

    The one-tuple case of :func:`_white_balls`.
    """
    edges = _black_edges(graph.images[None], graph.pairs_at)
    return _white_balls(graph.images[None], edges, radius)[0]


def _row_bytes(bits: int) -> int:
    """Bytes of a bitset row of at least ``bits`` bits: 1, 2 or 4, or a multiple of 8.

    numpy gathers rows of such widths a word at a time; a 5-byte row is
    copied as bytes, at over twice the cost.
    """
    width = -(-bits // 8)
    return 1 << (width - 1).bit_length() if width <= 4 else -(-width // 8) * 8


def _white_balls(images: np.ndarray, edges: np.ndarray, radius: int) -> list[Optional[int]]:
    """:func:`white_ball_vertex` of each tuple of a (B, m, n) image array.

    ``edges`` holds the black edges as rows ``(b, k, l)``: tuple b and the
    0-based endpoints, sorted by b.  An edge lies in the closed ball of a
    vertex when both endpoints are within ``radius`` of it, so a vertex is
    disqualified exactly when it is within ``radius`` of both endpoints of
    some black edge.  The balls around all endpoints grow together on one
    graph of B*n points, tuple b's offset by b*n: bit j of ``reach[x]`` is
    set once x is within the current distance of its tuple's endpoint j,
    and each step ORs in the rows of x's neighbours, one gather per
    coordinate, until no ball grows.  The rows are padded to whole words
    (:func:`_row_bytes`), so each gather copies words.  Each tuple's edges
    run in blocks, at most ``_CHUNK_ENTRIES`` points x endpoint bits per
    block.
    """
    if radius < 0:
        raise RangeError("radius must be non-negative")
    size, m, n = images.shape
    neighbours = images - 1 + np.arange(0, size * n, n)[:, None, None]
    neighbours = neighbours.transpose(1, 0, 2).reshape(m, size * n)
    contaminated = np.zeros((size, n), dtype=bool)
    rank = np.arange(len(edges)) - np.searchsorted(edges[:, 0], edges[:, 0])  # within its tuple
    per_block = max(1, _CHUNK_ENTRIES // (2 * size * n))
    for first in range(0, int(rank.max(initial=-1)) + 1, per_block):
        block = edges[(rank >= first) & (rank < first + per_block)]
        points, endpoint = np.unique(block[:, :1] * n + block[:, 1:], return_inverse=True)
        owner = points // n
        j = np.arange(len(points)) - np.searchsorted(owner, owner)  # numbered per tuple
        bits = int(j.max()) + 1
        reach = np.zeros((size * n, _row_bytes(bits)), dtype=np.uint8)
        reach[points, j // 8] = np.left_shift(1, j % 8)
        gathered = np.empty_like(reach)
        for _ in range(radius):
            grown = reach.copy()
            for row in neighbours:
                # every index is in range; "clip" fills ``out`` without the
                # buffer that "raise" copies through
                grown |= reach.take(row, axis=0, out=gathered, mode="clip")
            if np.array_equal(grown, reach):
                break
            reach = grown
        balls = np.unpackbits(reach, axis=1, count=bits, bitorder="little").view(bool)
        balls = balls.reshape(size, n, bits)
        b = block[:, 0]
        u, v = j[endpoint.reshape(-1, 2)].T
        starts = np.flatnonzero(np.diff(b, prepend=-1))
        hit = np.logical_or.reduceat(balls[b, :, u] & balls[b, :, v], starts, axis=0)
        contaminated[b[starts]] |= hit
    white = (np.argmin(contaminated, axis=1) + 1).tolist()
    return [None if gone else w for gone, w in zip(contaminated.all(axis=1).tolist(), white)]


# -- certificates ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Everything the pipeline can certify about one tuple.

    Local-action classifications are None when no structure set exists
    (triple matchings present); tri-state fields inside the classifications
    use None for "unknown".  Conclusions are derived properties, recomputed
    from the certificate fields.
    """

    m: int
    n: int
    radius: int
    no_triple_matchings: bool
    triple_witness: Optional[TripleWitness]
    no_overlapping_matches: bool
    overlap_witness: Optional[OverlapWitness]
    midpoint: Optional[bool]  # None when m < 3 (property inapplicable)
    midpoint_witness: Optional[tuple[int, int]]
    white_ball_vertex: Optional[int]
    connected: bool
    has_black_edge: bool
    match_statistic: int
    a_local: Optional[GroupClassification]
    b_local: Optional[GroupClassification]

    @property
    def a_local_symmetric_predicted(self) -> bool:
        return bool(
            self.no_triple_matchings
            and self.no_overlapping_matches
            and self.midpoint is True
        )

    @property
    def a_local_two_transitive(self) -> bool:
        return self.a_local is not None and self.a_local.is_two_transitive is True

    @property
    def irreducible_certified(self) -> bool:
        return bool(
            self.no_triple_matchings
            and self.white_ball_vertex is not None
            and self.connected
            and self.has_black_edge
            and self.a_local_two_transitive
        )

    @property
    def hji_certified(self) -> bool:
        return bool(
            self.irreducible_certified
            and self.m >= 6
            and self.n >= 6
            and self.a_local is not None
            and self.a_local.contains_alternating is True
            and self.b_local is not None
            and self.b_local.contains_alternating is True
        )

    def to_dict(self) -> dict:
        def tri(v):
            return "unknown" if v is None else v

        return {
            "m": self.m,
            "n": self.n,
            "radius": self.radius,
            "certificates": {
                "no_triple_matchings": self.no_triple_matchings,
                "triple_witness": (
                    None
                    if self.triple_witness is None
                    else {
                        "point": self.triple_witness.point,
                        "coords": list(self.triple_witness.coords),
                    }
                ),
                "no_overlapping_matches": self.no_overlapping_matches,
                "overlap_witness": (
                    None
                    if self.overlap_witness is None
                    else {
                        "point": self.overlap_witness.point,
                        "pairs": [
                            list(self.overlap_witness.first),
                            list(self.overlap_witness.second),
                        ],
                    }
                ),
                "midpoint": tri(self.midpoint),
                "midpoint_witness": (
                    None if self.midpoint_witness is None else list(self.midpoint_witness)
                ),
                "white_ball_vertex": self.white_ball_vertex,
                "connected": self.connected,
                "has_black_edge": self.has_black_edge,
                "match_statistic": self.match_statistic,
                "a_local": None if self.a_local is None else self.a_local.to_dict(),
                "b_local": None if self.b_local is None else self.b_local.to_dict(),
            },
            "conclusions": {
                "a_local_symmetric_predicted": self.a_local_symmetric_predicted,
                "irreducible_certified": self.irreducible_certified,
                "hereditarily_just_infinite_certified": self.hji_certified,
            },
            "thresholds": {
                "n_gt_m5": self.n > self.m**5,
                "n_gt_m8": self.n > self.m**8,
            },
        }


def irr_certificate(
    t: InvolutionTuple,
    radius: int = DEFAULT_BALL_RADIUS,
    *,
    rng: Optional[RngState] = None,
    exact_max_degree: int = DEFAULT_EXACT_MAX_DEGREE,
    jordan_words: int = DEFAULT_JORDAN_WORDS,
    jordan_word_len: int = DEFAULT_JORDAN_WORD_LEN,
    order_guard: int = DEFAULT_ORDER_GUARD,
) -> CertificateReport:
    """Evaluate every certificate for one tuple.

    The ball radius for the white-ball condition is a parameter because the
    default 6 is tied to the stabilizer indices of the Trofimov-Weiss
    criterion.  When triple matchings prevent a structure set, the local
    classifications are omitted and dependent certificates read unknown.
    ``order_guard`` bounds the degree of both classifications' exact chains.
    """
    return _certificates(
        t.images[None],
        radius,
        rng=rng,
        exact_max_degree=exact_max_degree,
        jordan_words=jordan_words,
        jordan_word_len=jordan_word_len,
        order_guard=order_guard,
    )[0]


def _certificates(
    images: np.ndarray,
    radius: int,
    *,
    rng: Optional[RngState] = None,
    exact_max_degree: int = DEFAULT_EXACT_MAX_DEGREE,
    jordan_words: int = DEFAULT_JORDAN_WORDS,
    jordan_word_len: int = DEFAULT_JORDAN_WORD_LEN,
    order_guard: int = DEFAULT_ORDER_GUARD,
) -> list[CertificateReport]:
    """:func:`irr_certificate` of each tuple of a checked (B, m, n) image array.

    The front is read off the whole array.  The coordinate pairs agreeing
    at each point (:func:`_agreeing_pairs`) give the flags, the statistic
    and the shared-orbit matrix that decides the midpoints
    (:func:`_midpoints`); the sorted columns of the points where pairs agree
    give the black edges (:func:`_black_edges`) for :func:`_white_balls` and
    :func:`_a_parts`.  Each witness reads one column of its tuple, at the
    first point where three coordinates, or two pairs, agree.

    A side, by theorem: with no triple matching, the generator at point k is
    the product of the disjoint transpositions (c c') of the black edges at
    k.  When every black edge is the only one at one of its ends, each of
    them is a generator, so the group is generated by transpositions and is
    the product of Sym(O) over the components O of the shared-orbit graph
    (Dixon-Mortimer, *Permutation Groups*, 3.3); one classification serves
    each partition of m into component sizes.  A tuple with a black edge
    overlapped at both ends, or any tuple when m exceeds
    ``exact_max_degree``, is classified from its a-parts instead.

    The B sides are classified together.  Their groups view one zero-based
    copy of the images, and one hash of all their rows finds the few tuples
    with a repeated row
    (:meth:`~bmwgroups.permgroup.PermutationGroup._batch_from_images0`).
    Their transitivity comes from one orbit labelling, and their parity and
    Jordan words from one block-diagonal stack for every group with the same
    number of distinct rows (:func:`~bmwgroups.permgroup._classify_groups`).
    Their generator entries are what the caller bounds.  An explicit ``rng``
    serves one tuple.
    """
    size, m, n = images.shape
    pairs_at, shared = _agreeing_pairs(images, shared=True)
    triple_at, overlap_at = _triples(images, pairs_at), _first(pairs_at >= 2)
    triple = triple_at >= 0
    edges = _black_edges(images, pairs_at)
    mid = _midpoints(shared) if m >= 3 else None

    # the A sides: by theorem, or from the a-parts
    doubly = np.zeros(size, dtype=bool)
    doubly[edges[(pairs_at[edges[:, :1], edges[:, 1:]] >= 2).all(axis=1), 0]] = True
    by_parts = ~triple & (doubly | (m > exact_max_degree))
    a_parts = _a_parts(images, edges[by_parts[edges[:, 0]]])
    reach = shared.astype(bool) | np.eye(m, dtype=bool)
    for _ in range((m - 1).bit_length()):
        reach = reach @ reach
    partitions = map(tuple, np.sort(reach.sum(axis=2), axis=1).tolist())
    triple, by_parts = triple.tolist(), by_parts.tolist()
    guards = dict(order_guard=order_guard, exact_max_degree=exact_max_degree)
    classified: dict = {}  # by partition, or by tuple for the a-parts
    a_local = []
    for b, sizes in enumerate(partitions):
        key = b if by_parts[b] else sizes
        if not triple[b] and key not in classified:
            a_group = (
                PermutationGroup._from_images0(m, a_parts[b].T - 1)
                if by_parts[b]
                else _symmetric_product(sizes)
            )
            classified[key] = a_group.classify("auto", **guards)
        a_local.append(None if triple[b] else classified[key])
    whites = _white_balls(images, edges, radius)
    statistic, black = (pairs_at.sum(axis=1) // 2).tolist(), pairs_at.any(axis=1).tolist()
    triple_at, overlap_at = triple_at.tolist(), overlap_at.tolist()
    del pairs_at, shared, reach, a_parts  # before the B sides' stacks

    # The group of a tuple's rows is transitive exactly when the match graph
    # is connected; without triple matchings it is the B-side local action.
    b_groups = PermutationGroup._batch_from_images0(n, images - 1)
    _mark_transitive(b_groups)
    b_cls = iter(
        _classify_groups(
            [g for g, t in zip(b_groups, triple) if not t],
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
            m=m,
            n=n,
            radius=radius,
            no_triple_matchings=not triple[b],
            triple_witness=_triple_witness(images[b], triple_at[b]),
            no_overlapping_matches=overlap_at[b] < 0,
            overlap_witness=_overlap_witness(images[b], overlap_at[b]),
            midpoint=None if mid is None else mid[b].holds,
            midpoint_witness=None if mid is None else mid[b].failing,
            white_ball_vertex=whites[b],
            connected=g.is_transitive(),
            has_black_edge=black[b],
            match_statistic=statistic[b],
            a_local=a_local[b],
            b_local=None if triple[b] else next(b_cls),
        )
        for b, g in enumerate(b_groups)
    ]


def _symmetric_product(sizes: Sequence[int]) -> PermutationGroup:
    """Sym(O_1) x Sym(O_2) x ... on blocks O of consecutive points.

    ``sizes`` lists each point's block size in increasing order, so each
    block starts where the one before ends; its adjacent transpositions
    generate its symmetric group.
    """
    m, rows, start = len(sizes), [], 0
    while start < m:
        ends = range(start, start + sizes[start] - 1)
        rows += [[*range(q), q + 1, q, *range(q + 2, m)] for q in ends]
        start += sizes[start]
    return PermutationGroup._from_images0(m, np.array(rows, dtype=np.int64).reshape(-1, m))


# -- exact probabilities ----------------------------------------------------------------------


class OrbitShareProbability(NamedTuple):
    exact: Fraction
    value: float


def exact_orbit_share_prob(n: int) -> OrbitShareProbability:
    """Probability that two uniform elements of F_n share an orbit.

    Inclusion-exclusion over the orbits of the first involution:
    sum_{k=1}^{n/2} (-1)^(k+1) C(n/2, k) (n-2k-1)!!/(n-1)!!, with the
    convention (-1)!! = 1 covering the last term.  Converges to
    1 - exp(-1/2) as n grows.
    """
    _check_even(n)
    r = n // 2
    # One pass over k = r .. 1 on the common denominator (n-1)!!: ``comb`` is
    # C(r, k) and ``df`` is (n-2k-1)!!, which ends as (n-1)!!.
    numerator, comb, df = 0, 1, 1
    for k in range(r, 0, -1):
        numerator += comb * df if k % 2 else -comb * df
        comb = comb * k // (r - k + 1)
        df *= n - 2 * k + 1
    total = Fraction(numerator, df)
    return OrbitShareProbability(total, float(total))


def expected_match_statistic(m: int, n: int) -> Fraction:
    """Exact mean of the shared-orbit statistic: C(m,2) * n / (2(n-1))."""
    _check_even(n)
    return Fraction(math.comb(m, 2) * n, 2 * (n - 1))


class CapraceValues(NamedTuple):
    """Integer members of the degree-exclusion list, plus flagged non-integers."""

    values: frozenset[int]
    non_integer: tuple[Fraction, ...]


def caprace_exceptional_set(m: int) -> CapraceValues:
    """The eight degree values excluded by Caprace's boundary-transitivity
    theorem, evaluated exactly at ``m``.

    For small ``m`` some of the eight expressions are not integers; they are
    reported separately rather than rounded.
    """
    if m < 2:
        raise RangeError("m must be at least 2")
    mf = Fraction(math.factorial(m))
    pf = Fraction(math.factorial(m - 1))
    exprs = (
        mf / 2 - 1,
        mf / 2,
        mf - 1,
        mf * pf / 4 - 1,
        mf * pf / 4,
        mf * pf / 2 - 1,
        mf * pf / 2,
        mf * pf - 1,
    )
    ints = frozenset(int(v) for v in exprs if v.denominator == 1)
    flagged = tuple(sorted(v for v in exprs if v.denominator != 1))
    return CapraceValues(ints, flagged)


# -- Monte Carlo / exhaustive estimation --------------------------------------------------------


class McStat(NamedTuple):
    mean: float
    std_error: float


@dataclass
class McResult:
    """Estimate document for one estimation run."""

    kind: str
    m: Optional[int]
    n: int
    trials: int
    seed: Optional[int]
    mode: str  # "sampling" | "enumeration"
    stats: dict = field(default_factory=dict)  # name -> McStat
    exact: dict = field(default_factory=dict)  # name -> float
    exact_repr: dict = field(default_factory=dict)  # name -> exact rational as text
    bounds: dict = field(default_factory=dict)

    def primary(self) -> McStat:
        if self.kind not in _STATISTICS:
            raise UsageError(f"{self.kind} has no primary estimand, only {tuple(self.stats)}")
        return self.stats[_STATISTICS[self.kind][0]]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "estimates": {
                k: {"mean": s.mean, "std_error": s.std_error}
                for k, s in self.stats.items()
            },
            "exact": dict(self.exact),
            "exact_repr": dict(self.exact_repr),
            "bounds": dict(self.bounds),
        }


# Per-tuple statistics of the batched kinds, each over a (B, m, n) image
# array; the estimand is the mean of the returned column.


def _shares_orbit(imgs: np.ndarray) -> np.ndarray:
    return (imgs[:, 0, :] == imgs[:, 1, :]).any(axis=1)


def _shared_orbit_count(imgs: np.ndarray) -> np.ndarray:
    return _agreeing_pairs(imgs)[0].sum(axis=1) // 2


def _has_triple_matching(imgs: np.ndarray) -> np.ndarray:
    return _triples(imgs, _agreeing_pairs(imgs)[0]) >= 0


def _has_overlap(imgs: np.ndarray) -> np.ndarray:
    return (_agreeing_pairs(imgs)[0] >= 2).any(axis=1)


_STATISTICS = {  # kind -> (estimand name, column)
    "orbit_share": ("share_probability", _shares_orbit),
    "expected_M": ("mean_shared_orbits", _shared_orbit_count),
    "triple_matching_rate": ("rate", _has_triple_matching),
    "overlap_rate": ("rate", _has_overlap),
}

# At most B trials per batch: at (6, 200) the sampler's trial-major (B, n)
# int64 slot array is then 0.8 MB and stays in a 2 MiB L2 through all
# m n / 2 step passes, and the statistic reads the 4.9 MB batch while it is
# still warm.  Eight times as many trials miss L2 on every pass and scatter;
# 1024 were slower per trial and 256 no faster.
_CHUNK = 512
# at most B m n image entries (64 MiB) per batch, n x endpoints per white-ball block
_CHUNK_ENTRIES = 1 << 23


def _image_batches(m: int, n: int, trials: int, rng: RngState) -> Iterator[np.ndarray]:
    """(B, m, n) image arrays of trials 0..trials-1, or of all (F_n)^m if 0."""
    chunk = min(_CHUNK, max(1, _CHUNK_ENTRIES // (m * n)))
    if trials:
        for first in range(0, trials, chunk):
            yield sample_tuple_images_batch(m, n, rng, first, min(chunk, trials - first))
        return
    pool = np.array([e.images for e in enumerate_fpf(n)], dtype=np.int64)
    combos = itertools.product(range(len(pool)), repeat=m)
    while True:
        block = np.array(list(itertools.islice(combos, chunk)), dtype=np.int64)
        if not block.size:
            return
        yield pool[block]


def _mean_se(values: np.ndarray) -> McStat:
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    if values.size < 2:
        return McStat(mean, 0.0)
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return McStat(mean, se)


def _certificate_flags(rep: CertificateReport) -> dict:
    return {
        "no_triple_matchings": rep.no_triple_matchings,
        "no_overlapping_matches": rep.no_overlapping_matches,
        "midpoint": rep.midpoint is True,
        "white_ball": rep.white_ball_vertex is not None,
        "connected": rep.connected,
        "has_black_edge": rep.has_black_edge,
        "a_local_two_transitive": rep.a_local_two_transitive,
        "a_local_symmetric": rep.a_local is not None
        and rep.a_local.equals_symmetric is True,
        "b_local_contains_alternating": rep.b_local is not None
        and rep.b_local.contains_alternating is True,
        "b_local_alternating_unknown": rep.b_local is not None
        and rep.b_local.contains_alternating is None,
        "irreducible_certified": rep.irreducible_certified,
        "hji_certified": rep.hji_certified,
    }


def _certificate_rates(imgs: np.ndarray, radius: int, order_guard: int) -> dict:
    """One bool column per certificate flag of a ``(B, m, n)`` batch."""
    _, m, n = imgs.shape
    # At most _CHUNK_ENTRIES / 64 generator entries (1 MiB) per B-side
    # stack keep its temporaries below the sampler's.
    piece = max(1, _CHUNK_ENTRIES // 64 // (m * n))
    rows = []
    for first in range(0, len(imgs), piece):
        part = imgs[first:first + piece]
        if not _fpf_rows(part.reshape(-1, n)):
            raise _row_fault(part.reshape(-1, n))
        rows += map(_certificate_flags, _certificates(part, radius, order_guard=order_guard))
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def _attach_closed_forms(result: McResult, kind: str, m: Optional[int], n: int) -> None:
    if kind == "orbit_share":
        exact = exact_orbit_share_prob(n)
        result.exact["share_probability"] = exact.value
        result.exact_repr["share_probability"] = str(exact.exact)
        result.bounds["limit"] = 1.0 - math.exp(-0.5)
    elif kind == "expected_M":
        exact = expected_match_statistic(m, n)
        result.exact["mean_shared_orbits"] = float(exact)
        result.exact_repr["mean_shared_orbits"] = str(exact)
    elif kind == "triple_matching_rate":
        result.bounds["rate_upper"] = 4 * m**3 / n
    elif kind == "overlap_rate":
        result.bounds["rate_upper"] = 4 * m**4 / n
    elif kind == "certificate_rates":
        result.bounds["no_triple_lower"] = max(0.0, 1 - 4 * m**3 / n)
        result.bounds["no_overlap_lower"] = max(0.0, 1 - 4 * m**4 / n)
        result.bounds["midpoint_lower"] = max(0.0, 1 - 2 * m**2 * (8 / 9) ** m)
        result.bounds["no_black_edge_upper"] = (2 / 3) ** (m - 1)
        if n > m**8:
            result.bounds["white_ball_lower"] = 1 - 1 / m


def monte_carlo(
    kind: str,
    m: Optional[int],
    n: int,
    trials: int,
    rng: RngState,
    *,
    radius: int = DEFAULT_BALL_RADIUS,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    order_guard: int = DEFAULT_ORDER_GUARD,
) -> McResult:
    """Estimate a model statistic, by sampling or by exhaustive enumeration.

    ``trials = 0`` switches to enumeration mode: the estimand is computed
    exactly over all of ``(F_n)^m`` (refused when that set exceeds
    ``enumeration_limit``).  Sampling mode derives one rng substream per
    trial from ``(seed, trial index)``, so results do not depend on batching
    or scheduling; the passed state itself is never advanced.

    Every kind is a batch statistic mapping one ``(B, m, n)`` batch to named
    columns: a batched kind's estimand (``_STATISTICS``), or one bool column
    per ``certificate_rates`` flag.  One loop concatenates and reduces them
    in both modes, so no batch outlives its statistic and memory is flat in
    the trials but for the columns.  ``radius`` and ``order_guard`` reach
    every :func:`irr_certificate` of ``certificate_rates``.
    """
    if kind not in MC_KINDS:
        raise UsageError(f"unknown kind {kind!r}; expected one of {MC_KINDS}")
    _check_even(n)
    if kind == "orbit_share":
        if m not in (None, 2):
            raise UsageError("orbit_share is a two-coordinate statistic")
        m_eff = 2
    else:
        if m is None or m < 1:
            raise UsageError(f"kind {kind!r} requires m >= 1")
        m_eff = m
    if trials < 0:
        raise UsageError("trials must be non-negative")

    if trials == 0:
        space = count_fpf(n) ** m_eff
        if space > enumeration_limit:
            raise ResourceError(
                f"enumeration over |F_{n}|^{m_eff} = {space} exceeds the limit"
                f" {enumeration_limit}"
            )
        result = McResult(kind, m, n, 0, None, "enumeration")
    else:
        result = McResult(kind, m, n, trials, rng.seed, "sampling")

    def statistic(imgs: np.ndarray) -> dict:
        if kind == "certificate_rates":
            return _certificate_rates(imgs, radius, order_guard)
        estimand, column = _STATISTICS[kind]
        return {estimand: column(imgs)}

    # map drops each batch before the next one is drawn, and no column refers to it
    parts = list(map(statistic, _image_batches(m_eff, n, trials, rng)))
    for name in parts[0]:
        values = np.concatenate([part[name] for part in parts])
        if trials == 0:
            frac = Fraction(int(values.sum()), len(values))
            result.stats[name] = McStat(float(frac), 0.0)
            result.exact_repr[name] = str(frac)
        else:
            result.stats[name] = _mean_se(values)
    _attach_closed_forms(result, kind, m_eff, n)
    return result
