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
its black edges with their coordinates, from one stable sort of each
column (at most two coordinates per edge span one square of the structure
set).  The triple and overlap witnesses, the midpoint check and the
shared-orbit statistic read the black edges; the white balls walk the
array, and connectivity is the transitivity of the group of its rows.  A
derived structure set's b-parts are the tuple's image array, and its
a-parts differ from the row's own coordinate only on black edges.  Every Monte-Carlo kind reads ``(B, m, n)`` batches of one sampler,
in memory-bounded chunks; ``certificate_rates`` classifies the B sides of
a chunk's tuples together, sharing their Jordan words.

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
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ArityError,
    DegreeError,
    RangeError,
    ResourceError,
    TripleMatchingError,
    UsageError,
)
from .perm import FpfInvolution, count_fpf, enumerate_fpf
from .permgroup import (
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

    @classmethod
    def from_images(cls, images: Sequence[Sequence[int]]) -> "InvolutionTuple":
        return cls(images)

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
    points = np.arange(1, table.shape[1] + 1)
    if table.min() < 1 or table.max() > len(points):
        return False
    back = np.take_along_axis(table, table - 1, axis=1)
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
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")


def sample_tuple(m: int, n: int, rng: RngState) -> InvolutionTuple:
    """m independent uniform fixed-point-free involutions, one rng stream.

    Coordinate ``c`` makes the ``n/2`` ``randbelow`` calls of
    :func:`~bmwgroups.perm.random_fpf_images` after those of the coordinates
    before it; step ``s`` has bound ``n - 1 - 2s``.  The whole tuple is a
    pure function of the rng seed.  All ``m * n/2`` calls are made by one
    :meth:`~bmwgroups.rng.RngState.randbelow_block`, so only the slot swaps
    run in Python.
    """
    _check_shape(m, n)
    steps = n // 2
    bounds = np.tile(np.arange(n - 1, 0, -2), m)
    targets = rng.randbelow_block(bounds).reshape(m, steps) + np.arange(1, n, 2)
    slots = []
    for row in targets.tolist():
        s = list(range(n))
        for a, j in zip(range(1, n, 2), row):
            s[a], s[j] = s[j], s[a]
        slots.append(s)
    slots = np.array(slots, dtype=np.int64)
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
    at once, in one ``(n, count)`` slot array: slot ``i`` of trial ``t``
    sits at flat position ``i * count + t``.  The pairs are then scattered
    straight into the output.  A trial whose draws hit the rejection branch
    in any coordinate shifts the draws of the later coordinates, so it is
    recomputed whole with :func:`sample_tuple`.
    """
    _check_shape(m, n)
    seeds = rng.derived_seeds(first_trial, count)
    steps = n // 2
    bounds = np.arange(n - 1, 0, -2)
    trials = np.arange(count)
    out = np.empty((count, m, n), dtype=np.int64)
    flat_out = out.reshape(-1)  # out[t, c, i] is flat_out[(t * m + c) * n + i]
    rejected = np.zeros(count, dtype=bool)
    slots = np.empty(n * count, dtype=np.int64)
    rows = slots.reshape(n, count)
    for c in range(m):
        draws, hit = randbelow_draft(seeds, c * steps, bounds)
        rejected |= hit
        rows[:] = np.arange(n)[:, None]
        for a, drawn in zip(range(1, n, 2), draws.T):
            at = (drawn + a) * count + trials
            partner = slots.take(at)
            slots[at] = rows[a]
            rows[a] = partner
        start = (trials * m + c) * n
        flat_out[rows[0::2] + start] = rows[1::2] + 1
        flat_out[rows[1::2] + start] = rows[0::2] + 1
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
    ``black_coords`` maps each black edge ``(k, l)``, ``k < l``, in order, to
    the coordinates sending k to l, in order: the coordinates agreeing at a
    point are exactly those of one black edge at it.
    """

    __slots__ = ("m", "n", "images", "black_coords")

    def __init__(self, t: InvolutionTuple):
        self.m, self.n, self.images = t.m, t.n, t.images
        # Sorted, column k lists the neighbours of point k + 1 with equal ones
        # side by side and, the sort being stable, their coordinates in order.
        # A black edge is read once, at its lower end.
        order = np.argsort(t.images, axis=0, kind="stable")
        ends = np.take_along_axis(t.images, order, axis=0)
        ks, rs = np.nonzero(((ends[1:] == ends[:-1]) & (ends[1:] > np.arange(1, self.n + 1))).T)
        black: dict[tuple[int, int], list[int]] = {}
        for k, l, c, c2 in zip(
            ks.tolist(), ends[rs, ks].tolist(), order[rs, ks].tolist(), order[rs + 1, ks].tolist()
        ):
            black.setdefault((k + 1, l), [c + 1]).append(c2 + 1)
        self.black_coords = {edge: tuple(cs) for edge, cs in black.items()}

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges ``(k, l)``, ``k < l``, in order, built on each call."""
        pairs = {(k, l) for row in self.images.tolist() for k, l in enumerate(row, 1) if k < l}
        return tuple(sorted(pairs))

    def black_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.black_coords)

    def white_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for e in self.edges() if e not in self.black_coords)

    def triple_witness(self) -> Optional[TripleWitness]:
        """First (point, coordinate triple) with three coordinates agreeing.

        Witnesses are lexicographically first in ``(k, i, j, p)``; None when
        there is no triple matching (always, for m < 3).  The first point of
        a triple matching is the lower end of its edge, so the witness is the
        least ``(k, cs[:3])`` over edges with three or more coordinates.
        """
        return min(
            (TripleWitness(k, cs[:3]) for (k, _), cs in self.black_coords.items() if len(cs) >= 3),
            default=None,
        )

    def overlap_witness(self) -> Optional[OverlapWitness]:
        """First point where two distinct coordinate pairs agree.

        The pairs agreeing at a point are those of the black edges at it; the
        two pairs may intersect.  The witness holds the two smallest pairs.
        """
        pairs_at: dict[int, list[tuple[int, int]]] = {}
        for (k, l), cs in self.black_coords.items():
            pairs = list(itertools.combinations(cs, 2))
            pairs_at.setdefault(k, []).extend(pairs)
            pairs_at.setdefault(l, []).extend(pairs)
        point = min((p for p, pairs in pairs_at.items() if len(pairs) >= 2), default=None)
        if point is None:
            return None
        first, second = sorted(pairs_at[point])[:2]
        return OverlapWitness(point, first, second)

    def midpoint(self) -> MidpointResult:
        """For every i != i', some third coordinate shares an orbit with both.

        The middle coordinate j is required to differ from i and i'; this is
        the reading under which the property, together with no triple
        matchings and no overlapping matches, forces the A-side local action
        to be the full symmetric group.  Two coordinates share an orbit
        exactly when they lie on a common black edge.
        """
        m = self.m
        if m < 3:
            raise ArityError("midpoint property needs at least 3 coordinates")
        shared = [[i == j for j in range(m)] for i in range(m)]
        for cs in self.black_coords.values():
            for i, j in itertools.combinations(cs, 2):
                shared[i - 1][j - 1] = shared[j - 1][i - 1] = True
        for i, i2 in itertools.combinations(range(m), 2):
            if not any(shared[i][j] and shared[j][i2] for j in range(m) if j not in (i, i2)):
                return MidpointResult(False, (i + 1, i2 + 1))
        return MidpointResult(True, None)

    def match_statistic(self) -> int:
        """Total number of shared orbits over all coordinate pairs.

        A black edge with coordinates ``cs`` is shared by C(|cs|, 2) pairs,
        so the total equals the black-edge count exactly without triple
        matchings.
        """
        return sum(math.comb(len(cs), 2) for cs in self.black_coords.values())

    def structure_set(self) -> StructureSet:
        """The structure set with B-side local involutions the tuple's entries.

        Each edge ``{k < l}`` spans one square: cell ``(c, k)`` is paired with
        ``(c', l)``, c' being the edge's other coordinate, or c on a white
        edge.  The b-parts are thus the tuple's image array, and the a-parts
        of row c are c except on black edges.  An edge with three coordinates
        raises TripleMatchingError.
        """
        if any(len(cs) >= 3 for cs in self.black_coords.values()):
            raise TripleMatchingError(self.triple_witness())
        # valid by construction, so the laws are not checked again
        return _frozen(StructureSet, np.stack([self._a_parts(), self.images], axis=-1))

    def _a_parts(self) -> np.ndarray:
        """The (m, n) a-parts of the structure set; needs no triple matchings."""
        a_part = np.repeat(np.arange(1, self.m + 1)[:, None], self.n, axis=1)
        for (k, l), (c, c2) in self.black_coords.items():
            a_part[c - 1, [k - 1, l - 1]] = c2
            a_part[c2 - 1, [k - 1, l - 1]] = c
        return a_part

    def is_connected(self) -> bool:
        """Whether the group generated by the tuple's rows is transitive.

        Its orbits are the components of the graph.
        """
        return PermutationGroup._from_images0(self.n, self.images - 1).is_transitive()


def match_graph(t: InvolutionTuple) -> MatchGraph:
    return MatchGraph(t)


def triple_matchings(t: InvolutionTuple) -> Optional[TripleWitness]:
    """The first triple matching of ``t``; see :meth:`MatchGraph.triple_witness`."""
    return match_graph(t).triple_witness()


def overlapping_matches(t: InvolutionTuple) -> Optional[OverlapWitness]:
    """The first overlapping match of ``t``; see :meth:`MatchGraph.overlap_witness`."""
    return match_graph(t).overlap_witness()


def midpoint_property(t: InvolutionTuple) -> MidpointResult:
    """The midpoint property of ``t``; see :meth:`MatchGraph.midpoint`."""
    return match_graph(t).midpoint()


def match_statistic(t: InvolutionTuple) -> int:
    """Shared orbits of ``t``; see :meth:`MatchGraph.match_statistic`."""
    return match_graph(t).match_statistic()


def structure_set_from_tuple(t: InvolutionTuple) -> StructureSet:
    """The structure set with B-side local involutions exactly ``t.entries``."""
    return match_graph(t).structure_set()


def white_ball_vertex(graph: MatchGraph, radius: int) -> Optional[int]:
    """Smallest vertex whose closed ball of the given radius is all white.

    An edge lies in the closed ball of b when both endpoints are within
    ``radius`` of b, so a vertex is disqualified exactly when it is within
    ``radius`` of both endpoints of some black edge.  The balls around all
    endpoints grow together: bit j of ``reach[x]`` is set once x is within
    the current distance of endpoint j, and each step ORs in the rows of x's
    neighbours, one gather per coordinate, until no ball grows.  Edges run
    in blocks of at most ``_CHUNK_ENTRIES`` points x endpoints.
    """
    if radius < 0:
        raise RangeError("radius must be non-negative")
    n = graph.n
    ends = np.array(graph.black_edges(), dtype=np.int64).reshape(-1, 2) - 1
    neighbours = graph.images - 1
    contaminated = np.zeros(n, dtype=bool)
    per_block = max(1, _CHUNK_ENTRIES // (2 * n))
    for first in range(0, len(ends), per_block):
        points, endpoint = np.unique(ends[first:first + per_block], return_inverse=True)
        j = np.arange(len(points))
        reach = np.zeros((n, -(-len(points) // 8)), dtype=np.uint8)
        reach[points, j // 8] = np.left_shift(1, j % 8)
        gathered = np.empty_like(reach)
        for _ in range(radius):
            grown = reach.copy()
            for row in neighbours:
                grown |= reach.take(row, axis=0, out=gathered)
            if np.array_equal(grown, reach):
                break
            reach = grown
        balls = np.unpackbits(reach, axis=1, count=len(points), bitorder="little").view(bool)
        u, v = endpoint.reshape(-1, 2).T
        contaminated |= (balls[:, u] & balls[:, v]).any(axis=1)
        if contaminated.all():
            return None
    return int(np.argmin(contaminated)) + 1


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
    exact_max_degree: int = 128,
    jordan_words: int = 200,
    jordan_word_len: int = 100,
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
        [t],
        radius,
        rng=rng,
        exact_max_degree=exact_max_degree,
        jordan_words=jordan_words,
        jordan_word_len=jordan_word_len,
        order_guard=order_guard,
    )[0]


def _certificates(
    tuples: Iterable[InvolutionTuple],
    radius: int,
    *,
    rng: Optional[RngState] = None,
    exact_max_degree: int = 128,
    jordan_words: int = 200,
    jordan_word_len: int = 100,
    order_guard: int = DEFAULT_ORDER_GUARD,
) -> list[CertificateReport]:
    """:func:`irr_certificate` of each tuple, the B sides of all of them at once.

    The match-graph certificates and the A side are read one tuple at a time,
    and each tuple is dropped once read.  The B-side groups are then
    classified together: their transitivity by one orbit labelling, and their
    Jordan words composed once for every group with the same number of
    distinct rows (:func:`~bmwgroups.permgroup._classify_groups`).  Their
    generator entries are what the caller bounds.  An explicit ``rng``
    serves one tuple.
    """
    fronts, b_groups = [], []
    for t in tuples:
        graph = match_graph(t)
        triple = graph.triple_witness()
        overlap = graph.overlap_witness()
        mid = graph.midpoint() if t.m >= 3 else None
        a_cls = None
        if triple is None:
            # the A-side local involutions: the structure set's a-part columns
            a_group = PermutationGroup._from_images0(t.m, graph._a_parts().T - 1)
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
                white_ball_vertex=white_ball_vertex(graph, radius),
                has_black_edge=bool(graph.black_edges()),
                match_statistic=graph.match_statistic(),
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
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")
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
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")
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
        return self.stats[_PRIMARY_STAT[self.kind]]

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


_PRIMARY_STAT = {
    "orbit_share": "share_probability",
    "expected_M": "mean_shared_orbits",
    "triple_matching_rate": "rate",
    "overlap_rate": "rate",
}


# Per-tuple statistics of the batched kinds, each over a (B, m, n) image
# array; the estimand is the mean of the returned column.


def _shares_orbit(imgs: np.ndarray) -> np.ndarray:
    return (imgs[:, 0, :] == imgs[:, 1, :]).any(axis=1)


def _shared_orbit_count(imgs: np.ndarray) -> np.ndarray:
    m = imgs.shape[1]
    acc = np.zeros(len(imgs), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            acc += (imgs[:, i, :] == imgs[:, j, :]).sum(axis=1)
    return acc // 2


def _has_triple_matching(imgs: np.ndarray) -> np.ndarray:
    size, m, n = imgs.shape
    flag = np.zeros((size, n), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            eq_ij = imgs[:, i, :] == imgs[:, j, :]
            for p in range(j + 1, m):
                flag |= eq_ij & (imgs[:, j, :] == imgs[:, p, :])
    return flag.any(axis=1)


def _has_overlap(imgs: np.ndarray) -> np.ndarray:
    size, m, n = imgs.shape
    counts = np.zeros((size, n), dtype=np.int32)
    for i in range(m):
        for j in range(i + 1, m):
            counts += imgs[:, i, :] == imgs[:, j, :]
    return (counts >= 2).any(axis=1)


_STATISTICS = {
    "orbit_share": _shares_orbit,
    "expected_M": _shared_orbit_count,
    "triple_matching_rate": _has_triple_matching,
    "overlap_rate": _has_overlap,
}

_CHUNK = 4096  # at most B trials per batch
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
    ``order_guard`` reaches every :func:`irr_certificate` of
    ``certificate_rates``.
    """
    if kind not in MC_KINDS:
        raise UsageError(f"unknown kind {kind!r}; expected one of {MC_KINDS}")
    if n < 2 or n % 2:
        raise DegreeError("n must be even and at least 2")
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

    batches = _image_batches(m_eff, n, trials, rng)
    if kind == "certificate_rates":
        # At most _CHUNK_ENTRIES / 64 generator entries (1 MiB) per B-side
        # stack keep its temporaries below the sampler's.
        piece = max(1, _CHUNK_ENTRIES // 64 // (m_eff * n))
        rows = []
        for imgs in batches:
            for first in range(0, len(imgs), piece):
                reports = _certificates(
                    map(InvolutionTuple, imgs[first:first + piece]), radius, order_guard=order_guard
                )
                rows += map(_certificate_flags, reports)
            del imgs  # free the batch before the next one is drawn
        columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    else:
        # map drops each batch before the next one is drawn
        columns = {_PRIMARY_STAT[kind]: np.concatenate(list(map(_STATISTICS[kind], batches)))}
    for name, values in columns.items():
        if trials == 0:
            frac = Fraction(int(values.sum()), len(values))
            result.stats[name] = McStat(float(frac), 0.0)
            result.exact_repr[name] = str(frac)
        else:
            result.stats[name] = _mean_se(values)
    _attach_closed_forms(result, kind, m_eff, n)
    return result
