import collections
import functools
import hashlib
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import bmwgroups.permgroup as permgroup
import bmwgroups.randmodel as randmodel
from bmwgroups import formats
from bmwgroups.errors import (
    ArityError,
    DegreeError,
    RangeError,
    ResourceError,
    TripleMatchingError,
    UsageError,
)
from bmwgroups.perm import FpfInvolution, Permutation, enumerate_fpf
from bmwgroups.permgroup import PermutationGroup
from bmwgroups.randmodel import (
    InvolutionTuple,
    _certificate_flags,
    _image_batches,
    _mean_se,
    caprace_exceptional_set,
    exact_orbit_share_prob,
    expected_match_statistic,
    irr_certificate,
    match_graph,
    match_statistic,
    midpoint_property,
    monte_carlo,
    overlapping_matches,
    sample_tuple,
    sample_tuple_images_batch,
    structure_set_from_tuple,
    triple_matchings,
    white_ball_vertex,
)
from bmwgroups.rng import RngState
from bmwgroups.structure import StructureSet

from .lowered import lower_rejection_limits
from .oracles import (
    certificates_by_tuple,
    edge_colours_by_pairings,
    enumerate_tuples,
    involution_rows_fault,
    match_graph_connected_by_bfs,
    match_statistic_by_pairings,
    midpoint_by_pairings,
    overlapping_matches_by_scan,
    pairing,
    pairings,
    sample_tuple_by_scalar_loop,
    scalar_mc_values,
    structure_set_by_squares,
    triple_matchings_by_scan,
    white_ball_exists_by_bfs,
    white_edges,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def make_tuple(*perms):
    return InvolutionTuple([p.images for p in perms])


# The three-coordinate worked example on six points used throughout.
EXAMPLE = make_tuple(
    cyc(6, (1, 2), (3, 4), (5, 6)),
    cyc(6, (1, 2), (3, 5), (4, 6)),
    cyc(6, (1, 6), (3, 5), (2, 4)),
)

DISJOINT = make_tuple(
    cyc(12, (1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)),
    cyc(12, (1, 3), (2, 4), (5, 7), (6, 8), (9, 11), (10, 12)),
    cyc(12, (1, 4), (2, 3), (5, 8), (6, 7), (9, 12), (10, 11)),
)


class TestSampling:
    def test_replay_identical(self):
        t1 = sample_tuple(3, 6, RngState(7))
        t2 = sample_tuple(3, 6, RngState(7))
        assert [e.images for e in t1.entries] == [e.images for e in t2.entries]

    def test_rejects_odd_degree(self):
        with pytest.raises(DegreeError):
            sample_tuple(3, 5, RngState(0))

    def test_uniform_over_tuples(self):
        # 27 equally likely tuples at (3, 4); freq within 0.015 of 1/27
        counts = {}
        root = RngState(1009)
        trials = 27000
        for t in range(trials):
            tup = sample_tuple(3, 4, root.derive(t))
            key = tuple(e.images for e in tup.entries)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 27
        for c in counts.values():
            assert abs(c / trials - 1 / 27) < 0.015

    def test_coordinates_independent(self):
        # P(share(1,2) and share(1,3)) = P(share)^2 at n = 6, within 3 sigma
        p = float(exact_orbit_share_prob(6).exact)
        root = RngState(515)
        trials = 20000
        both = 0
        for t in range(trials):
            tup = sample_tuple(3, 6, root.derive(t))
            ps = pairings(tup)
            both += bool(ps[0] & ps[1]) and bool(ps[0] & ps[2])
        expected = p * p
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(both / trials - expected) <= 3 * sigma


class TestBlockSampler:
    """``sample_tuple`` draws the scalar loop's tuple from one block of words.

    Start indices vary, as when one stream draws several tuples in turn.
    """

    @staticmethod
    def _draw_both(m, n, seed, start):
        state, ref = RngState(seed, start), RngState(seed, start)
        tup = sample_tuple(m, n, state)
        assert tup.images.tolist() == sample_tuple_by_scalar_loop(m, n, ref)
        assert state.index == ref.index
        return state.index - start

    @pytest.mark.parametrize(
        "m, n, trials",
        [
            (1, 2, 50),
            (3, 10, 50),
            (12, 40, 50),
            (6, 200, 50),
            (6, 7778, 3),
            (1, 20000, 2),  # the longest single shuffle: the most swap rounds
            (2, 4, 400),  # draws of 0 (a step swapping a slot with itself) are frequent
            (3, 6, 400),
        ],
    )
    def test_equals_scalar_loop(self, m, n, trials):
        root = RngState(404)
        for t in range(trials):
            assert self._draw_both(m, n, root.derive(t).seed, 7 * t) == m * (n // 2)

    def test_equals_scalar_loop_on_the_rejection_branch(self, monkeypatch):
        # about one draw in 16 is rejected
        lower_rejection_limits(monkeypatch)
        root = RngState(405)
        advances = []
        for m, n, trials in ((1, 2, 50), (3, 10, 50), (12, 40, 50), (6, 200, 50), (6, 7778, 2)):
            for t in range(trials):
                used = self._draw_both(m, n, root.derive(t).seed, 5 * t)
                advances.append(used > m * (n // 2))
        assert sum(advances) > len(advances) // 4  # the fallback ran
        assert not all(advances)  # and so did the block path

    def test_block_path_makes_no_randbelow_call(self, monkeypatch):
        calls = []
        real = RngState.randbelow

        def counted(self, bound):
            calls.append(bound)
            return real(self, bound)

        monkeypatch.setattr(RngState, "randbelow", counted)
        for seed in range(20):
            state = RngState(seed)
            sample_tuple(6, 200, state)
            assert state.index == 600
        assert calls == []

    def test_errors_keep_their_order_and_messages(self):
        state = RngState(3)
        for n in (0, 3, 6):
            with pytest.raises(ArityError, match="^m must be positive$"):
                sample_tuple(0, n, state)
        for n in (0, 3, 7):
            with pytest.raises(DegreeError, match="^n must be even and at least 2$"):
                sample_tuple(2, n, state)
        assert state.index == 0


def _fault(images):
    """The (error type, message) of ``InvolutionTuple(images)``, or None."""
    try:
        InvolutionTuple(images)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestTupleArray:
    """A tuple is one read-only image array, checked by one vectorized test."""

    # Type and message of each malformed input, as raised before the tuple
    # became an array (one FpfInvolution per row, then the degree check).
    MALFORMED = [
        ([], ArityError, "at least one involution required"),
        ([[]], DegreeError, "degree must be positive"),
        ([[2, 1], [2, 1, 4, 3]], DegreeError, "entry degree mismatch"),
        ([[2, 1, 4, 3], [1]], DegreeError, "fixed-point-free involutions have even degree"),
        ([[2, 1, 3]], DegreeError, "fixed-point-free involutions have even degree"),
        ([[1, 2, 4, 3]], DegreeError, "point 1 is fixed"),
        ([[2, 1, 4, 3], [2, 1, 3, 4]], DegreeError, "point 3 is fixed"),
        ([[2, 2, 4, 3]], DegreeError, "[2, 2, 4, 3] is not a bijection of 1..4"),
        ([[2, 3, 4, 1]], DegreeError, "not an involution"),
        ([[0, 1, 4, 3]], DegreeError, "[0, 1, 4, 3] is not a bijection of 1..4"),
        ([[2, 1, 4, 5]], DegreeError, "[2, 1, 4, 5] is not a bijection of 1..4"),
        (
            [[2, 1, 4, 10**30]],
            DegreeError,
            "[2, 1, 4, 1000000000000000000000000000000] is not a bijection of 1..4",
        ),
        (
            [[2, 1, 4, -(10**30)]],
            DegreeError,
            "[2, 1, 4, -1000000000000000000000000000000] is not a bijection of 1..4",
        ),
    ]

    @pytest.mark.parametrize("images, error, message", MALFORMED)
    def test_malformed_images_keep_their_errors(self, images, error, message):
        assert _fault(images) == (error, message)

    def test_single_entry_mutations_match_the_row_checks(self):
        # every one-entry replacement, in range or not, of two small tuples
        checked = rejected = 0
        for tup in (sample_tuple(2, 4, RngState(8)), EXAMPLE):
            base = tup.images.tolist()
            for c, k in itertools.product(range(tup.m), range(tup.n)):
                for v in (-2 * tup.n, *range(-1, tup.n + 3)):
                    images = [list(row) for row in base]
                    images[c][k] = v
                    expected = involution_rows_fault(images)
                    assert _fault(images) == expected
                    checked += 1
                    rejected += expected is not None
        assert checked == 8 * 9 + 18 * 11 and rejected == checked - 8 - 18

    def test_images_are_one_read_only_array(self):
        src = sample_tuple(3, 8, RngState(3)).images.copy()
        tup = InvolutionTuple(src)
        assert tup.images.dtype == np.int64 and tup.images.shape == (3, 8) == (tup.m, tup.n)
        with pytest.raises(ValueError):
            tup.images[0, 0] = 1
        src[[0, 1]] = src[[1, 0]]  # the tuple holds its own copy
        assert tup != InvolutionTuple(src) and tup == InvolutionTuple(src[[1, 0, 2]])
        assert hash(tup) == hash(InvolutionTuple(src[[1, 0, 2]]))
        assert [e.images for e in tup.entries] == [tuple(row) for row in tup.images.tolist()]
        assert all(isinstance(e, FpfInvolution) for e in tup.entries)
        assert match_graph(tup).images is tup.images


class TestMatchings:
    def test_equal_entries_triple(self):
        a = cyc(4, (1, 2), (3, 4))
        witness = triple_matchings(make_tuple(a, a, a))
        assert witness.point == 1 and witness.coords == (1, 2, 3)

    def test_example_has_none(self):
        assert triple_matchings(EXAMPLE) is None

    def test_two_coordinates_never(self):
        a = cyc(4, (1, 2), (3, 4))
        assert triple_matchings(make_tuple(a, a)) is None

    def test_overlap_equal_entries(self):
        a = cyc(4, (1, 2), (3, 4))
        witness = overlapping_matches(make_tuple(a, a, a, a))
        assert witness.point == 1
        assert (witness.first, witness.second) == ((1, 2), (1, 3))

    def test_overlap_example_none(self):
        assert overlapping_matches(EXAMPLE) is None

    def test_overlap_single_coordinate_none(self):
        assert overlapping_matches(make_tuple(cyc(4, (1, 2), (3, 4)))) is None

    def test_midpoint_example_fails_at_1_2(self):
        res = midpoint_property(EXAMPLE)
        assert not res.holds and res.failing == (1, 2)

    def test_midpoint_equal_entries(self):
        a = cyc(4, (1, 2), (3, 4))
        assert midpoint_property(make_tuple(a, a, a)).holds

    def test_midpoint_disjoint_pairings(self):
        assert not midpoint_property(DISJOINT).holds

    def test_midpoint_arity(self):
        a = cyc(4, (1, 2), (3, 4))
        with pytest.raises(ArityError):
            midpoint_property(make_tuple(a, a))


class TestStructureSetFromTuple:
    def test_example_squares(self):
        from bmwgroups.structure import Square

        squares = structure_set_from_tuple(EXAMPLE).to_squares()
        assert set(squares) == {
            Square(1, 1, 2, 2),
            Square(1, 3, 1, 4),
            Square(1, 5, 1, 6),
            Square(2, 3, 3, 5),
            Square(2, 4, 2, 6),
            Square(3, 1, 3, 6),
            Square(3, 2, 3, 4),
        }

    def test_roundtrip_random(self):
        root = RngState(2)
        done = 0
        t = 0
        while done < 200:
            tup = sample_tuple(4, 12, root.derive(t))
            t += 1
            if triple_matchings(tup) is not None:
                continue
            done += 1
            derived = structure_set_from_tuple(tup)
            assert derived.local_involutions("B") == tup.entries or tuple(
                p.images for p in derived.local_involutions("B")
            ) == tuple(e.images for e in tup.entries)

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 4), (3, 6), (6, 200)])
    def test_unchecked_build_passes_the_checked_constructor(self, m, n):
        # every tuple of the small spaces, 200 sampled tuples at (6, 200)
        if n <= 6:
            tuples = enumerate_tuples(m, n)
        else:
            root = RngState(m * n)
            tuples = (sample_tuple(m, n, root.derive(t)) for t in range(200))
        built = 0
        for tup in tuples:
            graph = match_graph(tup)
            if graph.triple_witness() is not None:
                continue
            derived = graph.structure_set()
            pairs = derived.encoding()
            assert derived == StructureSet(m, n, pairs)
            built += 1
        assert built

    def test_triple_matching_raises(self):
        a = cyc(4, (1, 2), (3, 4))
        with pytest.raises(TripleMatchingError):
            structure_set_from_tuple(make_tuple(a, a, a))


class TestMatchGraph:
    def test_example_colors(self):
        g = match_graph(EXAMPLE)
        assert g.black_edges() == ((1, 2), (3, 5))
        assert white_edges(g) == ((1, 6), (2, 4), (3, 4), (4, 6), (5, 6))

    def test_single_coordinate_perfect_matching(self):
        g = match_graph(make_tuple(cyc(6, (1, 2), (3, 4), (5, 6))))
        assert g.black_edges() == ()
        assert len(white_edges(g)) == 3
        assert not g.is_connected()

    def test_two_equal_entries_all_black(self):
        a = cyc(6, (1, 4), (2, 5), (3, 6))
        g = match_graph(make_tuple(a, a))
        assert white_edges(g) == ()
        assert len(g.black_edges()) == 3

    def test_match_statistic_example(self):
        assert match_statistic(EXAMPLE) == 2

    def test_match_statistic_equal_copies(self):
        a = cyc(6, (1, 2), (3, 4), (5, 6))
        assert match_statistic(make_tuple(a, a, a, a)) == math.comb(4, 2) * 3

    def test_match_statistic_disjoint(self):
        assert match_statistic(DISJOINT) == 0

    def test_black_count_equals_statistic_without_triples(self):
        root = RngState(77)
        for t in range(100):
            tup = sample_tuple(3, 8, root.derive(t))
            g = match_graph(tup)
            if triple_matchings(tup) is None:
                assert len(g.black_edges()) == match_statistic(tup)
            else:
                assert len(g.black_edges()) < match_statistic(tup)

    @pytest.mark.parametrize(
        "m, n, trial, connected, white",
        [
            # values recorded from the earlier dict-and-BFS match graph
            (2, 20000, 0, False, [1, 1, 1]),
            (2, 20000, 2, False, [1, 1, 1]),
            (2, 20000, 144, True, [1, 1, 1]),
            (40, 2000, 0, True, [1, None, None]),
            (40, 2000, 3, True, [2, None, None]),
            (100, 400, 0, True, [None, None, None]),
            (100, 400, 1, True, [None, None, None]),
        ],
    )
    def test_pinned_off_the_benchmark_shapes(self, m, n, trial, connected, white):
        g = match_graph(sample_tuple(m, n, RngState(31).derive(trial)))
        assert g.is_connected() is connected
        assert [white_ball_vertex(g, r) for r in (1, 2, 6)] == white

    def test_statistic_invariant_under_simultaneous_conjugation(self):
        root = RngState(99)
        for t in range(30):
            tup = sample_tuple(3, 8, root.derive(t))
            conj = _random_perm(8, root)
            conjugated = make_tuple(
                *(conj * e * conj.inverse() for e in tup.entries)
            )
            assert match_statistic(conjugated) == match_statistic(tup)


class TestCoincidenceTable:
    """Every coincidence read of the match graph against the point scans."""

    @staticmethod
    def _tuples():
        for m, n in ((1, 2), (2, 4), (3, 4), (4, 4), (3, 6)):
            yield from enumerate_tuples(m, n)
        root = RngState(4242)
        for m, n in ((6, 8), (8, 12), (6, 200)):
            for t in range(300):
                yield sample_tuple(m, n, root.derive(t))

    @staticmethod
    def _outcome(fn, tup):
        try:
            return fn(tup)
        except (ArityError, TripleMatchingError) as exc:
            return type(exc), getattr(exc, "witness", None)

    def test_matches_point_scan_oracles(self):
        seen = {"tuples": 0, "triple": 0, "overlap": 0, "midpoint_fails": 0}
        for tup in self._tuples():
            seen["tuples"] += 1
            triple = triple_matchings(tup)
            assert triple == triple_matchings_by_scan(tup)
            overlap = overlapping_matches(tup)
            assert overlap == overlapping_matches_by_scan(tup)
            assert match_statistic(tup) == match_statistic_by_pairings(tup)
            mid = self._outcome(midpoint_property, tup)
            assert mid == self._outcome(midpoint_by_pairings, tup)
            assert self._outcome(structure_set_from_tuple, tup) == self._outcome(
                structure_set_by_squares, tup
            )
            seen["triple"] += triple is not None
            seen["overlap"] += overlap is not None
            seen["midpoint_fails"] += getattr(mid, "holds", True) is False
        # every branch of every comparison is exercised
        assert seen["tuples"] == 1 + 9 + 27 + 81 + 15**3 + 900
        assert min(seen.values()) > 0

    def test_graph_reads_match_pairing_oracles(self):
        seen = {"connected": 0, "disconnected": 0, "white_ball": 0, "no_white_ball": 0}
        for tup in self._tuples():
            g = match_graph(tup)
            colours = edge_colours_by_pairings(tup)
            assert g.black_edges() == tuple(e for e, black in colours.items() if black)
            assert white_edges(g) == tuple(e for e, black in colours.items() if not black)
            connected = g.is_connected()
            assert connected == match_graph_connected_by_bfs(tup)
            seen["connected" if connected else "disconnected"] += 1
            if tup.n <= 12:
                for radius in (0, 1, 2, 6):
                    vertex = white_ball_vertex(g, radius)
                    assert vertex == white_ball_exists_by_bfs(tup.n, colours, radius)
                    seen["white_ball" if vertex else "no_white_ball"] += 1
        assert min(seen.values()) > 0


def _random_perm(degree, rng):
    images = list(range(1, degree + 1))
    for i in range(degree - 1, 0, -1):
        j = rng.randbelow(i + 1)
        images[i], images[j] = images[j], images[i]
    return Permutation(images)


class TestWhiteBall:
    def test_no_black_edges_trivial_witness(self):
        g = match_graph(make_tuple(cyc(6, (1, 2), (3, 4), (5, 6))))
        assert white_ball_vertex(g, 6) == 1

    def test_radius_zero_always_finds(self):
        a = cyc(6, (1, 2), (3, 4), (5, 6))
        g = match_graph(make_tuple(a, a))
        assert white_ball_vertex(g, 0) == 1
        assert white_ball_vertex(g, 1) is None

    def test_matches_bfs_oracle(self):
        root = RngState(123)
        for t in range(60):
            tup = sample_tuple(3, 10, root.derive(t))
            g = match_graph(tup)
            edges = edge_colours_by_pairings(tup)
            # a radius past every eccentricity stops when the balls stop growing
            for radius in (0, 1, 2, 6, 10**12):
                assert white_ball_vertex(g, radius) == white_ball_exists_by_bfs(
                    10, edges, radius
                )

    @pytest.mark.parametrize(
        "m, n, count, widths", [(6, 20, 40, {1, 2, 4}), (12, 64, 6, {8}), (20, 100, 4, {16})]
    )
    def test_word_wide_rows_match_bfs_oracle(self, m, n, count, widths):
        # each tuple's bitset rows take 1, 2, 4 bytes or a multiple of 8
        root = RngState(9)
        tuples = [sample_tuple(m, n, root.derive(t)) for t in range(count)]
        seen, expected = set(), []
        for tup in tuples:
            g = match_graph(tup)
            endpoints = {x for edge in g.black_edges() for x in edge}
            seen.add(randmodel._row_bytes(len(endpoints)))
            edges = edge_colours_by_pairings(tup)
            expected.append([white_ball_exists_by_bfs(n, edges, r) for r in (1, 6)])
            assert [white_ball_vertex(g, r) for r in (1, 6)] == expected[-1]
        assert seen == widths
        # the tuples together, their rows as wide as the widest tuple's
        images = np.stack([t.images for t in tuples])
        edges = randmodel._black_edges(images, randmodel._agreeing_pairs(images)[0])
        together = [randmodel._white_balls(images, edges, r) for r in (1, 6)]
        assert [list(pair) for pair in zip(*together)] == expected

    def test_row_bytes_are_whole_words(self):
        widths = [randmodel._row_bytes(bits) for bits in range(1, 200)]
        assert sorted(set(widths)) == [1, 2, 4, 8, 16, 24, 32]
        assert all(8 * w >= bits for bits, w in zip(range(1, 200), widths))
        assert randmodel._row_bytes(33) == 8 and randmodel._row_bytes(65) == 16

    def test_negative_radius_rejected(self):
        g = match_graph(EXAMPLE)
        with pytest.raises(RangeError):
            white_ball_vertex(g, -1)

    def test_one_edge_blocks_change_nothing(self, monkeypatch):
        root = RngState(8)
        graphs = [
            match_graph(sample_tuple(m, n, root.derive(t)))
            for m, n in ((6, 200), (12, 40))
            for t in range(50)
        ]
        expected = [[white_ball_vertex(g, r) for r in (1, 2, 6)] for g in graphs]
        # a budget of 1 leaves one black edge per block
        monkeypatch.setattr(randmodel, "_CHUNK_ENTRIES", 1)
        assert [[white_ball_vertex(g, r) for r in (1, 2, 6)] for g in graphs] == expected
        flat = [v for row in expected for v in row]
        assert None in flat and any(flat)
        assert min(len(g.black_edges()) for g in graphs) > 1


class TestIrrCertificate:
    def test_example_report(self):
        rep = irr_certificate(EXAMPLE)
        assert rep.no_triple_matchings
        assert rep.connected
        assert rep.has_black_edge
        assert rep.white_ball_vertex is None  # n = 6 is too small
        assert rep.a_local.is_two_transitive is True
        assert rep.match_statistic == 2
        assert not rep.irreducible_certified
        assert not rep.hji_certified

    def test_equal_entries_report(self):
        a = cyc(8, (1, 2), (3, 4), (5, 6), (7, 8))
        rep = irr_certificate(make_tuple(a, a, a))
        assert rep.white_ball_vertex is None
        assert rep.has_black_edge
        assert not rep.connected

    def test_connected_is_the_match_graph_on_both_branches(self):
        # on both branches the field is the transitivity of the group of the rows
        tuples = list(enumerate_tuples(3, 4)) + list(enumerate_tuples(2, 6))
        root = RngState(2718)
        for m, n in ((2, 8), (3, 6), (4, 12), (6, 20)):
            tuples += [sample_tuple(m, n, root.derive(1000 * m + t)) for t in range(60)]
        seen = set()
        for tup in tuples:
            rep = irr_certificate(tup)
            connected = match_graph(tup).is_connected()
            assert rep.connected == connected == match_graph_connected_by_bfs(tup)
            seen.add((rep.no_triple_matchings, connected))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_radius_zero_flips_only_white_ball(self):
        base = irr_certificate(EXAMPLE)
        zero = irr_certificate(EXAMPLE, radius=0)
        assert zero.white_ball_vertex == 1 and base.white_ball_vertex is None
        assert (zero.connected, zero.has_black_edge, zero.no_triple_matchings) == (
            base.connected,
            base.has_black_edge,
            base.no_triple_matchings,
        )

    def test_triple_matchings_disable_local_actions(self):
        a = cyc(4, (1, 2), (3, 4))
        rep = irr_certificate(make_tuple(a, a, a))
        assert not rep.no_triple_matchings
        assert rep.a_local is None and rep.b_local is None
        assert not rep.irreducible_certified

    def test_a_side_soundness_fixture(self):
        # hand-built qualifying tuple: the three shared orbits are disjoint
        tup = make_tuple(
            cyc(10, (1, 2), (5, 6), (3, 7), (4, 8), (9, 10)),
            cyc(10, (1, 2), (3, 4), (5, 7), (6, 9), (8, 10)),
            cyc(10, (3, 4), (5, 6), (1, 7), (2, 9), (8, 10)),
        )
        assert triple_matchings(tup) is None
        assert overlapping_matches(tup) is None
        assert midpoint_property(tup).holds
        derived = structure_set_from_tuple(tup)
        assert PermutationGroup(3, derived.local_involutions("A")).order() == 6

    def test_a_side_soundness_on_derived_sets(self):
        # no triples + no overlaps + midpoint force the full symmetric group
        root = RngState(31337)
        found = 0
        for t in range(800):
            tup = sample_tuple(3, 20, root.derive(t))
            if (
                triple_matchings(tup) is None
                and overlapping_matches(tup) is None
                and midpoint_property(tup).holds
            ):
                found += 1
                derived = structure_set_from_tuple(tup)
                order = PermutationGroup(3, derived.local_involutions("A")).order()
                assert order == math.factorial(3)
        assert found >= 10

    def test_report_dict_shape(self):
        doc = irr_certificate(EXAMPLE).to_dict()
        assert doc["certificates"]["match_statistic"] == 2
        assert doc["conclusions"]["irreducible_certified"] is False
        assert doc["thresholds"] == {"n_gt_m5": False, "n_gt_m8": False}

    def test_single_coordinate_report(self):
        rep = irr_certificate(make_tuple(cyc(8, (1, 2), (3, 4), (5, 6), (7, 8))))
        assert rep.midpoint is None  # inapplicable below three coordinates
        assert not rep.has_black_edge
        assert not rep.connected
        assert rep.white_ball_vertex == 1
        assert not rep.a_local_symmetric_predicted
        assert rep.to_dict()["certificates"]["midpoint"] == "unknown"

    def test_two_coordinate_report(self):
        rep = irr_certificate(
            make_tuple(
                cyc(6, (1, 2), (3, 4), (5, 6)),
                cyc(6, (1, 2), (3, 5), (4, 6)),
            )
        )
        assert rep.midpoint is None
        assert rep.no_triple_matchings
        assert rep.has_black_edge  # the shared orbit {1, 2}
        assert rep.a_local is not None and rep.a_local.degree == 2

    def test_conclusion_logic_on_a_fully_certified_report(self):
        # the conjunction logic itself; no desk-scale tuple reaches this state
        # (a white ball needs few black edges, full symmetric A-action many)
        from bmwgroups.permgroup import GroupClassification
        from bmwgroups.randmodel import CertificateReport

        sym = GroupClassification(
            degree=6, method="exact", order=720, is_transitive=True,
            is_two_transitive=True, is_primitive=True,
            contains_alternating=True, equals_symmetric=True,
        )
        alt = GroupClassification(
            degree=700, method="jordan", is_transitive=True,
            is_two_transitive=True, is_primitive=True,
            contains_alternating=True, equals_symmetric=True,
        )
        rep = CertificateReport(
            m=6, n=700, radius=6,
            no_triple_matchings=True, triple_witness=None,
            no_overlapping_matches=True, overlap_witness=None,
            midpoint=True, midpoint_witness=None,
            white_ball_vertex=17, connected=True, has_black_edge=True,
            match_statistic=9, a_local=sym, b_local=alt,
        )
        assert rep.a_local_symmetric_predicted
        assert rep.irreducible_certified
        assert rep.hji_certified
        # dropping any single certificate breaks the chain
        import dataclasses

        for field_name, broken in (
            ("white_ball_vertex", None),
            ("connected", False),
            ("has_black_edge", False),
            ("no_triple_matchings", False),
        ):
            weaker = dataclasses.replace(rep, **{field_name: broken})
            assert not weaker.irreducible_certified
            assert not weaker.hji_certified


# Every tuple of the small (F_n)^m, then seeded samples as (m, n, trials).
FRONT_SETS = [
    (1, 2, 0),
    (2, 4, 0),
    (3, 4, 0),
    (4, 4, 0),
    (3, 6, 0),
    (6, 8, 327),
    (8, 12, 218),
    (6, 200, 218),
    (6, 7778, 2),
]


@functools.lru_cache(maxsize=None)
def front_tuples(m, n, trials):
    if not trials:
        return tuple(enumerate_tuples(m, n))
    root = RngState(21)
    return tuple(sample_tuple(m, n, root.derive(t)) for t in range(trials))


@functools.lru_cache(maxsize=None)
def per_tuple_reports(m, n, trials):
    return tuple(certificates_by_tuple(front_tuples(m, n, trials), randmodel.DEFAULT_BALL_RADIUS))


def batch_front(tuples, piece=109, **kwargs):
    images = np.stack([t.images for t in tuples])
    return [
        rep
        for first in range(0, len(images), piece)
        for rep in randmodel._certificates(
            images[first:first + piece], randmodel.DEFAULT_BALL_RADIUS, **kwargs
        )
    ]


def overlapped_at_both_ends(t):
    """Whether, with no triple matching, some black edge has another black edge at each end."""
    if triple_matchings_by_scan(t) is not None:
        return False
    black = [edge for edge, is_black in edge_colours_by_pairings(t).items() if is_black]
    at = collections.Counter(p for edge in black for p in edge)
    return any(at[k] >= 2 and at[l] >= 2 for k, l in black)


def component_sizes(t):
    """Each coordinate's component size in the shared-orbit graph, sorted, by union-find."""
    parent = list(range(t.m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rows = t.images.tolist()
    for i, j in itertools.combinations(range(t.m), 2):
        if any(u == v for u, v in zip(rows[i], rows[j])):
            parent[find(i)] = find(j)
    roots = [find(c) for c in range(t.m)]
    return tuple(sorted(roots.count(r) for r in roots))


class TestBatchFront:
    """The certificate front over a (B, m, n) array against the per-tuple front."""

    def test_reports_equal_the_per_tuple_front(self, monkeypatch):
        a_parts, calls = randmodel._a_parts, []

        def counted(images, edges):
            calls.extend(np.unique(edges[:, 0]).tolist())
            return a_parts(images, edges)

        seen = collections.Counter()
        for m, n, trials in FRONT_SETS:
            tuples = front_tuples(m, n, trials)
            calls.clear()
            monkeypatch.setattr(randmodel, "_a_parts", counted)
            reports = batch_front(tuples)
            monkeypatch.undo()
            assert reports == list(per_tuple_reports(m, n, trials)), (m, n)
            # the a-parts are read exactly for the tuples the theorem does not cover
            assert len(calls) == sum(map(overlapped_at_both_ends, tuples)), (m, n)
            seen["edge overlapped at both ends"] += len(calls)
            for rep in reports:
                seen["triple"] += not rep.no_triple_matchings
                seen["overlap"] += rep.no_triple_matchings and not rep.no_overlapping_matches
                seen["no black edge"] += not rep.has_black_edge
                seen["midpoint fails"] += rep.midpoint is False
                seen["no white ball"] += rep.white_ball_vertex is None
                seen["white ball at 1"] += rep.white_ball_vertex == 1
        assert len(seen) == 7 and all(seen.values()), seen

    def test_b_side_groups_equal_the_one_table_constructor(self, monkeypatch):
        # (3, 4): every tuple, many with repeated rows; (6, 200): sampled tuples
        pool = np.array([e.images for e in enumerate_fpf(4)])
        enumerated = pool[np.array(list(itertools.product(range(3), repeat=3)))]
        root = RngState(6)
        sampled = np.stack([sample_tuple(6, 200, root.derive(t)).images for t in range(20)])
        built = []
        mark = randmodel._mark_transitive

        def recorded(groups):
            built.append(list(groups))
            return mark(groups)

        monkeypatch.setattr(randmodel, "_mark_transitive", recorded)
        for images in (enumerated, sampled):
            built.clear()
            randmodel._certificates(images, 6)
            (groups,) = built
            n = images.shape[2]
            for g, table in zip(groups, images):
                assert g.images0.tolist() == PermutationGroup._from_images0(n, table - 1).images0.tolist()
                assert not g.images0.flags.writeable
        repeated = [len(set(map(tuple, t.tolist()))) < 3 for t in enumerated]
        assert 0 < sum(repeated) < len(enumerated)

    def test_pieces_of_any_size_give_equal_reports(self, monkeypatch):
        for m, n, trials in ((6, 8, 327), (6, 200, 218)):
            tuples = front_tuples(m, n, trials)[:150]
            expected = batch_front(tuples, 109)
            assert batch_front(tuples, 1) == expected
            assert batch_front(tuples, 7) == expected
            # a budget of 1 walks each tuple's black edges one per block
            monkeypatch.setattr(randmodel, "_CHUNK_ENTRIES", 1)
            assert batch_front(tuples, 109) == expected
            monkeypatch.undo()

    def test_a_side_is_the_product_of_symmetric_groups_on_components(self):
        # per_tuple_reports classify each tuple's own a-part group
        by_theorem = functools.lru_cache(maxsize=None)(
            lambda sizes: randmodel._symmetric_product(sizes).classify("auto")
        )
        checked = differs = 0
        for m, n, trials in FRONT_SETS:
            for t, rep in zip(front_tuples(m, n, trials), per_tuple_reports(m, n, trials)):
                if not rep.no_triple_matchings:
                    continue
                if overlapped_at_both_ends(t):
                    differs += by_theorem(component_sizes(t)) != rep.a_local
                else:
                    assert by_theorem(component_sizes(t)) == rep.a_local, t.images.tolist()
                    checked += 1
        assert checked > 3000
        # (1 2)(3 4) at every point generates a group of order 2, not Sym(2) x Sym(2)
        assert differs

    def test_order_guard_raises_as_the_per_tuple_front(self):
        for m, n, trials in ((4, 4, 0), (6, 200, 218)):
            tuples = front_tuples(m, n, trials)[:109]
            with pytest.raises(ResourceError) as batch:
                batch_front(tuples, order_guard=3)
            with pytest.raises(ResourceError) as per_tuple:
                certificates_by_tuple(tuples, randmodel.DEFAULT_BALL_RADIUS, order_guard=3)
            assert str(batch.value) == str(per_tuple.value)
        t = front_tuples(6, 200, 218)[0]
        a_parts = structure_set_by_squares(t)._partners[..., 0]
        a_group = PermutationGroup._from_images0(6, a_parts.T - 1)
        with pytest.raises(ResourceError) as by_parts:
            a_group.classify("auto", order_guard=3)
        with pytest.raises(ResourceError) as by_theorem:
            randmodel._symmetric_product(component_sizes(t)).classify("auto", order_guard=3)
        assert str(by_parts.value) == str(by_theorem.value)

    def test_the_front_builds_no_match_graph(self, monkeypatch):
        # sha256 of the documents as written before the match graph became
        # the front's one-tuple case; 10 of the 30 trials overlap
        expected = list(per_tuple_reports(4, 4, 0))

        def refuse(self, t):
            raise AssertionError("a match graph was built")

        monkeypatch.setattr(randmodel.MatchGraph, "__init__", refuse)
        assert batch_front(front_tuples(4, 4, 0)) == expected
        result = monte_carlo("certificate_rates", 6, 200, 30, RngState(4))
        docs = [formats.dumps(formats.estimate_document(result))]
        root = RngState(7)
        for t in range(3):
            rep = irr_certificate(sample_tuple(6, 7778, root.derive(t)))
            docs.append(formats.dumps(formats.report_document(rep)))
        assert [hashlib.sha256(doc.encode()).hexdigest() for doc in docs] == [
            "3729d98f4696aeed4c7ceff864bcc115f9502c95f44f82f59989f52b0a6f5be0",
            "52bb1ce6b3c61c72427566c49b71b7deb171d31b81b69572c8fdcea34af8e935",
            "38ae55dd5341fb99051cb383670e6c60d6d3b1bbc4ef0739d4b385a2e56db113",
            "aea947b8fb0f95048c6841a25c9e26ec19c324d0a29294888a88dfe84de95886",
        ]

    def test_monte_carlo_checks_each_piece_once(self, monkeypatch):
        expected = monte_carlo("certificate_rates", 6, 200, 30, RngState(4)).to_dict()

        def refuse(self, images):
            raise AssertionError("a tuple was built and checked")

        monkeypatch.setattr(InvolutionTuple, "__init__", refuse)
        assert monte_carlo("certificate_rates", 6, 200, 30, RngState(4)).to_dict() == expected

    def test_monte_carlo_refuses_a_faulty_batch(self, monkeypatch):
        bad = sample_tuple_images_batch(3, 6, RngState(0), 0, 5)
        bad[3, 1] = np.arange(1, 7)  # the identity: every point fixed
        monkeypatch.setattr(randmodel, "_image_batches", lambda *args: iter([bad]))
        with pytest.raises(DegreeError) as batch:
            monte_carlo("certificate_rates", 3, 6, 5, RngState(0))
        with pytest.raises(DegreeError) as row:
            InvolutionTuple(bad[3])
        assert str(batch.value) == str(row.value)


class TestExactProbabilities:
    def test_orbit_share_degree_two(self):
        assert exact_orbit_share_prob(2).exact == 1

    def test_orbit_share_degree_four(self):
        assert exact_orbit_share_prob(4).exact == Fraction(1, 3)

    def test_orbit_share_matches_brute_force(self):
        for n in (2, 4, 6, 8):
            pool = list(enumerate_fpf(n))
            hits = sum(
                bool(pairing(a) & pairing(b)) for a in pool for b in pool
            )
            assert exact_orbit_share_prob(n).exact == Fraction(hits, len(pool) ** 2)

    def test_orbit_share_limit(self):
        assert abs(exact_orbit_share_prob(1000).value - (1 - math.exp(-0.5))) < 0.005

    def test_orbit_share_in_unit_interval(self):
        for n in (2, 4, 10, 50, 200):
            v = exact_orbit_share_prob(n).exact
            assert 0 < v <= 1

    def test_expected_match_statistic_formula(self):
        assert expected_match_statistic(2, 6) == Fraction(6, 10)
        # linearity over coordinate pairs, checked by enumeration at (3, 4)
        total = Fraction(0)
        count = 0
        for tup in enumerate_tuples(3, 4):
            total += match_statistic(tup)
            count += 1
        assert total / count == expected_match_statistic(3, 4)


class TestCaprace:
    def test_m4_values(self):
        vals = caprace_exceptional_set(4)
        assert vals.values == frozenset({11, 12, 23, 35, 36, 71, 72, 143})
        assert vals.non_integer == ()

    def test_m3_values(self):
        vals = caprace_exceptional_set(3)
        assert vals.values == frozenset({2, 3, 5, 6, 11})
        assert vals.non_integer == ()

    def test_m2_flags_non_integers(self):
        vals = caprace_exceptional_set(2)
        assert vals.values == frozenset({0, 1})
        assert vals.non_integer == (Fraction(-1, 2), Fraction(1, 2))

    def test_m_below_two_rejected(self):
        with pytest.raises(RangeError):
            caprace_exceptional_set(1)


class TestMonteCarlo:
    def test_orbit_share_against_exact(self):
        result = monte_carlo("orbit_share", None, 4, 100_000, RngState(21))
        stat = result.primary()
        assert abs(stat.mean - 1 / 3) <= 3 * stat.std_error

    def test_expected_matches_small(self):
        result = monte_carlo("expected_M", 2, 6, 100_000, RngState(22))
        stat = result.primary()
        assert abs(stat.mean - 0.6) <= 3 * stat.std_error

    def test_certificate_rates_has_no_primary_estimand(self):
        result = monte_carlo("certificate_rates", 3, 6, 5, RngState(0))
        with pytest.raises(UsageError, match="hji_certified"):
            result.primary()

    def test_enumeration_triple_rate(self):
        result = monte_carlo("triple_matching_rate", 3, 4, 0, RngState(0))
        assert result.mode == "enumeration"
        assert result.exact_repr["rate"] == "1/9"
        assert result.primary().mean == pytest.approx(1 / 9)

    def test_enumeration_matches_direct_average(self):
        # all estimands agree exactly with exhaustive enumeration at (2, 4)
        pool = list(enumerate_tuples(2, 4))
        share = Fraction(sum(bool(pairings(t)[0] & pairings(t)[1]) for t in pool), len(pool))
        result = monte_carlo("orbit_share", 2, 4, 0, RngState(0))
        assert Fraction(result.exact_repr["share_probability"]) == share
        mean_m = Fraction(sum(match_statistic(t) for t in pool), len(pool))
        result = monte_carlo("expected_M", 2, 4, 0, RngState(0))
        assert Fraction(result.exact_repr["mean_shared_orbits"]) == mean_m
        overlap = Fraction(sum(overlapping_matches(t) is not None for t in pool), len(pool))
        result = monte_carlo("overlap_rate", 2, 4, 0, RngState(0))
        assert Fraction(result.exact_repr["rate"]) == overlap
        # triple matchings need three coordinates to be possible
        pool3 = list(enumerate_tuples(3, 4))
        triple = Fraction(sum(triple_matchings(t) is not None for t in pool3), len(pool3))
        result = monte_carlo("triple_matching_rate", 3, 4, 0, RngState(0))
        assert Fraction(result.exact_repr["rate"]) == triple

    def test_enumeration_certificate_rates(self):
        result = monte_carlo("certificate_rates", 2, 4, 0, RngState(0))
        pool = list(enumerate_tuples(2, 4))
        connected = Fraction(sum(match_graph_connected_by_bfs(t) for t in pool), len(pool))
        assert Fraction(result.exact_repr["connected"]) == connected
        black = Fraction(
            sum(any(edge_colours_by_pairings(t).values()) for t in pool), len(pool)
        )
        assert Fraction(result.exact_repr["has_black_edge"]) == black

    def test_enumeration_guard(self):
        with pytest.raises(ResourceError):
            monte_carlo("expected_M", 4, 12, 0, RngState(0))

    def test_bad_kind(self):
        with pytest.raises(UsageError):
            monte_carlo("nope", 2, 4, 10, RngState(0))

    def test_orbit_share_requires_two_coordinates(self):
        with pytest.raises(UsageError):
            monte_carlo("orbit_share", 3, 4, 10, RngState(0))

    def test_scalar_and_batch_agree(self):
        for kind, m in (
            ("orbit_share", None),
            ("expected_M", 2),
            ("triple_matching_rate", 3),
            ("overlap_rate", 3),
        ):
            scalar = _mean_se(scalar_mc_values(kind, m or 2, 6, 400, RngState(5)))
            batch = monte_carlo(kind, m, 6, 400, RngState(5))
            assert batch.primary() == scalar

    def test_certificate_rates_match_per_trial_certificates(self):
        trials, rng = 40, RngState(6)
        result = monte_carlo("certificate_rates", 3, 6, trials, rng)
        rows = [
            _certificate_flags(irr_certificate(sample_tuple(3, 6, rng.derive(t))))
            for t in range(trials)
        ]
        assert list(result.stats) == list(rows[0])
        for name, stat in result.stats.items():
            assert stat.mean == sum(row[name] for row in rows) / trials

    @pytest.mark.parametrize("m, n, trials", [(6, 200, 100), (4, 130, 60)])
    def test_certificate_rates_flags_equal_per_trial_certificates(self, monkeypatch, m, n, trials):
        # every trial's B side shares its Jordan words with the batch's other groups
        rng, rows, flags = RngState(6), [], _certificate_flags

        def recorded(rep):
            rows.append(flags(rep))
            return rows[-1]

        monkeypatch.setattr(randmodel, "_certificate_flags", recorded)
        monte_carlo("certificate_rates", m, n, trials, rng)
        tuples = [sample_tuple(m, n, rng.derive(t)) for t in range(trials)]
        reports = [irr_certificate(t) for t in tuples]
        assert rows == list(map(flags, reports))
        images = np.stack([t.images for t in tuples])
        assert randmodel._certificates(images, randmodel.DEFAULT_BALL_RADIUS) == reports
        assert any(rep.b_local and rep.b_local.method == "jordan" for rep in reports)
        assert not all(row["no_triple_matchings"] for row in rows)

    def test_certificate_rates_read_the_batch_sampler(self, monkeypatch):
        # the same rows as sample_tuple(rng.derive(t)), drawn by the batch sampler
        expected = monte_carlo("certificate_rates", 3, 6, 40, RngState(6)).to_dict()

        def refuse(*args):
            raise AssertionError("sample_tuple ran")

        monkeypatch.setattr(randmodel, "sample_tuple", refuse)
        assert monte_carlo("certificate_rates", 3, 6, 40, RngState(6)).to_dict() == expected

    def test_batches_are_bounded_in_memory(self):
        batch = next(_image_batches(2, 20000, 1000, RngState(0)))
        assert batch.shape[1:] == (2, 20000)
        assert 1 <= len(batch) and batch.nbytes <= 64 * 2**20
        # at the benchmark's (6, 200) a batch holds 512 trials: the sampler's
        # (512, 200) trial-major slot array (0.8 MB) then stays in a 2 MiB L2
        # cache, each trial's shuffle in its own 1.6 KB row
        assert len(next(_image_batches(6, 200, 5000, RngState(0)))) == 512
        assert len(next(_image_batches(3, 4, 0, RngState(0)))) == 27

    def test_batched_kind_peak_memory(self):
        # one 512-trial batch alive at a time: 4096-trial batches peaked at 53 MiB
        tracemalloc.start()
        try:
            monte_carlo("expected_M", 6, 200, 5000, RngState(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_certificate_rates_memory_is_flat_in_the_trials(self):
        # a batch's flags are columns freed with it: one 12-key dict per trial
        # kept to the end grew the peak by 0.50 MiB from 600 to 1,800 trials
        peaks = []
        for trials in (600, 1800):
            tracemalloc.start()
            try:
                monte_carlo("certificate_rates", 6, 200, trials, RngState(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.2 * 2**20

    @pytest.mark.parametrize(
        "kind, n, trials, per_batch, blocks",
        [
            pytest.param("expected_M", 6, 23, 5, 0, id="expected_M"),
            pytest.param("certificate_rates", 6, 23, 5, 1, id="certificate_rates"),
            pytest.param("certificate_rates", 130, 300, 128, 2, id="certificate_rates-stacked"),
        ],
    )
    def test_one_batch_alive_at_a_time(self, monkeypatch, kind, n, trials, per_batch, blocks):
        # the B sides' stacks of at most `blocks` groups are freed with their batch
        batches, block_stack = randmodel._image_batches, permgroup._block_stack
        alive, stacks, sizes = [], [], [0]

        def watched(*args):
            for imgs in batches(*args):
                assert not any(ref() is not None for ref in alive + stacks)
                alive.append(weakref.ref(imgs))
                yield imgs
                del imgs

        def watched_stack(groups):
            stack = block_stack(groups)
            stacks.append(weakref.ref(stack))
            sizes.append(len(groups))
            return stack

        monkeypatch.setattr(randmodel, "_CHUNK_ENTRIES", per_batch * 3 * n)
        monkeypatch.setattr(randmodel, "_image_batches", watched)
        monkeypatch.setattr(permgroup, "_block_stack", watched_stack)
        monte_carlo(kind, 3, n, trials, RngState(1))
        assert len(alive) == -(-trials // per_batch)
        assert max(sizes) == blocks

    @pytest.mark.parametrize(
        "kind, m, n, trials",
        [
            ("expected_M", 3, 8, 700),
            ("certificate_rates", 3, 6, 30),
            ("certificate_rates", 6, 200, 30),
            ("overlap_rate", 3, 6, 0),
        ],
    )
    def test_documents_do_not_depend_on_the_chunking(self, monkeypatch, kind, m, n, trials):
        expected = monte_carlo(kind, m, n, trials, RngState(13)).to_dict()
        monkeypatch.setattr(randmodel, "_CHUNK_ENTRIES", 7 * m * n)
        assert len(next(_image_batches(m, n, trials, RngState(13)))) == 7
        assert monte_carlo(kind, m, n, trials, RngState(13)).to_dict() == expected

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("kind, trials", [("overlap_rate", 600), ("certificate_rates", 130)])
    def test_documents_do_not_depend_on_the_trial_cap(self, monkeypatch, kind, trials, chunk):
        # the chunking test at the benchmark's shape, with the trial cap itself moved
        expected = monte_carlo(kind, 6, 200, trials, RngState(13)).to_dict()
        monkeypatch.setattr(randmodel, "_CHUNK", chunk)
        assert len(next(_image_batches(6, 200, trials, RngState(13)))) == min(chunk, trials)
        assert monte_carlo(kind, 6, 200, trials, RngState(13)).to_dict() == expected

    def test_certificate_rates_run(self):
        result = monte_carlo("certificate_rates", 3, 6, 50, RngState(6))
        assert set(result.stats) >= {
            "no_triple_matchings",
            "connected",
            "has_black_edge",
            "irreducible_certified",
        }
        for stat in result.stats.values():
            assert 0.0 <= stat.mean <= 1.0

    def test_reproducible(self):
        a = monte_carlo("triple_matching_rate", 3, 8, 2000, RngState(12))
        b = monte_carlo("triple_matching_rate", 3, 8, 2000, RngState(12))
        assert a.primary() == b.primary()


class TestRejectionBranch:
    """Batch rows equal ``sample_tuple`` also when a draw is rejected.

    A rejection makes ``randbelow`` draw again, which shifts every later
    coordinate of the scalar tuple.  The real threshold rejects about once
    per 2**50 draws, so it is lowered here to reject about one draw in 16.
    """

    def test_batch_rows_equal_sample_tuple(self, monkeypatch):
        lower_rejection_limits(monkeypatch)
        rng = RngState(2024)
        for m, n, first in ((3, 6, 0), (4, 8, 5000)):
            trials = 300
            imgs = sample_tuple_images_batch(m, n, rng, first, trials)
            shifted = 0
            for t in range(trials):
                state = rng.derive(first + t)
                tup = sample_tuple(m, n, state)
                assert imgs[t].tolist() == [list(e.images) for e in tup.entries]
                shifted += state.index > m * (n // 2)
            assert shifted > trials // 4  # the branch is exercised


class TestBatchSampler:
    """Row t of ``sample_tuple_images_batch`` is ``sample_tuple(m, n, rng.derive(first + t))``."""

    @pytest.mark.parametrize(
        "m, n, first, count",
        [
            (1, 2, 0, 40),
            (3, 4, 7, 60),
            (2, 10, 500, 60),
            (4, 36, 3, 30),
            (6, 200, 0, 512),  # one full batch at the benchmark's shape
            (2, 20000, 11, 2),  # trial rows far apart in the slot array
        ],
    )
    def test_rows_equal_sample_tuple(self, m, n, first, count):
        rng = RngState(31)
        imgs = sample_tuple_images_batch(m, n, rng, first, count)
        assert imgs.shape == (count, m, n)
        for t in range(count):
            assert imgs[t].tolist() == sample_tuple(m, n, rng.derive(first + t)).images.tolist()

    def test_batch_bytes_pinned(self):
        # recorded with the (n, B) slot layout the trial-major one replaced
        imgs = sample_tuple_images_batch(6, 200, RngState(0), 0, 512)
        assert hashlib.sha256(imgs.tobytes()).hexdigest() == (
            "8a6792213f96d33c38ed6845b2f943079e0f74830115d8fc6c29ee478f00b0a1"
        )

    def test_peak_memory(self):
        # the output (64 MiB), the slots (32 MiB) and the pair scatter's
        # temporaries, the coordinate's draws freed before it: 128.0 MiB when
        # pinned (143.9 with the draws alive), plus 5 %
        tracemalloc.start()
        try:
            sample_tuple_images_batch(2, 20000, RngState(0), 0, 209)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 135 * 2**20

    def test_no_coordinates_is_refused(self):
        with pytest.raises(ArityError, match="^m must be positive$"):
            sample_tuple_images_batch(0, 4, RngState(1), 0, 3)

    def test_negative_first_trial_is_refused(self):
        with pytest.raises(ValueError, match="^substream index must be non-negative$"):
            sample_tuple_images_batch(2, 4, RngState(1), -1, 3)

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="^count must be non-negative$"):
            sample_tuple_images_batch(2, 4, RngState(1), 0, -1)
