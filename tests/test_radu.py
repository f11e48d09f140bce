import math

import numpy as np
import pytest

from bmwgroups import formats
from bmwgroups.errors import ConflictingPairError, RangeError
from bmwgroups.perm import Permutation
from bmwgroups.permgroup import PermutationGroup
from bmwgroups.radu import (
    ClaimCheck,
    S0Blueprint,
    TaggedSquare,
    blueprint,
    delta,
    extension,
    free_block,
    outer_a_involution,
    outer_b_involution,
    random_filler,
    schreier_claim_check,
)
from bmwgroups.rng import RngState
from bmwgroups.structure import Square, validate

from .oracles import (
    blueprint_by_loop,
    extension_by_merge,
    families_by_loop,
    outer_involution_by_cycles,
    restricted,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def with_square(bp, square, family):
    """``bp`` with ``square`` placed last, tagged ``family``."""
    names = bp.names if family in bp.names else bp.names + (family,)
    rows = np.vstack([bp.squares, [square]])
    return S0Blueprint(bp.m, bp.n, rows, np.append(bp.family, names.index(family)), names)


class TestDelta:
    def test_contains_listed_squares(self):
        squares = set(delta().to_squares())
        assert Square.canonical(2, 3, 1, 3) in squares
        assert Square.canonical(3, 5, 2, 4) in squares

    def test_local_action_orders(self):
        s = delta()
        assert PermutationGroup(5, s.local_involutions("B")).order() == 120
        assert PermutationGroup(4, s.local_involutions("A")).order() == 24

    def test_exact_cover_of_twenty_pairs(self):
        assert sum(sq.multiplicity() for sq in delta().to_squares()) == 20

    def test_serialization_is_stable(self):
        doc1 = formats.dumps(formats.structure_set_document(delta()))
        doc2 = formats.dumps(formats.structure_set_document(delta()))
        assert doc1 == doc2


class TestOuterInvolutions:
    def test_third_is_a_single_transposition(self):
        for n in (14, 15, 20, 33):
            assert outer_b_involution(3, n) == cyc(n, (6, 9))

    def test_first_at_seventeen(self):
        assert outer_b_involution(1, 17) == cyc(
            17, (7, 10), (8, 11), (12, 13), (14, 15), (16, 17)
        )

    def test_all_are_involutions_fixing_the_seed_labels(self):
        for n in (14, 15, 16, 29, 30):
            for i in (1, 2, 3):
                p = outer_b_involution(i, n)
                assert p.is_involution()
                assert all(p(k) == k for k in range(1, 6))
        for m in (13, 14, 21):
            for i in (1, 2, 3):
                p = outer_a_involution(i, m)
                assert p.is_involution()
                assert all(p(k) == k for k in range(1, 5))

    @pytest.mark.parametrize("n", range(14, 61))
    def test_generate_full_symmetric_on_upper_labels(self, n):
        # both parities of the interval end exercise the tail convention
        gens = [restricted(outer_b_involution(i, n), range(6, n + 1)) for i in (1, 2, 3)]
        assert PermutationGroup(n - 5, gens).order() == math.factorial(n - 5)

    @pytest.mark.parametrize("m", [13, 14, 19, 20, 33, 34])
    def test_a_side_generate_full_symmetric(self, m):
        gens = [restricted(outer_a_involution(i, m), range(5, m + 1)) for i in (1, 2, 3)]
        assert PermutationGroup(m - 4, gens).order() == math.factorial(m - 4)

    def test_reindexed_group_contains_alternating(self):
        gens = [restricted(outer_b_involution(i, 20), range(6, 21)) for i in (1, 2, 3)]
        g = PermutationGroup(15, gens)
        assert g.contains_alternating("exact") is True
        assert g.order() == math.factorial(15)

    def test_bad_index_or_bound(self):
        with pytest.raises(RangeError):
            outer_b_involution(4, 20)
        with pytest.raises(RangeError):
            outer_b_involution(1, 13)
        with pytest.raises(RangeError):
            outer_a_involution(1, 12)


# Table of family regions: tag -> predicate on the cells the squares may cover.
def _region_predicates(m, n):
    return {
        "seed": lambda i, k: 1 <= i <= 4 and 1 <= k <= 5,
        "top_rows": lambda i, k: 1 <= i <= 3 and 6 <= k <= n,
        "left_cols": lambda i, k: 5 <= i <= m and 1 <= k <= 3,
        "row4_diagonal": lambda i, k: i == 4 and 6 <= k <= 8,
        "mid_diagonal": lambda i, k: 5 <= i <= 7 and 4 <= k <= 5,
        "mixed_block": lambda i, k: 5 <= i <= 10 and 6 <= k <= 11,
        "mid_rows": lambda i, k: 5 <= i <= 7 and 9 <= k <= n,
        "mid_cols": lambda i, k: 8 <= i <= m and 6 <= k <= 8,
        "markers": lambda i, k: (i, k)
        in {(4, n), (4, n - 1), (m, n), (m, n - 1), (m - 2, 4), (m - 1, 4), (m - 2, n - 2), (m - 1, n - 2)},
        "last_col_diagonal": lambda i, k: 8 <= i <= m - 1 and k in (n - 1, n),
        "late_row_diagonal": lambda i, k: i in (m - 2, m - 1) and 9 <= k <= n - 3,
    }


class TestBasePartialSet:
    def test_contains_first_marker_square(self):
        squares = {sq for sq, _fam in blueprint(13, 14).tagged}
        assert Square.canonical(4, 14, 13, 13) in squares

    def test_contains_row4_diagonals(self):
        squares = {sq for sq, _fam in blueprint(13, 14).tagged}
        for k in (6, 7, 8):
            assert Square(4, k, 4, k) in squares

    @pytest.mark.parametrize("m,n", [(13, 14), (20, 40)])
    def test_region_audit(self, m, n):
        regions = _region_predicates(m, n)
        for sq, fam in blueprint(m, n).tagged:
            pred = regions[fam]
            for (i, k) in sq.cells():
                assert pred(i, k), f"{fam} square {sq} covers ({i},{k})"

    @pytest.mark.parametrize("m", range(13, 21))
    def test_conflict_free_sweep(self, m):
        # construction raises ConflictingPairError if any two families touch
        for n in range(14, 41):
            partial = blueprint(m, n).partial_set()
            rows, cols = free_block(m, n)
            for i in rows:
                for k in cols:
                    assert not partial.covers(i, k)

    def test_free_block_is_exactly_uncovered_for_extension(self):
        partial = blueprint(14, 20).partial_set()
        rows, cols = free_block(14, 20)
        uncovered_in_block = sum(
            not partial.covers(i, k) for i in rows for k in cols
        )
        assert uncovered_in_block == len(rows) * len(cols)

    def test_bounds(self):
        with pytest.raises(RangeError):
            blueprint(12, 14).partial_set()
        with pytest.raises(RangeError):
            blueprint(13, 13).partial_set()

    def test_merging_onto_a_covered_pair_conflicts(self):
        from bmwgroups.errors import ConflictingPairError
        from bmwgroups.structure import PartialStructureSet

        partial = blueprint(13, 14).partial_set()
        clash = PartialStructureSet.from_squares(13, 14, [Square(1, 1, 1, 1)])
        with pytest.raises(ConflictingPairError):
            partial.merge(clash)


class TestBlueprintConflicts:
    def test_tagged_conflict_names_both_families(self):
        bp = blueprint(13, 14)
        clashing = with_square(bp, Square(1, 1, 1, 2), "clash")
        assert clashing.tagged == bp.tagged + (TaggedSquare(Square(1, 1, 1, 2), "clash"),)
        with pytest.raises(ConflictingPairError) as err:
            clashing.partial_set()
        assert err.value.pair == (1, 1)
        assert err.value.tags == ("seed", "clash")

    def test_identical_seed_square_accepted(self):
        bp = blueprint(13, 14)
        again = with_square(bp, Square(1, 1, 1, 1), "seed")
        assert again.tagged == bp.tagged + (TaggedSquare(Square(1, 1, 1, 1), "seed"),)
        partial = again.partial_set()
        assert partial.to_squares() == bp.partial_set().to_squares()


class TestBlueprintArrays:
    @pytest.mark.parametrize("m", range(13, 21))
    def test_tagged_and_families_equal_the_square_loop(self, m):
        for n in range(14, 41):
            bp, tagged = blueprint(m, n), blueprint_by_loop(m, n)
            assert bp.tagged == tagged
            families = bp.families()
            expected = families_by_loop(tagged)
            assert list(families) == list(expected)
            for fam, squares in families.items():
                assert squares.shape == (len(expected[fam]), 4)
                assert squares.tolist() == [list(sq) for sq in expected[fam]]

    def test_arrays_are_read_only(self):
        bp = blueprint(13, 14)
        assert not bp.squares.flags.writeable and not bp.family.flags.writeable

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_outer_involutions_equal_their_cycles(self, side):
        outer = outer_a_involution if side == "a" else outer_b_involution
        for d in range(14, 62):
            for i in (1, 2, 3):
                assert outer(i, d) == outer_involution_by_cycles(side, i, d)


class TestExtension:
    def test_empty_filler_valid_and_full_symmetric(self):
        s = extension(13, 14)
        assert validate(13, 14, s.to_squares()) == s
        assert PermutationGroup(14, s.local_involutions("B")).order() == math.factorial(14)
        assert PermutationGroup(13, s.local_involutions("A")).order() == math.factorial(13)

    def test_distinct_fillers_distinct_sets(self):
        f1 = random_filler(14, 20, RngState(1))
        f2 = random_filler(14, 20, RngState(2))
        s1, s2 = extension(14, 20, f1), extension(14, 20, f2)
        assert s1 != s2
        assert formats.dumps(formats.structure_set_document(s1)) != formats.dumps(
            formats.structure_set_document(s2)
        )

    def test_fifth_b_involution_is_the_padded_outer_one(self):
        s = extension(13, 14)
        assert s.local_involutions("B")[4] == outer_b_involution(1, 14)

    def test_second_to_last_b_involution_is_the_marker_transposition(self):
        for (m, n) in ((13, 14), (15, 22)):
            s = extension(m, n)
            assert s.local_involutions("B")[m - 2] == cyc(n, (4, n - 2))

    def test_filler_must_stay_in_block(self):
        bad = [cyc(20, (1, 2))]
        with pytest.raises(RangeError):
            extension(14, 20, bad)

    def test_empty_filler_allowed_and_length_checked(self):
        assert extension(14, 20, []) == extension(14, 20)
        with pytest.raises(RangeError):
            extension(14, 20, [Permutation.identity(20), Permutation.identity(20)])

    def test_filler_row_squares_present(self):
        rows, cols = free_block(14, 20)
        assert (list(rows), list(cols)) == ([11], list(range(12, 18)))
        sigma = cyc(20, (12, 13), (14, 16))
        s = extension(14, 20, [sigma])
        assert s.partner(11, 12) == (11, 13)
        assert s.partner(11, 14) == (11, 16)
        assert s.partner(11, 15) == (11, 15)

    def test_filler_row_of_wrong_degree_refused(self):
        with pytest.raises(RangeError, match="degree n"):
            extension(14, 20, [cyc(21, (12, 13))])

    def test_filler_row_that_is_not_an_involution_refused(self):
        with pytest.raises(RangeError, match="must be involutions"):
            extension(14, 20, [cyc(20, (12, 13, 14))])

    def test_base_covering_the_free_block_conflicts_with_a_filler(self):
        bp = with_square(blueprint(14, 20), Square(11, 12, 11, 12), "clash")
        sigma = cyc(20, (12, 13), (14, 16))
        with pytest.raises(ConflictingPairError) as err:
            bp.extension([sigma])
        assert err.value.pair == (11, 12)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([(21, ()), (20, ((12, 13, 14),))], "degree n"),
            ([(20, ((12, 13, 14),)), (21, ())], "must be involutions"),
            ([(20, ((12, 13), (1, 2))), (21, ())], "moves 1 outside"),
            ([(20, ((12, 13),)), (20, ((13, 18),))], "moves 13 outside"),
            ([(20, ((12, 13),)), (20, ((5, 14),))], "moves 5 outside"),
        ],
    )
    def test_first_faulty_filler_row_decides(self, rows, message):
        # free rows 11 and 12, free columns 12..17: the first faulty row raises
        # its first fault, in the order degree, involution, columns
        filler = [cyc(d, *cycles) for d, cycles in rows]
        with pytest.raises(RangeError, match=message):
            extension(15, 20, filler)

    @pytest.mark.parametrize("m", range(13, 17))
    def test_fill_table_equals_the_merged_squares(self, m):
        for n in range(14, 41):
            assert extension(m, n) == extension_by_merge(m, n)
            for seed in (1, 2):
                filler = random_filler(m, n, RngState(seed))
                assert extension(m, n, filler) == extension_by_merge(m, n, filler)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_fill_table_equals_the_merged_squares_at_scale(self, seed):
        filler = random_filler(60, 120, RngState(seed))
        assert extension(60, 120, filler) == extension_by_merge(60, 120, filler)

    def test_random_filler_entries_supported_on_block(self):
        rows, cols = free_block(15, 24)
        col_set = set(cols)
        for sigma in random_filler(15, 24, RngState(9)):
            assert sigma.is_involution()
            for p in sigma.moved_points():
                assert p in col_set


class TestSchreierClaim:
    @pytest.mark.parametrize("n", [14, 15, 20, 21, 30, 31, 40])
    def test_connected_and_odd_walk(self, n):
        check = schreier_claim_check(n)
        assert isinstance(check, ClaimCheck)
        assert check.connected
        assert check.not_bipartite

    def test_simple_graph_is_a_path_so_loops_carry_the_claim(self):
        check = schreier_claim_check(14)
        analysis = check.analysis
        assert analysis.bipartite  # the loopless graph 2-colors
        assert analysis.loops  # fixed points supply the odd closed walks
        degree_count = {}
        for (u, v) in analysis.edges:
            degree_count[u] = degree_count.get(u, 0) + 1
            degree_count[v] = degree_count.get(v, 0) + 1
        assert sorted(degree_count.values())[-1] <= 2  # path shape

    def test_bound(self):
        with pytest.raises(RangeError):
            schreier_claim_check(13)
