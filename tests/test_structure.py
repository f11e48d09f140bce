import itertools
import math
import random

import numpy as np
import pytest

from bmwgroups.errors import (
    ConflictingPairError,
    DegreeError,
    DoublyCoveredPairError,
    IndexOutOfRangeError,
    ResourceError,
    UncoveredPairError,
)
from bmwgroups.perm import Permutation
from bmwgroups.permgroup import PermutationGroup
from bmwgroups import radu
from bmwgroups.radu import delta
from bmwgroups.randmodel import sample_tuple, structure_set_from_tuple
from bmwgroups.rng import RngState
from bmwgroups.structure import (
    PartialStructureSet,
    Relabeling,
    Square,
    StructureSet,
    all_diagonal,
    canonical_form,
    census_counts,
    complex_summary,
    count_up_to_relabeling,
    enumerate_structure_sets,
    presentation_text,
    relabel,
    validate,
)

from bmwgroups import structure

from .oracles import (
    census_classes_by_orbit_bfs,
    census_count_by_enumeration,
    iter_structure_sets,
    partner_table_fault,
    place_by_loop,
    squares_by_unique,
    structure_set_tables_by_filter,
)

# Every (m, n) with m * n <= 10, plus (3, 4) and (4, 3): small enough for
# the listing oracles.
ORACLE_CENSUS_DEGREES = [
    (m, n) for m in range(1, 11) for n in range(1, 11) if m * n <= 10
] + [(3, 4), (4, 3)]


def random_relabeling(m, n, rng):
    def perm(d):
        images = list(range(1, d + 1))
        for i in range(d - 1, 0, -1):
            j = rng.randbelow(i + 1)
            images[i], images[j] = images[j], images[i]
        return Permutation(images)

    return Relabeling(perm(m), perm(n))


class TestSquare:
    def test_canonical_ordering(self):
        assert Square.canonical(3, 5, 2, 4) == Square(2, 4, 3, 5)

    def test_cells_multiplicity(self):
        assert Square(1, 1, 1, 1).multiplicity() == 1
        assert Square(1, 1, 1, 2).multiplicity() == 2
        assert Square(1, 1, 2, 1).multiplicity() == 2
        assert Square(1, 1, 2, 2).multiplicity() == 4


class TestValidate:
    def test_delta_is_valid(self):
        s = delta()
        assert (s.m, s.n) == (4, 5)
        assert sum(sq.multiplicity() for sq in s.to_squares()) == 20

    def test_missing_square_reports_first_uncovered(self):
        squares = [sq for sq in delta().to_squares() if sq != Square(4, 3, 4, 4)]
        with pytest.raises(UncoveredPairError) as err:
            validate(4, 5, squares)
        assert err.value.pair == (4, 3)

    def test_one_by_one_trivial(self):
        s = validate(1, 1, [Square(1, 1, 1, 1)])
        assert s.partner(1, 1) == (1, 1)

    def test_double_cover_detected(self):
        with pytest.raises(DoublyCoveredPairError):
            validate(1, 2, [Square(1, 1, 1, 2), Square(1, 1, 1, 1)])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            validate(2, 2, [Square(1, 1, 3, 1)])

    def test_roundtrip_via_squares(self):
        for s in iter_structure_sets(2, 3):
            assert validate(s.m, s.n, s.to_squares()) == s

    def test_partner_table_axioms(self):
        s = delta()
        for i in range(1, 5):
            for k in range(1, 6):
                j, l = s.partner(i, k)
                assert s.partner(j, l) == (i, k)
                assert s.partner(i, l) == (j, k)


def _placement(m, n, squares, partial, place):
    """The table ``place`` builds, or the class, pair and message it raises."""
    try:
        return place(m, n, squares, partial).tolist()
    except Exception as exc:  # the oracle decides which exceptions are right
        return type(exc), getattr(exc, "pair", None), str(exc)


def _random_squares(m, n, rnd):
    """Up to 8 squares: repeats, degenerate, out-of-range and arbitrary ones."""
    squares = []
    for _ in range(rnd.randint(0, 8)):
        i, k, kind = rnd.randint(1, m), rnd.randint(1, n), rnd.random()
        if kind < 0.15 and squares:
            squares.append(list(rnd.choice(squares)))
        elif kind < 0.25:
            squares.append([rnd.randint(0, d + 1) for d in (m, n, m, n)])
        elif kind < 0.35:
            squares.append([i, k, i, k])
        elif kind < 0.45:
            squares.append([i, k, i, rnd.randint(1, n)])
        else:
            squares.append([i, k, rnd.randint(1, m), rnd.randint(1, n)])
    return squares


class TestPlacement:
    @pytest.mark.parametrize("seed", range(4))
    def test_array_placement_equals_the_square_loop(self, seed):
        rnd = random.Random(seed)
        outcomes = set()
        for _ in range(600):
            m, n = rnd.randint(1, 5), rnd.randint(1, 5)
            squares = _random_squares(m, n, rnd)
            for partial in (False, True):
                got = _placement(m, n, squares, partial, structure._place)
                assert got == _placement(m, n, squares, partial, place_by_loop), (m, n, squares, partial)
                array = np.array(squares, dtype=np.int64).reshape(-1, 4)
                assert _placement(m, n, array, partial, structure._place) == got
                outcomes.add(got[0] if isinstance(got, tuple) else "table")
        assert outcomes == {"table", DoublyCoveredPairError, IndexOutOfRangeError}

    @pytest.mark.parametrize("partial", [False, True])
    def test_empty_list_places_nothing(self, partial):
        assert not structure._place(3, 4, [], partial).any()
        expected = _placement(3, 4, [], partial, place_by_loop)
        assert _placement(3, 4, [], partial, structure._place) == expected

    @pytest.mark.parametrize("partial", [False, True])
    def test_an_index_past_int64_is_out_of_range(self, partial):
        squares = [[1, 1, 1, 1], [1, 2, 1, 10**30]]
        got = _placement(2, 2, squares, partial, structure._place)
        assert got == _placement(2, 2, squares, partial, place_by_loop)
        assert got[0] is IndexOutOfRangeError

    @pytest.mark.parametrize("row", [[1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, None]])
    def test_a_row_that_is_not_four_integers_is_refused(self, row):
        squares = [[1, 2, 1, 2], row]
        got = _placement(2, 2, squares, True, structure._place)
        assert got[0] is _placement(2, 2, squares, True, place_by_loop)[0]


class TestCheckedConstructor:
    @pytest.mark.parametrize("m,n", [(1, 3), (2, 2)])
    def test_accepts_exactly_the_filtered_tables(self, m, n):
        cells = [(i, k) for i in range(1, m + 1) for k in range(1, n + 1)]
        valid = {tuple(t[c] for c in cells) for t in structure_set_tables_by_filter(m, n)}
        accepted = 0
        for pairs in itertools.product(cells, repeat=len(cells)):
            if pairs in valid:
                assert StructureSet(m, n, pairs).encoding() == pairs
                accepted += 1
            else:
                with pytest.raises(DegreeError):
                    StructureSet(m, n, pairs)
        assert accepted == len(valid) == enumerate_structure_sets(m, n)

    def test_single_cell_mutations_of_delta(self):
        # every replacement of one partner, in range or not, against the oracle
        pairs = delta().encoding()
        cells = [(i, k) for i in range(1, 5) for k in range(1, 6)]
        refused = 0
        for c in range(20):
            for value in itertools.product(range(0, 6), range(0, 7)):
                mutated = pairs[:c] + (value,) + pairs[c + 1:]
                expected = partner_table_fault(4, 5, dict(zip(cells, mutated)))
                if expected is None:
                    assert StructureSet(4, 5, mutated) == delta()
                    continue
                refused += 1
                with pytest.raises(expected[0]) as err:
                    StructureSet(4, 5, mutated)
                assert (type(err.value), str(err.value)) == expected
        assert refused == 20 * 42 - 20

    def test_partial_mutations_of_delta(self):
        # the same laws on the defined cells, with the partial-table messages
        cells = dict(zip(
            [(i, k) for i in range(1, 5) for k in range(1, 6)], delta().encoding()
        ))
        for cell in cells:
            for value in [None] + list(itertools.product(range(0, 6), range(0, 7))):
                mutated = dict(cells)
                if value is None:
                    del mutated[cell]
                else:
                    mutated[cell] = value
                expected = partner_table_fault(4, 5, mutated, partial=True)
                if expected is None:
                    assert PartialStructureSet(4, 5, mutated).defined_cells() == set(mutated)
                    continue
                with pytest.raises(expected[0]) as err:
                    PartialStructureSet(4, 5, mutated)
                assert (type(err.value), str(err.value)) == expected

    def test_wrong_size_refused(self):
        with pytest.raises(DegreeError, match="wrong size"):
            StructureSet(2, 2, [(1, 1)] * 3)


class TestLocalInvolutions:
    def test_delta_b_side(self):
        alphas = delta().local_involutions("B")
        assert alphas[1] == Permutation.from_cycles(5, [(4, 5)])
        assert alphas[3] == Permutation.from_cycles(5, [(1, 2), (3, 4)])

    def test_delta_generates_full_symmetric(self):
        assert PermutationGroup(5, delta().local_involutions("B")).order() == 120
        assert PermutationGroup(4, delta().local_involutions("A")).order() == 24

    def test_all_diagonal_gives_identities(self):
        s = all_diagonal(3, 4)
        assert all(p.is_identity() for p in s.local_involutions("B"))
        assert all(p.is_identity() for p in s.local_involutions("A"))

    def test_equal_rows_and_columns_share_one_permutation(self):
        for s in iter_structure_sets(2, 3):
            b_side, a_side = s.local_involutions("B"), s.local_involutions("A")
            for i, k in itertools.product(range(1, 3), range(1, 4)):
                assert s.partner(i, k) == (a_side[k - 1](i), b_side[i - 1](k))
            for perms in (b_side, a_side):
                assert len({id(p) for p in perms}) == len({p.images for p in perms})

    @staticmethod
    def _sets_from_every_constructor():
        rng = RngState(77)
        sets = [delta(), all_diagonal(3, 4)]
        sets += [validate(s.m, s.n, s.to_squares()) for s in sets]
        sets += [StructureSet(s.m, s.n, s.encoding()) for s in sets]
        sets += [structure_set_from_tuple(sample_tuple(2, 12, rng.derive(t))) for t in range(5)]
        sets += [radu.extension(13, 14), radu.extension(14, 16, radu.random_filler(14, 16, rng))]
        sets += [radu.blueprint(13, 14).partial_set().complete_with_diagonal()]
        sets += [
            PartialStructureSet.from_squares(4, 5, [(1, 1, 2, 3), (3, 2, 4, 2)]).complete_with_diagonal(),
            PartialStructureSet(3, 3, {(1, 1): (2, 2), (2, 2): (1, 1), (1, 2): (2, 1), (2, 1): (1, 2)})
            .complete_with_diagonal(),
        ]
        sets += [s.transpose() for s in sets]
        sets += [relabel(s, random_relabeling(s.m, s.n, rng)) for s in sets]
        return sets + list(iter_structure_sets(2, 4)) + list(iter_structure_sets(3, 4))

    def test_unchecked_rows_equal_checked_permutations(self):
        for s in self._sets_from_every_constructor():
            b_rows = [[s.partner(i, k)[1] for k in range(1, s.n + 1)] for i in range(1, s.m + 1)]
            a_rows = [[s.partner(i, k)[0] for i in range(1, s.m + 1)] for k in range(1, s.n + 1)]
            for side, rows in (("B", b_rows), ("A", a_rows)):
                perms = s.local_involutions(side)
                assert perms == tuple(Permutation(row) for row in rows)
                assert all(type(v) is int for p in perms for v in p.images)

    @pytest.mark.parametrize(
        "side, table, message",
        [
            ("B", [[(1, 1), (1, 1)], [(2, 1), (2, 2)]], "[1, 1] is not a bijection of 1..2"),
            ("A", [[(2, 1), (1, 2)], [(2, 1), (2, 2)]], "[2, 2] is not a bijection of 1..2"),
        ],
    )
    def test_a_table_with_a_repeated_entry_is_refused(self, monkeypatch, side, table, message):
        def refuse(self, images):
            raise AssertionError("the checked constructor ran")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        broken = structure._frozen(StructureSet, np.array(table, dtype=np.int64))
        with pytest.raises(DegreeError) as err:
            broken.local_involutions(side)
        assert str(err.value) == message
        broken.local_involutions("A" if side == "B" else "B")  # the other side is sound

    def test_always_involutions(self):
        for s in iter_structure_sets(2, 3):
            for p in s.local_involutions("B") + s.local_involutions("A"):
                assert p.is_involution()


class TestRelabel:
    def test_identity_fixes(self):
        s = delta()
        r = Relabeling(Permutation.identity(4), Permutation.identity(5))
        assert relabel(s, r) == s

    def test_inverse_roundtrip(self):
        rng = RngState(5)
        s = delta()
        for _ in range(20):
            r = random_relabeling(4, 5, rng)
            rinv = Relabeling(r.mu.inverse(), r.nu.inverse())
            assert relabel(relabel(s, r), rinv) == s

    def test_equivariance_of_local_involutions(self):
        # after relabeling, alpha'_{mu(i)} = nu alpha_i nu^{-1}
        rng = RngState(8)
        for s in iter_structure_sets(2, 2):
            for _ in range(5):
                r = random_relabeling(2, 2, rng)
                relabeled = relabel(s, r)
                alphas = s.local_involutions("B")
                alphas2 = relabeled.local_involutions("B")
                for i in range(1, 3):
                    expected = r.nu * alphas[i - 1] * r.nu.inverse()
                    assert alphas2[r.mu(i) - 1] == expected


class TestCanonicalForm:
    def test_invariant_on_orbits_2x3(self):
        rng = RngState(12)
        for s in list(iter_structure_sets(2, 3))[::5]:
            c = canonical_form(s)
            for _ in range(6):
                assert canonical_form(relabel(s, random_relabeling(2, 3, rng))) == c

    def test_two_one_by_two_sets_distinguished(self):
        diag = all_diagonal(1, 2)
        paired = validate(1, 2, [Square(1, 1, 1, 2)])
        assert canonical_form(diag) != canonical_form(paired)

    def test_classes_2x2(self):
        forms = {canonical_form(s).encoding() for s in iter_structure_sets(2, 2)}
        assert len(forms) == 6

    def test_classes_match_orbit_counts(self):
        for m, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
            forms = {canonical_form(s).encoding() for s in iter_structure_sets(m, n)}
            assert len(forms) == count_up_to_relabeling(m, n)

    def test_exhaustive_orbit_invariance_2x2(self):
        for s in iter_structure_sets(2, 2):
            c = canonical_form(s)
            for mu in itertools.permutations((1, 2)):
                for nu in itertools.permutations((1, 2)):
                    r = Relabeling(Permutation(mu), Permutation(nu))
                    assert canonical_form(relabel(s, r)) == c

    def test_search_result_is_the_true_orbit_minimum(self):
        # brute-force lex-min of the row-major encoding over all relabelings
        for s in iter_structure_sets(2, 3):
            best = None
            for mu in itertools.permutations((1, 2)):
                for nu in itertools.permutations((1, 2, 3)):
                    r = Relabeling(Permutation(mu), Permutation(nu))
                    enc = []
                    for pair in relabel(s, r).encoding():
                        enc.extend(pair)
                    if best is None or enc < best:
                        best = enc
            got = []
            for pair in canonical_form(s).encoding():
                got.extend(pair)
            assert got == best

    def test_transposed_branch_is_orbit_invariant_and_distinguishing(self):
        rng = RngState(63)
        forms = {}
        for s in iter_structure_sets(3, 2):
            c = canonical_form(s)
            for _ in range(4):
                assert canonical_form(relabel(s, random_relabeling(3, 2, rng))) == c
            forms[c.encoding()] = forms.get(c.encoding(), 0) + 1
        assert len(forms) == count_up_to_relabeling(3, 2)

    def test_one_row_closed_form(self):
        s = validate(
            1, 6, [Square(1, 1, 1, 4), Square(1, 2, 1, 2), Square(1, 3, 1, 5), Square(1, 6, 1, 6)]
        )
        c = canonical_form(s)
        # two fixed labels first, then two adjacent transpositions
        assert c.to_squares() == (
            Square(1, 1, 1, 1),
            Square(1, 2, 1, 2),
            Square(1, 3, 1, 4),
            Square(1, 5, 1, 6),
        )

    def test_transpose_branch(self):
        s = all_diagonal(5, 2)  # m! > n!: search runs on the transpose
        assert canonical_form(s) == s

    def test_guard(self):
        with pytest.raises(ResourceError):
            canonical_form(all_diagonal(5, 5))


class TestPresentation:
    def test_one_by_one(self):
        text = presentation_text(validate(1, 1, [Square(1, 1, 1, 1)]))
        lines = text.strip().split("\n")
        assert lines[0] == "generators: a1 b1"
        assert lines[1:] == ["a1^2", "b1^2", "a1 b1 a1 b1"]

    def test_delta_counts(self):
        lines = presentation_text(delta()).strip().split("\n")
        assert lines[0].startswith("generators: ")
        assert len(lines[0].split()) == 1 + 4 + 5
        assert len(lines) - 1 == 4 + 5 + 11

    def test_relator_count_formula(self):
        for s in iter_structure_sets(2, 2):
            lines = presentation_text(s).strip().split("\n")
            assert len(lines) - 1 == 2 + 2 + len(s.to_squares())


class TestSquareView:
    """The low-corner square view against an ``np.unique`` over every covered cell."""

    @staticmethod
    def assert_matches_oracle(s):
        expected, squares = squares_by_unique(s), s.to_squares()
        assert squares == expected
        assert all(type(sq) is Square for sq in squares)
        if isinstance(s, StructureSet):
            assert s.to_dict()["squares"] == [list(sq) for sq in expected]
            assert repr(s).endswith(f"squares={len(expected)})")

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (2, 4), (3, 4)])
    def test_every_listed_set(self, m, n):
        for s in iter_structure_sets(m, n):
            self.assert_matches_oracle(s)

    @pytest.mark.parametrize("m,n", [(13, 14), (20, 40)])
    def test_base_partial_set_lists_no_free_cell(self, m, n):
        partial = radu.blueprint(m, n).partial_set()
        self.assert_matches_oracle(partial)
        cells = [cell for sq in partial.to_squares() for cell in sq.cells()]
        assert len(cells) == len(set(cells)) == len(partial)
        assert all(partial.covers(i, k) for i, k in cells)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_filled_extension(self, seed):
        filler = radu.random_filler(14, 20, RngState(seed))
        self.assert_matches_oracle(radu.extension(14, 20, filler))


class TestPartialAndMerge:
    def test_merge_with_empty_is_identity(self):
        p = PartialStructureSet.from_squares(2, 2, [Square(1, 1, 2, 2)])
        merged = p.merge(PartialStructureSet.empty(2, 2))
        assert merged.defined_cells() == p.defined_cells()

    def test_merge_conflict(self):
        p = PartialStructureSet.from_squares(2, 2, [Square(1, 1, 2, 2)])
        q = PartialStructureSet.from_squares(2, 2, [Square(1, 1, 1, 1)])
        with pytest.raises(ConflictingPairError):
            p.merge(q)

    def test_complete_empty_gives_all_diagonal(self):
        assert PartialStructureSet.empty(2, 2).complete_with_diagonal() == all_diagonal(2, 2)

    def test_completion_extends_without_changing(self):
        p = PartialStructureSet.from_squares(3, 3, [Square(1, 1, 2, 2)])
        s = p.complete_with_diagonal()
        for (i, k) in p.defined_cells():
            assert s.partner(i, k) == p.partner(i, k)

    def test_partial_square_closure_enforced(self):
        with pytest.raises(DegreeError, match="partial table is not an involution"):
            PartialStructureSet(2, 2, {(1, 1): (2, 2)})  # missing the mirror cells


class TestCensus:
    def test_counts_small(self):
        assert enumerate_structure_sets(1, 1) == 1
        assert enumerate_structure_sets(2, 2) == 8

    def test_2x2_matches_cellmap_filter_oracle(self):
        assert enumerate_structure_sets(2, 2) == len(structure_set_tables_by_filter(2, 2))
        assert enumerate_structure_sets(1, 3) == len(structure_set_tables_by_filter(1, 3))

    def test_one_row_census_counts_involutions(self):
        from bmwgroups.perm import count_involutions

        for n in (1, 2, 3, 4, 5):
            assert enumerate_structure_sets(1, n) == count_involutions(n)

    def test_one_row_census_is_involution_bijection(self):
        seen = set()
        for s in iter_structure_sets(1, 5):
            alpha = s.local_involutions("B")[0]
            assert alpha.is_involution()
            seen.add(alpha.images)
        assert len(seen) == 26

    def test_census_upper_bound(self):
        for m, n in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 3)):
            assert enumerate_structure_sets(m, n) <= (m * n) ** (m * n)

    def test_relabeling_class_counts(self):
        assert count_up_to_relabeling(1, 1) == 1
        assert count_up_to_relabeling(2, 2) == 6
        assert count_up_to_relabeling(1, 3) == 2

    def test_class_count_bounds(self):
        for m, n in ((1, 4), (2, 2), (2, 3), (3, 3)):
            total = enumerate_structure_sets(m, n)
            classes = count_up_to_relabeling(m, n)
            assert classes <= total
            assert classes * math.factorial(m) * math.factorial(n) >= total

    def test_guard(self):
        with pytest.raises(ResourceError):
            enumerate_structure_sets(3, 6)

    @pytest.mark.parametrize("m,n", ORACLE_CENSUS_DEGREES)
    def test_counts_match_listing_oracles(self, m, n):
        assert enumerate_structure_sets(m, n) == census_count_by_enumeration(m, n)
        assert count_up_to_relabeling(m, n) == census_classes_by_orbit_bfs(m, n)

    def test_transpose_symmetry(self):
        # the DP scans cells row-major, so (m, n) and (n, m) take different paths
        for m in range(1, 13):
            for n in range(m + 1, 13):
                if m * n <= 12:
                    assert enumerate_structure_sets(m, n) == enumerate_structure_sets(n, m)
                    assert count_up_to_relabeling(m, n) == count_up_to_relabeling(n, m)

    def test_one_row_classes_closed_form(self):
        # a class of one-row sets is fixed by its number of 2-cycles: 0..n // 2
        for n in range(1, 13):
            assert count_up_to_relabeling(1, n) == n // 2 + 1

    def test_burnside_remainder_raises(self, monkeypatch):
        fixed_count = structure._fixed_count

        def off_by_one(m, n, mu, nu):
            identity = list(mu) == list(range(m)) and list(nu) == list(range(n))
            return fixed_count(m, n, mu, nu) + (0 if identity else 1)

        monkeypatch.setattr(structure, "_fixed_count", off_by_one)
        assert enumerate_structure_sets(2, 3) == 38
        with pytest.raises(ArithmeticError):
            count_up_to_relabeling(2, 3)

    def test_census_counts_runs_the_identity_dp_once(self, monkeypatch):
        fixed_count = structure._fixed_count
        identity_runs = []

        def counted(m, n, mu, nu):
            if list(mu) == list(range(m)) and list(nu) == list(range(n)):
                identity_runs.append((m, n))
            return fixed_count(m, n, mu, nu)

        monkeypatch.setattr(structure, "_fixed_count", counted)
        for m, n in ((1, 4), (2, 3), (3, 4), (4, 1)):
            identity_runs.clear()
            got = census_counts(m, n)
            assert identity_runs == [(m, n)]
            assert got == (enumerate_structure_sets(m, n), count_up_to_relabeling(m, n))

    def test_guard_and_degree_checks_precede_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("census ran past its argument checks")

        monkeypatch.setattr(structure, "_fixed_count", refuse)
        for census in (enumerate_structure_sets, count_up_to_relabeling, census_counts):
            with pytest.raises(ResourceError, match=r"census guarded at m\*n <= 16, got 25"):
                census(5, 5)
            with pytest.raises(DegreeError):
                census(0, 3)

    def test_enumeration_yields_valid_distinct_sets(self):
        seen = set()
        for s in iter_structure_sets(2, 3):
            assert validate(2, 3, s.to_squares()) == s
            seen.add(s.encoding())
        assert len(seen) == enumerate_structure_sets(2, 3)


class TestComplexSummary:
    def test_all_diagonal(self):
        summary = complex_summary(all_diagonal(2, 2))
        assert summary.vertices == 4
        assert summary.horizontal_edges == 4
        assert summary.vertical_edges == 4
        assert summary.multiplicities == {1: 4}
        assert summary.pair_cover_total == 4

    def test_delta(self):
        summary = complex_summary(delta())
        assert summary.pair_cover_total == 20
        assert summary.distinct_squares == 11
        assert summary.multiplicities == {1: 4, 2: 6, 4: 1}

    def test_total_is_mn_for_every_set(self):
        for s in iter_structure_sets(2, 3):
            assert complex_summary(s).pair_cover_total == 6
