import itertools
import math
import tracemalloc

import numpy as np
import pytest

import bmwgroups.permgroup as permgroup
from bmwgroups import radu, schreier
from bmwgroups.errors import ResourceError, UsageError
from bmwgroups.perm import Permutation, enumerate_fpf
from bmwgroups.permgroup import (
    _JORDAN_SEED,
    DEFAULT_JORDAN_WORD_LEN,
    DEFAULT_JORDAN_WORDS,
    PermutationGroup,
    _alternating_by_jordan,
    _block_stack,
    _classify_groups,
    _cycles,
    _involution_rows,
    _isolated_primes,
    _odd_generators,
    _orbit_labels,
    _row_primes,
    schreier_analysis,
)
from bmwgroups.randmodel import (
    irr_certificate,
    match_graph,
    sample_tuple,
    structure_set_from_tuple,
)
from bmwgroups.rng import RngState

from .lowered import lower_rejection_limits
from .oracles import (
    closure_order,
    contains_alternating_by_closure,
    contains_alternating_by_word_loop,
    is_primitive_by_all_blocks,
    is_primitive_by_partition_scan,
    is_two_transitive_by_closure,
    orbit_by_search,
    prime_cycle_by_walk,
    random_fpf_images,
    word_by_scalar_loop,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def group(n, *perms):
    return PermutationGroup(n, perms)


def _random_perm(degree, rng):
    images = list(range(1, degree + 1))
    for i in range(degree - 1, 0, -1):
        j = rng.randbelow(i + 1)
        images[i], images[j] = images[j], images[i]
    return Permutation(images)


SYM5 = group(5, cyc(5, (1, 2)), cyc(5, (1, 2, 3, 4, 5)))
KLEIN = group(4, cyc(4, (1, 2), (3, 4)), cyc(4, (1, 3), (2, 4)))
DIHEDRAL4 = group(4, cyc(4, (1, 2, 3, 4)), cyc(4, (1, 3)))


class TestGenerators:
    def test_distinct_non_identity_generators_keep_first_seen_order(self):
        a, b, c = cyc(5, (1, 2)), cyc(5, (1, 2, 3, 4, 5)), cyc(5, (2, 3))
        e = Permutation.identity(5)
        gens = [e, b, a, Permutation(b.images), e, c, a, b, Permutation(c.images)]
        g = PermutationGroup(5, gens)
        assert (g.images0 + 1).tolist() == [list(b.images), list(a.images), list(c.images)]
        assert g.generators == tuple(gens)
        assert PermutationGroup(5, [e, e]).images0.shape == (0, 5)


def _b_side_group(m, n, seed):
    """The B-side group of a sampled tuple without triple matchings."""
    rng = RngState(seed)
    while True:
        tup = sample_tuple(m, n, rng)
        if match_graph(tup).triple_witness() is None:
            return PermutationGroup._from_images0(n, tup.images - 1)


# (degree, cycle lengths, the isolated prime)
CRAFTED_CYCLE_TYPES = [
    (24, (7, 14), None),  # p divides another length
    (20, (5, 5, 3), 3),  # two 5-cycles; 3 divides nothing else
    (20, (5, 5), None),
    (10, (7,), 7),  # p = d - 3
    (9, (7,), None),  # p = d - 2
    (9, (5, 2), 5),
    (30, (11, 13, 2, 4), 13),  # the largest p wins
    (60, (11, 13, 26), 11),
    (12, (), None),  # the identity
]


def _from_cycle_type(degree, lengths):
    """A permutation of the given degree with consecutive cycles of these lengths."""
    start, cycles = 1, []
    for length in lengths:
        cycles.append(tuple(range(start, start + length)))
        start += length
    return Permutation.from_cycles(degree, cycles)


class TestArrayGroup:
    """The array layer against the Python walks it replaced, kept in ``oracles``."""

    def test_array_constructor_matches_permutation_constructor(self):
        a, b = cyc(6, (1, 2)), cyc(6, (3, 4), (5, 6))
        e = Permutation.identity(6)
        table = np.array([p.images for p in (e, b, a, b, e)], dtype=np.int64) - 1
        g = PermutationGroup._from_images0(6, table)
        assert g.images0.tolist() == PermutationGroup(6, [e, b, a, b, e]).images0.tolist()
        assert g.generators == (b, a)
        assert not g.images0.flags.writeable

    def test_batch_constructor_keeps_distinct_moving_rows(self):
        # every (3, 4) tuple, many with repeated rows, and tables with identity rows
        pool = [e.images for e in enumerate_fpf(4)]
        tables = [list(rows) for rows in itertools.product(pool, repeat=3)]
        identity = (1, 2, 3, 4)
        tables += [[identity, pool[0], identity], [identity] * 3, [pool[2], pool[1], pool[2]]]
        tables = np.array(tables) - 1
        groups = PermutationGroup._batch_from_images0(4, tables)
        assert len(groups) == len(tables) == 30
        views = 0
        for g, table in zip(groups, tables.tolist()):
            rows = []  # the distinct moving rows in first-seen order, by a scan
            for row in table:
                if row != [0, 1, 2, 3] and row not in rows:
                    rows.append(row)
            assert g.images0.tolist() == rows
            alone = PermutationGroup._from_images0(4, np.array(table))
            assert g.images0.tolist() == alone.images0.tolist()
            assert g.images0.dtype == np.int64 and not g.images0.flags.writeable
            views += g.images0.base is groups[5].images0.base  # groups[5]: pool 0, 1, 2
        assert views == 6  # the six tuples of three distinct rows view one array
        empty = PermutationGroup._batch_from_images0(5, np.empty((2, 0, 5), dtype=np.int64))
        assert [g.images0.shape for g in empty] == [(0, 5), (0, 5)]

    @pytest.mark.parametrize("n, count", [(200, 300), (7778, 100)])
    def test_prime_cycle_matches_walk_on_sampled_words(self, n, count):
        g = _b_side_group(6, n, n)
        rng = RngState(7)
        found = 0
        for _ in range(count):
            word = g._word_element(rng, 100)
            p = int(_row_primes(word[None])[0]) or None  # one block
            assert p == prime_cycle_by_walk(word.tolist())
            found += p is not None
        assert found  # some words certify

    @pytest.mark.parametrize("degree, lengths, expected", CRAFTED_CYCLE_TYPES)
    def test_prime_cycle_on_crafted_cycle_types(self, degree, lengths, expected):
        perm = _from_cycle_type(degree, lengths)
        img0 = [v - 1 for v in perm.images]
        assert prime_cycle_by_walk(img0) == expected
        assert (int(_row_primes(np.array([img0]))[0]) or None) == expected

    @pytest.mark.parametrize("degree", sorted({case[0] for case in CRAFTED_CYCLE_TYPES}))
    def test_isolated_primes_of_stacked_crafted_cycle_types(self, degree):
        # every crafted cycle type that fits in the degree, as one block of one permutation
        types = [lengths for _, lengths, _ in CRAFTED_CYCLE_TYPES if sum(lengths) <= degree]
        blocks = [[v - 1 for v in _from_cycle_type(degree, lengths).images] for lengths in types]
        stacked = (np.array(blocks) + np.arange(0, len(blocks) * degree, degree)[:, None]).ravel()
        minima, lengths = _cycles(stacked, degree)
        got = _isolated_primes(minima // degree, lengths, len(blocks), degree).tolist()
        assert got == [prime_cycle_by_walk(block) or 0 for block in blocks]
        for d, lengths, expected in CRAFTED_CYCLE_TYPES:
            if d == degree:
                assert got[types.index(lengths)] == (expected or 0)

    def test_isolated_primes_of_stacked_words(self):
        stack = _block_stack([_b_side_group(6, 200, seed) for seed in range(30)])
        rng = RngState(5)
        found = 0
        for _ in range(20):
            word = stack._word_element(rng, 100)
            minima, lengths = _cycles(word, 200)
            got = _isolated_primes(minima // 200, lengths, 30, 200).tolist()
            blocks = (word.reshape(30, 200) - np.arange(0, 6000, 200)[:, None]).tolist()
            assert got == [prime_cycle_by_walk(block) or 0 for block in blocks]
            found += sum(map(bool, got))
        assert found  # some blocks have an isolated prime

    def test_parity_matches_permutation_parity(self):
        rng = RngState(17)
        for degree in (1, 2, 5, 200, 7778):
            perms = [Permutation.identity(degree)] + [_random_perm(degree, rng) for _ in range(6)]
            for perm in perms:
                g = PermutationGroup(degree, [perm])
                assert g._has_odd_generator() == (perm.parity() == 1)
            g = PermutationGroup(degree, perms)
            assert g._has_odd_generator() == any(perm.parity() for perm in perms)

    def test_transitivity_matches_search(self):
        d = 4096
        forward = Permutation.from_cycles(d, [tuple(range(1, d + 1))])
        # two involutions whose Schreier graph is a path 1 - 2 - ... - d
        left = Permutation.from_cycles(d, [(i, i + 1) for i in range(1, d, 2)])
        right = Permutation.from_cycles(d, [(i, i + 1) for i in range(2, d, 2)])
        halves = Permutation.from_cycles(d, [tuple(range(1, d // 2 + 1))])
        rng = RngState(3)
        # the same d-cycle and path with their points numbered at random
        shuffle = _random_perm(d, rng)
        relabel = [shuffle.inverse() * p * shuffle for p in (forward, left, right)]
        cases = [
            [forward],
            [left, right],
            relabel[:1],
            relabel[1:],
            [left],
            [halves, left],
            [Permutation.identity(d)],
            [cyc(9, (1, 2), (3, 4)), cyc(9, (2, 3)), cyc(9, (5, 6, 7))],
            [cyc(9, (1, 9))],
        ] + [[_random_involution(40, rng) for _ in range(2)] for _ in range(20)]
        for gens in cases:
            degree = gens[0].degree
            g = PermutationGroup(degree, gens)
            orbit = orbit_by_search([[v - 1 for v in p.images] for p in gens])
            assert g.is_transitive() == (len(orbit) == degree)
        assert all(PermutationGroup(d, gens).is_transitive() for gens in cases[:4])
        assert not PermutationGroup(d, [halves, left]).is_transitive()

    @pytest.mark.parametrize("lowered", [False, True])
    def test_word_element_draws_as_the_scalar_loop(self, monkeypatch, lowered):
        # lowered: about one draw in 16 is rejected
        g = _b_side_group(6, 200, 11)
        rejected = lower_rejection_limits(monkeypatch) if lowered else []
        rows = g.images0.tolist()
        rng, scalar = RngState(23), RngState(23)
        for _ in range(200):
            word = g._word_element(rng, 100)
            assert word.tolist() == word_by_scalar_loop(rows, scalar, 100)
            assert rng.index == scalar.index
        assert any(rejected) == lowered  # the block draw's rejection branch ran

    @staticmethod
    def _word_cases():
        """(group, involution flags or None) pairs whose words reduce differently."""
        cycles = group(7, cyc(7, (1, 2, 3)), cyc(7, (3, 4, 5, 6, 7)))  # no letter cancels
        mixed = group(5, cyc(5, (1, 2)), cyc(5, (1, 2, 3, 4, 5)))  # only the first cancels
        alone = group(6, cyc(6, (1, 2), (3, 4), (5, 6)))  # every even-length word cancels whole
        # row 0 is an involution in the first block and a 7-cycle in the second
        first = group(7, cyc(7, (1, 2), (3, 4)), cyc(7, (1, 2, 3, 4, 5, 6, 7)))
        second = group(7, cyc(7, (1, 2, 3, 4, 5, 6, 7)), cyc(7, (5, 6)))
        stack = _block_stack([first, second])
        flags = _involution_rows(stack.images0)
        assert flags == [False, False]
        assert _involution_rows(first.images0) == [True, False]
        # a sub-stack keeps the flags of the stack it came from
        return [(cycles, None), (mixed, None), (alone, None), (stack, None), (first, flags)]

    @pytest.mark.parametrize("lowered", [False, True])
    def test_reduced_word_equals_the_scalar_loop(self, monkeypatch, lowered):
        rejected = lower_rejection_limits(monkeypatch) if lowered else []
        identities = 0
        for g, flags in self._word_cases():
            rows = g.images0.tolist()
            rng, scalar = RngState(31), RngState(31)
            for _ in range(300):
                word = g._word_element(rng, 12, flags)
                assert word.tolist() == word_by_scalar_loop(rows, scalar, 12)
                assert rng.index == scalar.index
                identities += word.tolist() == list(range(g.degree))
        assert identities  # some words cancelled whole
        assert any(rejected) == lowered

    def test_word_element_rejection_branch_runs(self, monkeypatch):
        calls = []
        real = RngState.randbelow

        def counted(self, bound):
            calls.append(bound)
            return real(self, bound)

        monkeypatch.setattr(RngState, "randbelow", counted)
        g = _b_side_group(6, 200, 11)
        g._word_element(RngState(23), 100)
        assert calls == [100]  # the block path draws only the length
        lower_rejection_limits(monkeypatch, by=1 << 63)
        calls.clear()
        rng = RngState(23)
        while len(calls) < 2:
            g._word_element(rng, 100)
        assert set(calls) == {100, len(g.images0)}  # the scalar loop drew the letters

    def test_certificate_groups_classify_as_permutation_groups(self):
        # irr_certificate builds both groups from arrays; the benchmark's own
        # check rebuilds them from the structure set's local involutions
        for n, count in ((200, 12), (7778, 2)):
            root = RngState(n + 1)
            checked = 0
            for t in range(100):
                tup = sample_tuple(6, n, root.derive(t))
                if match_graph(tup).triple_witness() is not None:
                    continue
                s = structure_set_from_tuple(tup)
                rep = irr_certificate(tup)
                assert rep.a_local == PermutationGroup(6, s.local_involutions("A")).classify()
                assert rep.b_local == PermutationGroup(n, s.local_involutions("B")).classify()
                checked += 1
                if checked == count:
                    break
            assert checked == count


class TestOrder:
    def test_sym5(self):
        assert SYM5.order() == 120 == closure_order(SYM5.generators)

    def test_klein(self):
        assert KLEIN.order() == 4 == closure_order(KLEIN.generators)

    def test_trivial(self):
        assert group(3, Permutation.identity(3)).order() == 1

    def test_guard(self):
        gen = Permutation.transposition(3000, 1, 2)
        with pytest.raises(ResourceError):
            PermutationGroup(3000, [gen]).order()

    def test_random_groups_match_closure(self):
        rng = RngState(31)
        for degree in (4, 5, 6, 7):
            for _ in range(10):
                gens = [_random_perm(degree, rng) for _ in range(2)]
                g = PermutationGroup(degree, gens)
                assert g.order() == closure_order(gens)

    def test_order_divides_factorial_and_gen_orders_divide(self):
        rng = RngState(77)
        for _ in range(25):
            degree = 4 + rng.randbelow(4)
            gens = [_random_perm(degree, rng) for _ in range(2)]
            g = PermutationGroup(degree, gens)
            order = g.order()
            assert math.factorial(degree) % order == 0
            for gen in gens:
                k = 1
                power = gen
                while not power.is_identity():
                    power = power * gen
                    k += 1
                assert order % k == 0


def _random_transposition(degree, rng):
    i = 1 + rng.randbelow(degree)
    j = 1 + rng.randbelow(degree - 1)
    return Permutation.transposition(degree, i, j + (j >= i))


def _random_involution(degree, rng):
    images = list(range(1, degree + 1))
    points = list(range(degree))
    for _ in range(1 + rng.randbelow(degree // 2)):
        x = points.pop(rng.randbelow(len(points)))
        y = points.pop(rng.randbelow(len(points)))
        images[x], images[y] = y + 1, x + 1
    return Permutation(images)


def _random_three_cycle(degree, rng):
    points = list(range(1, degree + 1))
    return cyc(degree, tuple(points.pop(rng.randbelow(len(points))) for _ in range(3)))


def _cross_check_groups():
    """The closure test's groups, then random groups at d = 5..8 of several shapes."""
    rng = RngState(31)
    for degree in (4, 5, 6, 7):
        for _ in range(10):
            yield degree, [_random_perm(degree, rng) for _ in range(2)]
    rng = RngState(2718)
    shapes = (_random_perm, _random_transposition, _random_involution, _random_three_cycle)
    for degree in (5, 6, 7, 8):
        for k in range(40):
            count = 1 + rng.randbelow(4)
            yield degree, [shapes[(k + i) % 4](degree, rng) for i in range(count)]


def _assert_order_matches_chain(degree, gens):
    g = PermutationGroup(degree, gens)
    order = g.order()
    assert order == schreier.chain_order(degree, [[v - 1 for v in p.images] for p in gens])
    return order


class TestTheoremRoute:
    """``order()`` decides by theorem where it can; it must agree with the chain."""

    def test_random_groups_match_chain_and_closure(self):
        for degree, gens in _cross_check_groups():
            order = _assert_order_matches_chain(degree, gens)
            if degree <= 6:
                assert order == closure_order(gens)

    def test_classification_fields_match_fresh_analyses(self):
        # the route records primitivity and 2-transitivity when it certifies Alt(d)
        for degree, gens in _cross_check_groups():
            cls = PermutationGroup(degree, gens).classify("exact")
            fresh = PermutationGroup(degree, gens)
            assert cls.is_primitive == fresh.is_primitive()
            assert cls.is_two_transitive == fresh.is_two_transitive()

    def test_transposition_branch_records_symmetric_facts(self):
        # a transitive group of transpositions is Sym(d): primitive and 2-transitive
        rng = RngState(4321)
        seen = set()
        for _ in range(80):
            degree = 2 + rng.randbelow(8)
            gens = [_random_transposition(degree, rng) for _ in range(1 + rng.randbelow(degree))]
            g = PermutationGroup(degree, gens)
            fresh = PermutationGroup(degree, gens)
            transitive = fresh.is_transitive()
            seen.add(transitive)
            order = g.order()
            facts = (True, True) if transitive else (None, None)
            assert (g._primitive, g._two_transitive) == facts
            assert g.is_transitive() is transitive
            assert g.is_primitive() == is_primitive_by_all_blocks(fresh)
            assert g.is_two_transitive() == fresh.is_two_transitive()
            if order <= 5040:
                assert g.is_two_transitive() == is_two_transitive_by_closure(gens, degree)
        assert seen == {False, True}

    def test_s0_local_actions_match_chain(self):
        for m in range(13, 17):
            for n in range(14, 21):
                s = radu.extension(m, n)
                assert _assert_order_matches_chain(n, s.local_involutions("B")) == math.factorial(n)
                assert _assert_order_matches_chain(m, s.local_involutions("A")) == math.factorial(m)

    def test_random_model_local_actions_match_chain(self):
        # both sides at (4, 6); the A side only at (6, 200), where a degree-200
        # chain would take minutes
        for (m, n), sides in (((4, 6), "AB"), ((6, 200), "A")):
            rng = RngState(1000 * m + n)
            built = 0
            while built < 50:
                graph = match_graph(sample_tuple(m, n, rng))
                if graph.triple_witness() is not None:
                    continue
                built += 1
                s = graph.structure_set()
                for side in sides:
                    degree = m if side == "A" else n
                    gens = s.local_involutions(side)
                    order = _assert_order_matches_chain(degree, gens)
                    if degree <= 6:
                        assert order == closure_order(list(dict.fromkeys(gens)))

    def test_imprimitive_wreath_falls_back_to_chain(self, monkeypatch):
        # Sym(3) wr Sym(2): transitive, imprimitive, with a transposition
        calls = []
        chain_order = schreier.chain_order

        def counted(degree, generators):
            calls.append(degree)
            return chain_order(degree, generators)

        monkeypatch.setattr(schreier, "chain_order", counted)
        g = group(6, cyc(6, (1, 2)), cyc(6, (1, 2, 3)), cyc(6, (1, 4), (2, 5), (3, 6)))
        assert g.order() == 72
        # a 3-cycle at degree 6: 2p = d, so primitivity is still checked
        g = group(6, cyc(6, (1, 2, 3)), cyc(6, (1, 4), (2, 5), (3, 6)))
        assert g.order() == 18
        assert calls == [6, 6]

    def test_theorem_cases_skip_the_chain(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("chain_order ran")

        monkeypatch.setattr(schreier, "chain_order", refuse)
        # every generator even: Alt(7), not Sym(7)
        assert group(7, cyc(7, (1, 2, 3)), cyc(7, (1, 2, 3, 4, 5, 6, 7))).order() == 2520
        # no generator powers to a prime cycle; a product of two does
        gens = [cyc(7, (1, 2), (3, 4)), cyc(7, (2, 3), (5, 6)), cyc(7, (4, 5), (6, 7))]
        assert group(7, *gens).order() == 2520
        # intransitive transpositions with components {1, 2, 3} and {4, 5}
        assert group(5, cyc(5, (1, 2)), cyc(5, (2, 3)), cyc(5, (4, 5))).order() == 12
        # a 5-cycle at degree 8 is primitive for free (2p > d); the 8-cycle is odd
        assert group(8, cyc(8, (1, 2, 3, 4, 5)), cyc(8, tuple(range(1, 9)))).order() == 40320


class TestTransitivity:
    def test_examples(self):
        assert SYM5.is_transitive()
        assert KLEIN.is_transitive()
        assert not group(4, cyc(4, (1, 2))).is_transitive()

    def test_two_transitive_examples(self):
        assert group(3, cyc(3, (1, 2)), cyc(3, (1, 2, 3))).is_two_transitive()
        assert not group(3, cyc(3, (1, 2, 3))).is_two_transitive()
        assert not DIHEDRAL4.is_two_transitive()

    def test_two_transitive_matches_closure_oracle(self):
        rng = RngState(13)
        for _ in range(20):
            degree = 4 + rng.randbelow(3)
            gens = [_random_perm(degree, rng) for _ in range(2)]
            got = PermutationGroup(degree, gens).is_two_transitive()
            assert got == is_two_transitive_by_closure(gens, degree)

    @staticmethod
    def _orbit_minima(rows):
        """The least point of every point's orbit, by one graph search per orbit."""
        gens0, labels = rows.tolist(), [None] * rows.shape[1]
        for x, label in enumerate(labels):
            if label is None:
                for y in orbit_by_search(gens0, x):
                    labels[y] = x
        return labels

    def test_orbit_labels_are_orbit_minima(self):
        b_sides = [_b_side_group(6, 200, seed) for seed in range(4)] + [_halves_tuple_group(200, 5)]
        rng = RngState(3)
        d = 40
        involutions = np.array([_random_involution(d, rng).images for _ in range(3)]) - 1
        mixed = np.array(
            [_random_three_cycle(d, rng).images, _random_transposition(d, rng).images]
        ) - 1
        cases = [
            b_sides[0].images0,
            _block_stack(b_sides).images0,  # involutions only, one intransitive block
            involutions,
            mixed,
            np.vstack([np.arange(d), involutions[:1], np.arange(d)]),  # identity rows
            np.vstack([involutions, mixed[:1]]),
            np.arange(d)[None],
            np.empty((0, d), dtype=np.int64),
        ]
        for rows in cases:
            assert _orbit_labels(rows).tolist() == self._orbit_minima(rows)

    def test_orbit_labels_of_involutions_hold_no_copy_of_the_rows(self):
        b_sides = [_b_side_group(6, 200, seed) for seed in range(20)]
        rows = _block_stack(b_sides).images0
        tracemalloc.start()
        try:
            _orbit_labels(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the inverse rows and one gather; a copy of the rows for the moves made it 3.7
        assert peak < 2.5 * rows.nbytes


def _dihedral(n):
    """The rotation and the reflection of D_n on 1..n, point x + 1 standing for x mod n."""
    return [
        Permutation([(x + 1) % n + 1 for x in range(n)]),
        Permutation([-x % n + 1 for x in range(n)]),
    ]


def _affine(p, c):
    """x -> x + 1 and x -> cx on F_p, as permutations of 1..p."""
    return [
        Permutation([(x + 1) % p + 1 for x in range(p)]),
        Permutation([c * x % p + 1 for x in range(p)]),
    ]


def _wreath(b, c):
    """Generators of Sym(b) wr Sym(c), block j being the points j*b + 1 .. j*b + b."""
    d = b * c
    return [
        cyc(d, (1, 2)),
        cyc(d, tuple(range(1, b + 1))),
        cyc(d, *[(x, x + b) for x in range(1, b + 1)]),
        Permutation([(x + b) % d + 1 for x in range(d)]),
    ]


def _random_wreath_element(b, c, rng):
    """A uniform element of Sym(b) wr Sym(c): a block permutation and one permutation per block."""
    blocks = [x - 1 for x in _random_perm(c, rng).images]
    within = [[x - 1 for x in _random_perm(b, rng).images] for _ in range(c)]
    return Permutation([blocks[x // b] * b + within[x // b][x % b] + 1 for x in range(b * c)])


def _primitivity_checked(degree, gens):
    """``is_primitive`` on fresh groups, checked against the all-blocks oracle and, up to
    degree 6, the partition scan."""
    got = PermutationGroup(degree, gens).is_primitive()
    assert got == is_primitive_by_all_blocks(PermutationGroup(degree, gens))
    if degree <= 6:
        assert got == is_primitive_by_partition_scan(gens, degree)
    return got


class TestPrimitivity:
    def test_examples(self):
        assert not KLEIN.is_primitive()
        assert group(4, cyc(4, (1, 2)), cyc(4, (1, 2, 3, 4))).is_primitive()
        assert not DIHEDRAL4.is_primitive()

    def test_block_witnesses(self):
        assert KLEIN.minimal_block_with(2) == frozenset({1, 2})
        assert DIHEDRAL4.minimal_block_with(3) == frozenset({1, 3})

    def test_intransitive_is_false(self):
        assert not group(4, cyc(4, (1, 2))).is_primitive()

    def test_matches_partition_scan_oracle(self):
        rng = RngState(29)
        for _ in range(20):
            degree = 4 + rng.randbelow(3)
            gens = [_random_perm(degree, rng) for _ in range(2)]
            g = PermutationGroup(degree, gens)
            if not g.is_transitive():
                assert not g.is_primitive()
                continue
            assert g.is_primitive() == is_primitive_by_partition_scan(gens, degree)

    def test_primitive_groups_with_several_suborbits(self):
        # prime degree: every transitive group is primitive.  The stabilizer
        # of 0 in D_p or in {x -> ax + b : a in <c>} acts on the other points
        # of F_p by multiplication with -1 or with the powers of c, so one
        # refinement runs per orbit of those multipliers
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            cases = [(_dihedral(p), {1, p - 1})]
            for c in range(1, p):
                cases.append((_affine(p, c), {pow(c, e, p) for e in range(p)}))
            for gens, multipliers in cases:
                assert _primitivity_checked(p, gens)
                if p > 2:
                    orbits = {frozenset(a * x % p for a in multipliers) for x in range(1, p)}
                    reps = PermutationGroup(p, gens)._suborbit_representatives()
                    assert reps == sorted(min(orbit) + 1 for orbit in orbits)

    def test_imprimitive_dihedral_and_wreath_groups(self):
        for n in (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 25, 27):
            assert not _primitivity_checked(n, _dihedral(n))
        rng = RngState(43)
        for b, c in itertools.product((2, 3, 4), repeat=2):
            assert not _primitivity_checked(b * c, _wreath(b, c))
            for _ in range(10):
                gens = [_random_wreath_element(b, c, rng) for _ in range(1 + rng.randbelow(3))]
                assert not _primitivity_checked(b * c, gens)

    def test_intransitive_groups_and_tiny_degrees(self):
        assert _primitivity_checked(1, [])
        assert not _primitivity_checked(2, [])
        assert _primitivity_checked(2, [cyc(2, (1, 2))])
        assert not _primitivity_checked(3, [cyc(3, (1, 2))])
        assert _primitivity_checked(3, [cyc(3, (1, 2, 3))])
        assert _primitivity_checked(3, [cyc(3, (1, 2)), cyc(3, (2, 3))])
        rng = RngState(47)
        for _ in range(20):
            degree = 4 + rng.randbelow(9)
            split = 1 + rng.randbelow(degree - 1)
            gens = [
                Permutation(
                    list(_random_perm(split, rng).images)
                    + [x + split for x in _random_perm(degree - split, rng).images]
                )
                for _ in range(2)
            ]
            assert not _primitivity_checked(degree, gens)

    def test_s0_local_actions_match_all_blocks(self):
        for m in range(13, 17):
            for n in range(14, 61):
                s = radu.extension(m, n)
                assert _primitivity_checked(n, s.local_involutions("B"))
                assert _primitivity_checked(m, s.local_involutions("A"))

    def test_large_degree_stays_small(self):
        # a (3000, 3000) transversal table would take 72 MB
        g = PermutationGroup._from_images0(3000, sample_tuple(6, 3000, RngState(1)).images - 1)
        tracemalloc.start()
        try:
            assert g.is_primitive() is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000_000

    def test_guard_refuses_before_any_work(self, monkeypatch):
        g = group(10_001, Permutation.transposition(10_001, 1, 2))

        def refuse(self):
            raise AssertionError("work ran")

        monkeypatch.setattr(PermutationGroup, "is_transitive", refuse)
        with pytest.raises(ResourceError):
            g.is_primitive()

    def test_implication_chain(self):
        rng = RngState(41)
        for _ in range(40):
            degree = 3 + rng.randbelow(5)
            g = PermutationGroup(degree, [_random_perm(degree, rng), cyc(degree, (1, 2))])
            two_t = g.is_two_transitive()
            prim = g.is_primitive()
            trans = g.is_transitive()
            if two_t:
                assert prim
            if prim:
                assert trans


class TestAlternatingRecognition:
    def test_sym7_exact(self):
        g = group(7, cyc(7, (1, 2)), cyc(7, (1, 2, 3, 4, 5, 6, 7)))
        assert g.contains_alternating("exact") is True
        assert g.order() == math.factorial(7)

    def test_klein_exact_false(self):
        assert KLEIN.contains_alternating("exact") is False

    def test_small_degree_brute(self):
        assert group(3, cyc(3, (1, 2, 3))).contains_alternating("exact") is True
        assert group(4, cyc(4, (1, 2))).contains_alternating("exact") is False
        assert (
            group(4, cyc(4, (1, 2, 3)), cyc(4, (2, 3, 4))).contains_alternating("exact")
            is True
        )

    def test_small_degrees_match_closure_oracle(self):
        # every group generated by at most two elements of Sym(d), d <= 4
        for degree in range(1, 5):
            elements = [Permutation([v + 1 for v in img])
                        for img in itertools.permutations(range(degree))]
            for k in (0, 1, 2):
                for gens in itertools.combinations(elements, k):
                    expected = contains_alternating_by_closure(gens, degree)
                    g = PermutationGroup(degree, gens)
                    assert g.contains_alternating("exact") is expected
                    assert g.contains_alternating("jordan") is expected
                    assert g.classify().contains_alternating is expected

    def test_alt_itself(self):
        alt5 = group(5, cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5)))
        assert alt5.contains_alternating("exact") is True
        assert alt5.order() == 60

    def test_jordan_intransitive_false(self):
        assert group(6, cyc(6, (1, 2))).contains_alternating("jordan") is False

    def test_jordan_on_symmetric_groups(self):
        for degree in (8, 24, 60, 150):
            g = group(
                degree,
                Permutation.transposition(degree, 1, 2),
                Permutation.from_cycles(degree, [tuple(range(1, degree + 1))]),
            )
            assert g.contains_alternating("jordan", rng=RngState(4)) is True

    def test_jordan_implies_exact(self):
        # agreement whenever both strategies run, sampled across degrees
        rng = RngState(55)
        for degree in (8, 12, 30, 60):
            gens = [_random_perm(degree, rng) for _ in range(2)]
            g = PermutationGroup(degree, gens)
            verdict = g.contains_alternating("jordan", rng=RngState(degree))
            if verdict is True:
                g2 = PermutationGroup(degree, gens)
                assert g2.contains_alternating("exact") is True

    def test_jordan_never_false_positive_on_imprimitive(self):
        # wreath-like imprimitive transitive group on 8 points
        g = group(
            8,
            cyc(8, (1, 2, 3, 4)),
            cyc(8, (5, 6, 7, 8)),
            cyc(8, (1, 5), (2, 6), (3, 7), (4, 8)),
        )
        assert g.contains_alternating("jordan", rng=RngState(9)) in (None, False)
        assert g.contains_alternating("exact") is False


def _stack_equals_word_loop(groups, words=DEFAULT_JORDAN_WORDS):
    """The stack's answers, checked against one word loop per group on a fresh copy."""
    got = _alternating_by_jordan(groups, None, words, DEFAULT_JORDAN_WORD_LEN)
    fresh = [PermutationGroup._from_images0(g.degree, g.images0) for g in groups]
    assert got == [
        contains_alternating_by_word_loop(
            g, RngState(_JORDAN_SEED), words, DEFAULT_JORDAN_WORD_LEN
        )
        for g in fresh
    ]
    return got


def _symmetric(degree):
    return group(
        degree,
        Permutation.transposition(degree, 1, 2),
        Permutation.from_cycles(degree, [tuple(range(1, degree + 1))]),
    )


def _halves_tuple_group(n, seed):
    """The group of six fixed-point-free involutions that each keep 1..n/2 in place as a set."""
    rng = RngState(seed)
    half = n // 2
    rows = []
    for _ in range(6):
        low = random_fpf_images(half, rng)
        high = [v + half for v in random_fpf_images(half, rng)]
        rows.append(low + high)
    return PermutationGroup._from_images0(n, np.array(rows) - 1)


class TestJordanStack:
    """Jordan words shared on a block-diagonal stack equal one word loop per group."""

    @pytest.mark.parametrize("n, count", [(200, 40), (7778, 3)])
    def test_sampled_b_sides(self, n, count):
        groups = [_b_side_group(6, n, seed) for seed in range(count)]
        got = _stack_equals_word_loop(groups)
        assert True in got

    def test_transitive_imprimitive_group_is_unknown(self):
        assert _stack_equals_word_loop([group(130, *_wreath(2, 65))], words=40) == [None]

    @pytest.mark.parametrize("degree", [12, 40])
    def test_small_p_defers_to_primitivity(self, degree):
        # the first 8 default words of Sym(degree) find only primes p <= degree/2
        g = _symmetric(degree)
        rows, rng = g.images0.tolist(), RngState(_JORDAN_SEED)
        primes = {prime_cycle_by_walk(word_by_scalar_loop(rows, rng, 100)) for _ in range(8)}
        assert primes - {None} and all(2 * p <= degree for p in primes - {None})
        assert _stack_equals_word_loop([g], words=8) == [True]
        assert g._primitive is True

    def test_mixed_batch(self):
        sampled = [_b_side_group(6, 200, seed) for seed in range(100, 130)]
        first_words = [
            word_by_scalar_loop(g.images0.tolist(), RngState(_JORDAN_SEED), 100) for g in sampled
        ]
        first_primes = list(map(prime_cycle_by_walk, first_words))
        assert any(p and 2 * p > 200 for p in first_primes)  # some blocks certify on word 0
        rows = sampled[0].images0.copy()
        rows[1] = rows[0]  # two coinciding rows: k = 5
        coinciding = PermutationGroup._from_images0(200, rows)
        assert len(coinciding.images0) == 5
        intransitive = _halves_tuple_group(200, 5)
        batch = sampled + [
            coinciding,
            intransitive,
            group(130, *_wreath(2, 65)),
            _symmetric(40),
            _symmetric(30),
            _symmetric(20),
            _symmetric(12),
            group(4, cyc(4, (1, 2, 3)), cyc(4, (2, 3, 4))),
            group(6, Permutation.identity(6)),
            sampled[3],  # a group listed twice
        ]
        got = _stack_equals_word_loop(batch, words=60)
        assert got[len(sampled):len(sampled) + 3] == [True, False, None]
        assert got[-1] == got[3]
        assert [g.is_transitive() for g in batch[len(sampled):]] == [
            True, False, True, True, True, True, True, True, False, True
        ]
        # one word: each shape's answers read its own fresh stream
        assert _stack_equals_word_loop(batch, words=1)[-7:-3] == [None, None, True, True]
        classified = _classify_groups(batch, "jordan", words=60)
        assert classified == [
            PermutationGroup._from_images0(g.degree, g.images0).classify("jordan", words=60)
            for g in batch
        ]

    def test_primitivity_fallback_after_the_stack_narrows(self):
        # groups of one (4, 130) shape: random generators (Sym(130)) and random
        # elements of Sym(5) wr Sym(26), which is imprimitive
        rng = RngState(41)
        symmetric = [group(130, *[_random_perm(130, rng) for _ in range(4)]) for _ in range(12)]
        rng = RngState(7)
        wreaths = [
            group(130, *[_random_wreath_element(5, 26, rng) for _ in range(4)]) for _ in range(12)
        ]

        def first_prime(g):
            rows = g.images0.tolist()
            return prime_cycle_by_walk(word_by_scalar_loop(rows, RngState(_JORDAN_SEED), 100))

        leaving = [g for g in symmetric if (first_prime(g) or 0) > 65]
        small = [g for g in symmetric if 0 < (first_prime(g) or 0) <= 65]
        none = [g for g in symmetric if first_prime(g) is None]
        small_wreaths = [g for g in wreaths if first_prime(g)]
        assert len(leaving) >= 2 and len(small) >= 2 and none and len(small_wreaths) >= 2
        # blocks leave on word 0 ahead of the blocks the fallback decides
        batch = [
            leaving[0], small[0], small_wreaths[0], leaving[1], none[0], small_wreaths[1], small[1]
        ]
        assert {g.images0.shape for g in batch} == {(4, 130)}
        assert _stack_equals_word_loop(batch, words=1) == [True, True, None, True, None, None, True]
        assert [g._primitive for g in batch] == [None, True, False, None, None, False, True]

    @pytest.mark.parametrize("lowered", [False, True])
    def test_explicit_rng_draws_as_the_word_loop(self, monkeypatch, lowered):
        # lowered: about one draw in 16 is rejected
        groups = [_b_side_group(6, 200, seed) for seed in range(6)]
        groups += [_symmetric(40), group(130, *_wreath(2, 65))]
        rejected = lower_rejection_limits(monkeypatch) if lowered else []
        for seed, g in enumerate(groups):
            rng, scalar = RngState(seed), RngState(seed)
            fresh = PermutationGroup._from_images0(g.degree, g.images0)
            got = g.contains_alternating("jordan", rng=rng, words=30)
            assert got == contains_alternating_by_word_loop(fresh, scalar, 30, 100)
            assert rng.index == scalar.index
        assert any(rejected) == lowered

    def test_explicit_rng_serves_one_group(self):
        groups = [_b_side_group(6, 200, seed) for seed in range(2)]
        with pytest.raises(UsageError):
            _alternating_by_jordan(groups, RngState(1), 10, 100)
        with pytest.raises(UsageError):
            _classify_groups(groups, "jordan", rng=RngState(1))


class TestSharedStack:
    """One block-diagonal stack per shape: transitivity, parity and the Jordan words read it."""

    @staticmethod
    def _batch():
        sampled = [_b_side_group(6, 200, seed) for seed in range(100, 130)]
        # an intransitive block of the sampled shape, and a second shape
        return sampled + [_halves_tuple_group(200, 5), _symmetric(40), _symmetric(30)]

    def test_one_stack_per_shape_however_many_blocks_certify(self, monkeypatch):
        stacked = []
        real = permgroup._block_stack

        def counted(groups):
            stacked.append(groups[0].images0.shape)
            return real(groups)

        monkeypatch.setattr(permgroup, "_block_stack", counted)
        batch = self._batch()
        got = _alternating_by_jordan(batch, None, DEFAULT_JORDAN_WORDS, DEFAULT_JORDAN_WORD_LEN)
        assert sorted(stacked) == [(2, 30), (2, 40), (6, 200)]
        # the sampled blocks certify on several different words
        certifying = set()
        for g in batch[:30]:
            rows, rng = g.images0.tolist(), RngState(_JORDAN_SEED)
            for j in range(DEFAULT_JORDAN_WORDS):
                p = prime_cycle_by_walk(word_by_scalar_loop(rows, rng, DEFAULT_JORDAN_WORD_LEN))
                if p and 2 * p > 200:
                    certifying.add(j)
                    break
        assert len(certifying) > 3 and got[:30].count(True) > 20
        stacked.clear()
        fresh = [PermutationGroup._from_images0(g.degree, g.images0) for g in self._batch()]
        classified = _classify_groups(fresh, "jordan")
        assert sorted(stacked) == [(2, 30), (2, 40), (6, 200)]
        assert [c.contains_alternating for c in classified] == got

    def test_odd_generators_match_permutation_parity(self):
        rng = RngState(19)
        groups = []
        while len(groups) < 40:
            # each row an involution, of either parity, or a random permutation
            gens = [
                _random_involution(12, rng) if rng.randbelow(2) else _random_perm(12, rng)
                for _ in range(3)
            ]
            if len(PermutationGroup(12, gens).images0) == 3:
                groups.append(PermutationGroup(12, gens))
        flags = [_involution_rows(g.images0) for g in groups]
        for r in range(3):
            assert 0 < sum(f[r] for f in flags) < len(groups)  # mixed rows
        first, second = (
            group(7, cyc(7, (1, 2), (3, 4)), cyc(7, (1, 2, 3, 4, 5, 6, 7))),
            group(7, cyc(7, (1, 2, 3, 4, 5, 6, 7)), cyc(7, (5, 6))),
        )
        for members, d in ((groups, 12), ([first, second], 7), (groups[:1], 12)):
            expected = [any(p.parity() == 1 for p in g.generators) for g in members]
            assert _odd_generators(_block_stack(members), d) == expected
        assert _odd_generators(_block_stack([first, second]), 7) == [False, True]


class TestClassify:
    def test_exact_classification(self):
        cls = SYM5.classify("exact")
        assert cls.method == "exact"
        assert cls.order == 120
        assert cls.equals_symmetric is True
        assert cls.contains_alternating is True
        assert cls.is_two_transitive is True
        d = cls.to_dict()
        assert d["order"] == 120 and d["equals_symmetric"] is True

    def test_jordan_classification_parity_refinement(self):
        # generated by odd permutations; alternating containment implies full Sym
        degree = 150
        g = group(
            degree,
            Permutation.transposition(degree, 1, 2),
            Permutation.from_cycles(degree, [tuple(range(1, degree + 1))]),
        )
        cls = g.classify("jordan", rng=RngState(8))
        assert cls.method == "jordan"
        assert cls.contains_alternating is True
        assert cls.equals_symmetric is True
        assert cls.is_two_transitive is True and cls.is_primitive is True
        assert cls.order is None
        assert g.classify("jordan").to_dict()["order"] == "unknown"

    def test_all_even_generators_rule_out_symmetric(self):
        alt6 = group(6, cyc(6, (1, 2, 3)), cyc(6, (2, 3, 4, 5, 6)))
        cls = alt6.classify("jordan", rng=RngState(3))
        assert cls.equals_symmetric is False

    def test_invariant_two_transitive_implies_primitive_implies_transitive(self):
        for g in (SYM5, KLEIN, DIHEDRAL4):
            cls = g.classify("exact")
            if cls.is_two_transitive:
                assert cls.is_primitive
            if cls.is_primitive:
                assert cls.is_transitive


class TestSchreierAnalysis:
    def test_single_edge(self):
        res = schreier_analysis([cyc(2, (1, 2))], [1, 2])
        assert res.connected and res.bipartite
        assert res.loops == ()

    def test_two_components(self):
        res = schreier_analysis([cyc(4, (1, 2)), cyc(4, (3, 4))], [1, 2, 3, 4])
        assert not res.connected
        assert res.bipartite  # loops are tracked separately, not as coloring obstructions
        assert len(res.loops) == 4

    def test_triangle_not_bipartite_with_witness(self):
        res = schreier_analysis([cyc(3, (1, 2)), cyc(3, (2, 3)), cyc(3, (1, 3))], [1, 2, 3])
        assert res.connected and not res.bipartite
        walk = res.odd_cycle
        assert walk[0] == walk[-1]
        assert (len(walk) - 1) % 2 == 1
        edges = set(res.edges)
        for u, v in zip(walk, walk[1:]):
            assert (min(u, v), max(u, v)) in edges

    def test_domain_invariance_required(self):
        from bmwgroups.errors import RangeError

        with pytest.raises(RangeError):
            schreier_analysis([cyc(4, (2, 3))], [1, 2])
