import pytest

from bmwgroups.errors import DegreeError
from bmwgroups.perm import (
    FpfInvolution,
    Permutation,
    count_fpf,
    count_involutions,
    double_factorial,
    enumerate_fpf,
)
from bmwgroups.randmodel import sample_tuple_images_batch
from bmwgroups.rng import RngState

from .oracles import (
    fpf_involutions_by_filter,
    involution_count_by_filter,
    pairing,
    random_fpf,
    restricted,
    shares_common_orbit,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


class TestPermutation:
    def test_rejects_non_bijections(self):
        for bad in ([1, 1], [0, 1], [2, 3], []):
            with pytest.raises(DegreeError):
                Permutation(bad)

    def test_compose_and_inverse(self):
        p = cyc(4, (1, 2, 3))
        q = cyc(4, (3, 4))
        assert (p * q)(3) == p(q(3))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_pow(self):
        p = cyc(5, (1, 2, 3, 4, 5))
        assert (p**5).is_identity()
        assert p**-1 == p.inverse()
        assert (p**3) * (p**2) == p**5

    def test_cycles_and_parity(self):
        p = cyc(6, (1, 2), (3, 4, 5))
        assert p.cycles() == ((1, 2), (3, 4, 5))
        assert p.parity() == 1
        assert cyc(6, (1, 2), (3, 4)).parity() == 0

    def test_restricted(self):
        p = cyc(8, (6, 8))
        r = restricted(p, range(6, 9))
        assert r.degree == 3 and r(1) == 3 and r(2) == 2
        with pytest.raises(DegreeError):
            restricted(cyc(8, (5, 6)), range(6, 9))


class TestFpfInvolution:
    def test_invariants_enforced(self):
        with pytest.raises(DegreeError):
            FpfInvolution([1, 2])  # fixed points
        with pytest.raises(DegreeError):
            FpfInvolution([2, 1, 3])  # odd degree / fixed point
        with pytest.raises(DegreeError):
            FpfInvolution([2, 3, 4, 1])  # 4-cycle, not an involution

    def test_pairing(self):
        assert pairing(cyc(4, (1, 2), (3, 4))) == frozenset({(1, 2), (3, 4)})
        assert pairing(cyc(6, (1, 2), (3, 4), (5, 6))) == frozenset(
            {(1, 2), (3, 4), (5, 6)}
        )

    def test_pairing_size_is_half_degree(self):
        rng = RngState(3)
        for n in (2, 4, 8, 12):
            for _ in range(20):
                assert len(pairing(random_fpf(n, rng))) == n // 2

    def test_shares_common_orbit(self):
        assert not shares_common_orbit(cyc(4, (1, 2), (3, 4)), cyc(4, (1, 3), (2, 4)))
        assert shares_common_orbit(
            cyc(6, (1, 2), (3, 4), (5, 6)), cyc(6, (1, 2), (3, 5), (4, 6))
        )
        a = FpfInvolution(random_fpf(8, RngState(5)).images)
        assert shares_common_orbit(a, a)

    def test_shares_common_orbit_symmetric(self):
        rng = RngState(17)
        for _ in range(100):
            a, b = random_fpf(8, rng), random_fpf(8, rng)
            assert shares_common_orbit(a, b) == shares_common_orbit(b, a)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeError):
            shares_common_orbit(random_fpf(4, RngState(0)), random_fpf(6, RngState(0)))


class TestCounting:
    def test_double_factorial(self):
        assert [double_factorial(k) for k in (-1, 0, 1, 3, 5, 9)] == [1, 1, 1, 3, 15, 945]

    # expected values computed by evaluating (n-1)!! by hand and frozen here;
    # the enumeration cross-check below recomputes them independently.
    @pytest.mark.parametrize("n,expected", [(2, 1), (4, 3), (6, 15), (8, 105), (10, 945)])
    def test_count_fpf_frozen_values(self, n, expected):
        assert count_fpf(n) == expected

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_count_fpf_matches_permutation_filter(self, n):
        assert count_fpf(n) == len(fpf_involutions_by_filter(n))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_count_fpf_matches_enumeration(self, n):
        assert count_fpf(n) == sum(1 for _ in enumerate_fpf(n))

    def test_count_fpf_rejects_odd_or_tiny(self):
        for bad in (0, 1, 3, 7):
            with pytest.raises(DegreeError):
                count_fpf(bad)

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (4, 10), (6, 76)])
    def test_count_involutions_frozen_values(self, n, expected):
        assert count_involutions(n) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_count_involutions_matches_filter(self, n):
        assert count_involutions(n) == involution_count_by_filter(n)

    def test_count_fpf_no_overflow(self):
        assert count_fpf(40) == double_factorial(39) > 2**64


class TestEnumeration:
    def test_elements_are_valid_and_distinct(self):
        seen = set()
        for alpha in enumerate_fpf(8):
            assert isinstance(alpha, FpfInvolution)
            seen.add(alpha.images)
        assert len(seen) == 105

    def test_matches_filter_oracle(self):
        assert {a.images for a in enumerate_fpf(6)} == set(fpf_involutions_by_filter(6))


class TestSampling:
    def test_degree_two_is_the_transposition(self):
        for seed in range(10):
            assert random_fpf(2, RngState(seed)).images == (2, 1)

    def test_rejects_odd_degree(self):
        with pytest.raises(DegreeError):
            random_fpf(3, RngState(0))

    def test_output_invariants(self):
        rng = RngState(123)
        for n in (2, 4, 6, 10, 20, 50):
            for _ in range(30):
                alpha = random_fpf(n, rng)
                img = alpha.images
                assert all(img[v - 1] == i + 1 and v != i + 1 for i, v in enumerate(img))

    def test_uniform_at_degree_four(self):
        # |F_4| = 3; each frequency within 0.02 of 1/3 over 30000 samples
        rng = RngState(2024)
        counts = {}
        for _ in range(30000):
            img = random_fpf(4, rng).images
            counts[img] = counts.get(img, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / 30000 - 1 / 3) < 0.02

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_uniform_chi_square(self, n):
        # >= 1e5 samples; chi-square below the 0.999 quantile
        from scipy.stats import chi2

        samples = 100_000
        # row t is random_fpf(n, RngState(777).derive(t))
        images = sample_tuple_images_batch(1, n, RngState(777), 0, samples)
        counts: dict = {}
        for row in images[:, 0]:
            key = row.tobytes()
            counts[key] = counts.get(key, 0) + 1
        cells = count_fpf(n)
        assert len(counts) == cells
        expected = samples / cells
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.999, cells - 1)
