"""Acceptance suite: one test per exit criterion, with stated tolerances.

Each test prints a single ``ACCEPTANCE <k> PASS|FAIL`` line (run pytest with
``-s`` to see them on passing runs) before asserting, so the outcome of every
criterion is visible even when a later assertion fails.

Criterion 9 checks the random-model certificates on 50 seeded samples at
(m, n) = (6, 7778).  The conjuncts that hold almost surely at this size (no
triple matchings, a connected match graph, a black edge, a B-side action
containing Alt(n) or undecided) must hold in at least 45 of them.  The A-side
local action is Sym(6) exactly when the shared-orbit graph on the 6
coordinates is connected, which for fixed m stays near probability 0.578
however large n grows.  So that conjunct is checked sample by sample against
an independent connectivity oracle, and its count against the exact
Binomial(50, p_A) law: a 45/50 bar on it would hold with probability about
6.6e-7.
"""

import math
import time
from fractions import Fraction

from bmwgroups.perm import (
    count_fpf,
    count_involutions,
    double_factorial,
    enumerate_fpf,
)
from bmwgroups.permgroup import PermutationGroup
from bmwgroups.radu import delta, extension, random_filler, schreier_claim_check
from bmwgroups.randmodel import (
    InvolutionTuple,
    exact_orbit_share_prob,
    irr_certificate,
    match_graph,
    midpoint_property,
    monte_carlo,
    overlapping_matches,
    sample_tuple,
    structure_set_from_tuple,
    triple_matchings,
)
from bmwgroups.rng import RngState
from bmwgroups.structure import (
    count_up_to_relabeling,
    enumerate_structure_sets,
)

from .oracles import (
    connected_graph_probability,
    pairing,
    shared_orbit_graph_connected,
    white_edges,
)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_01_counting_identities():
    start = time.perf_counter()
    ok = True
    for n in (2, 4, 6, 8, 10):
        formula = count_fpf(n)
        ok = ok and formula == double_factorial(n - 1)
        ok = ok and formula == sum(1 for _ in enumerate_fpf(n))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(1, ok, f"(n-1)!! matches enumeration for n in 2..10 ({elapsed:.2f}s)")


def test_02_orbit_share_probability():
    start = time.perf_counter()
    ok = True
    for n in (2, 4, 6, 8):
        pool = list(enumerate_fpf(n))
        brute = Fraction(
            sum(bool(pairing(a) & pairing(b)) for a in pool for b in pool),
            len(pool) ** 2,
        )
        ok = ok and exact_orbit_share_prob(n).exact == brute
    ok = ok and exact_orbit_share_prob(4).exact == Fraction(1, 3)
    limit_gap = abs(exact_orbit_share_prob(1000).value - (1 - math.exp(-0.5)))
    ok = ok and limit_gap < 0.005
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert report(
        2, ok, f"exact shares match brute force; n=1000 within {limit_gap:.6f} ({elapsed:.2f}s)"
    )


def test_03_expected_matches():
    start = time.perf_counter()
    ok = True
    details = []
    for n in (6, 50, 500):
        result = monte_carlo("expected_M", 2, n, 100_000, RngState(11))
        stat = result.primary()
        exact = n / (2 * (n - 1))
        dev = abs(stat.mean - exact)
        ok = ok and dev <= 3 * stat.std_error
        details.append(f"n={n}: {dev / stat.std_error:.2f} sigma")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert report(3, ok, f"mean shared orbits within 3 SE ({'; '.join(details)}; {elapsed:.1f}s)")


def test_04_triple_matching_rate():
    start = time.perf_counter()
    exact_34 = monte_carlo("triple_matching_rate", 3, 4, 0, RngState(0))
    ok = exact_34.exact_repr["rate"] == "1/9"
    mc_3_100 = monte_carlo("triple_matching_rate", 3, 100, 100_000, RngState(13))
    bound = 4 * 3**3 / 100
    ok = ok and mc_3_100.primary().mean <= bound
    exact_36 = monte_carlo("triple_matching_rate", 3, 6, 0, RngState(0))
    mc_36 = monte_carlo("triple_matching_rate", 3, 6, 100_000, RngState(14))
    stat = mc_36.primary()
    ok = ok and abs(stat.mean - exact_36.primary().mean) <= 3 * stat.std_error
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert report(
        4,
        ok,
        f"(3,4) enumerates to 1/9; (3,100) rate {mc_3_100.primary().mean:.4f} <= {bound}"
        f"; (3,6) MC vs enumeration consistent ({elapsed:.1f}s)",
    )


def test_05_reconstruction_round_trip():
    start = time.perf_counter()
    ok = True
    for (m, n) in ((3, 10), (5, 50)):
        root = RngState(50_000 + m)
        done = 0
        trial = 0
        while done < 10_000:
            tup = sample_tuple(m, n, root.derive(trial))
            trial += 1
            if triple_matchings(tup) is not None:
                continue
            done += 1
            derived = structure_set_from_tuple(tup)
            recovered = derived.local_involutions("B")
            if tuple(p.images for p in recovered) != tuple(e.images for e in tup.entries):
                ok = False
                break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert report(5, ok, f"10^4 round trips exact at (3,10) and (5,50) ({elapsed:.1f}s)")


def test_06_a_side_certificate_soundness():
    start = time.perf_counter()
    qualifying = 0
    counterexamples = 0
    root = RngState(60_606)
    for trial in range(1000):
        tup = sample_tuple(5, 100, root.derive(trial))
        if (
            triple_matchings(tup) is None
            and overlapping_matches(tup) is None
            and midpoint_property(tup).holds
        ):
            qualifying += 1
            derived = structure_set_from_tuple(tup)
            order = PermutationGroup(5, derived.local_involutions("A")).order()
            if order != math.factorial(5):
                counterexamples += 1
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and elapsed < 60.0
    assert report(
        6,
        ok,
        f"{qualifying}/1000 tuples satisfy the A-side hypotheses, "
        f"{counterexamples} counterexamples ({elapsed:.1f}s)",
    )


def test_07_radu_family():
    start = time.perf_counter()
    s_delta = delta()
    ok = PermutationGroup(4, s_delta.local_involutions("A")).order() == 24
    ok = ok and PermutationGroup(5, s_delta.local_involutions("B")).order() == 120
    for n in range(14, 61):
        claim = schreier_claim_check(n)
        ok = ok and claim.connected and claim.not_bipartite
    cases = [(m, n, None) for m in range(13, 17) for n in range(14, 61)]
    cases += [(60, 120, 7), (60, 120, 11)]
    for m, n, filler_seed in cases:
        filler = None if filler_seed is None else random_filler(m, n, RngState(filler_seed))
        s = extension(m, n, filler)  # conflict-free construction validates en route
        ok = ok and PermutationGroup(n, s.local_involutions("B")).order() == math.factorial(n)
        ok = ok and PermutationGroup(m, s.local_involutions("A")).order() == math.factorial(m)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    assert report(
        7,
        ok,
        f"seed orders 24/120; full-symmetric local actions and Schreier claim "
        f"across 13<=m<=16, 14<=n<=60, and (60, 120) with filler seeds 7 and 11 "
        f"({elapsed:.1f}s)",
    )


def test_08_census():
    start = time.perf_counter()
    ok = enumerate_structure_sets(1, 1) == 1
    for n in (1, 2, 3, 4, 5):
        ok = ok and enumerate_structure_sets(1, n) == count_involutions(n)
    ok = ok and enumerate_structure_sets(2, 2) == 8
    ok = ok and count_up_to_relabeling(2, 2) == 6
    # (3, 5) was cross-checked by listing every set and an orbit search
    ok = ok and enumerate_structure_sets(3, 4) == 8452
    ok = ok and count_up_to_relabeling(3, 4) == 164
    ok = ok and enumerate_structure_sets(3, 5) == 186_944
    ok = ok and count_up_to_relabeling(3, 5) == 604
    for (m, n) in ((1, 1), (1, 5), (2, 2), (2, 3), (3, 3)):
        ok = ok and enumerate_structure_sets(m, n) <= (m * n) ** (m * n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert report(8, ok, f"census counts and relabeling classes as expected ({elapsed:.1f}s)")


def binomial_acceptance_region(trials, p, tail):
    """The interval [lo, hi] whose two tails under Binomial(trials, p) each
    carry the largest mass not above ``tail``."""
    pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= tail:
        below += pmf[lo]
        lo += 1
    hi, above = trials, 0.0
    while above + pmf[hi] <= tail:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_09_theorem_b_proxy():
    m, n = 6, 7778
    samples = 50
    root = RngState(20260808)
    almost_sure = 0
    successes = 0
    oracle_mismatches = 0
    slow_samples = 0
    rates = {
        "no_triple": 0,
        "connected": 0,
        "black_edge": 0,
        "a_two_transitive": 0,
        "a_symmetric": 0,
        "white_ball": 0,
        "b_alt_true": 0,
        "b_alt_unknown": 0,
    }
    for trial in range(samples):
        t0 = time.perf_counter()
        tup = sample_tuple(m, n, root.derive(trial))
        rep = irr_certificate(tup)
        per_sample = time.perf_counter() - t0
        if per_sample >= 60.0:
            slow_samples += 1
        a_symmetric = rep.a_local is not None and rep.a_local.equals_symmetric is True
        rates["no_triple"] += rep.no_triple_matchings
        rates["connected"] += rep.connected
        rates["black_edge"] += rep.has_black_edge
        rates["a_two_transitive"] += rep.a_local_two_transitive
        rates["a_symmetric"] += a_symmetric
        rates["white_ball"] += rep.white_ball_vertex is not None
        b_alt = rep.b_local.contains_alternating if rep.b_local else False
        rates["b_alt_true"] += b_alt is True
        rates["b_alt_unknown"] += b_alt is None
        # The A-side action exists only when a structure set does; it is
        # generated by one transposition per shared orbit, so it is Sym(m),
        # and equally 2-transitive, exactly when the shared-orbit graph is
        # connected.
        if rep.no_triple_matchings:
            linked = shared_orbit_graph_connected([e.images for e in tup.entries])
            if a_symmetric != linked or rep.a_local_two_transitive != linked:
                oracle_mismatches += 1
        if (
            rep.no_triple_matchings
            and rep.connected
            and rep.has_black_edge
            and b_alt in (True, None)
        ):
            almost_sure += 1
            successes += a_symmetric and rep.a_local_two_transitive
    rate_text = ", ".join(f"{k}={v}/{samples}" for k, v in rates.items())
    print(f"ACCEPTANCE 9 observed rates at (6,7778): {rate_text}")
    p_a = connected_graph_probability(m, exact_orbit_share_prob(n).exact)
    lo, hi = binomial_acceptance_region(samples, float(p_a), 1e-4)
    timing_ok = slow_samples == 0
    oracle_ok = oracle_mismatches == 0
    threshold_ok = almost_sure >= 45
    a_side_ok = lo <= rates["a_symmetric"] <= hi
    report(
        9,
        timing_ok and oracle_ok and threshold_ok and a_side_ok,
        f"{almost_sure}/{samples} satisfy the almost-sure conjunction (threshold 45); "
        f"A-side Sym(6) {rates['a_symmetric']}/{samples} against p_A={float(p_a):.4f}, "
        f"region {lo}..{hi}; {successes}/{samples} satisfy the full conjunction; "
        f"{oracle_mismatches} oracle mismatches; {slow_samples} samples over 60s",
    )
    assert timing_ok, "certificate pipeline exceeded 60s on some sample"
    assert oracle_ok, (
        f"{oracle_mismatches} samples disagree with the shared-orbit connectivity oracle"
    )
    assert threshold_ok, (
        f"only {almost_sure}/{samples} samples satisfied the almost-sure conjunction; "
        ">= 45 required"
    )
    assert a_side_ok, (
        f"A-side Sym(6) count {rates['a_symmetric']}/{samples} lies outside the "
        f"Binomial({samples}, {float(p_a):.4f}) region {lo}..{hi}"
    )


def test_10_match_graph_fixture():
    start = time.perf_counter()
    from bmwgroups.perm import Permutation

    def cyc(*cycles):
        return Permutation.from_cycles(6, cycles)

    tup = InvolutionTuple(
        [
            cyc((1, 2), (3, 4), (5, 6)).images,
            cyc((1, 2), (3, 5), (4, 6)).images,
            cyc((1, 6), (3, 5), (2, 4)).images,
        ]
    )
    g = match_graph(tup)
    ok = g.black_edges() == ((1, 2), (3, 5))
    ok = ok and white_edges(g) == ((1, 6), (2, 4), (3, 4), (4, 6), (5, 6))
    elapsed = time.perf_counter() - start
    assert report(10, ok, f"worked-example match graph reproduced exactly ({elapsed:.3f}s)")
