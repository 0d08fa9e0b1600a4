"""Box counting, slope fits, and the average-length cover bound."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from billiardlab.dimension import (
    AverageCoverReport,
    average_length_cover,
    box_count,
    dim_lb_estimate,
    escape_cover,
    hs_sum,
)
from billiardlab.errors import InsufficientScales
from billiardlab.fixedpoint import from_fixed, mpf_to_fraction, to_fixed
from billiardlab.intervals import IntervalUnion


def grid_union(pairs, bits: int = 256) -> IntervalUnion:
    """The union of real (lo, hi) pairs, endpoints floored onto the grid."""
    return IntervalUnion.make([(to_fixed(lo, bits), to_fixed(hi, bits))
                               for lo, hi in pairs], bits)


def middle_thirds(depth: int, bits: int = 256) -> IntervalUnion:
    """Depth-k pre-set of the ternary Cantor construction, exact in
    rationals before flooring onto the grid."""
    segs = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for lo, hi in segs:
            third = (hi - lo) / 3
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        segs = nxt
    return IntervalUnion.make([((lo.numerator << bits) // lo.denominator,
                                (hi.numerator << bits) // hi.denominator)
                               for lo, hi in segs], bits)


def test_single_interval_single_piece():
    u = grid_union([(0.2, 0.4)])
    r = box_count(u, 0.1)  # piece length 0.2 covers it exactly
    assert r.count == 1
    assert float(r.sum) == pytest.approx(0.1)


def test_empty_union():
    r = box_count(IntervalUnion((), 256), 0.25)
    assert r.count == 0
    assert r.dim_estimate is None


def test_cantor_preset_exact_counts():
    start = time.monotonic()
    u = middle_thirds(12)
    r = box_count(u, mpf(3) ** -12 / 2)
    assert r.count == 2 ** 12
    assert time.monotonic() - start < 1.0


def test_counts_monotone_in_epsilon():
    u = middle_thirds(6)
    counts = [box_count(u, mpf(2) ** -k).count for k in range(2, 12)]
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_greedy_count_never_beaten_by_shifted_covers(seed):
    """Greedy is optimal in 1-D; left-shifting any piece start can only
    cover less to the right, so alternative valid covers are never
    smaller.  Construct shifted-grid covers and compare."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(rng.randint(1, 6)):
        lo = Fraction(rng.randint(0, 80), 100)
        hi = lo + Fraction(rng.randint(1, 15), 100)
        pairs.append((lo, hi))
    u = IntervalUnion.make([((a.numerator << 128) // a.denominator,
                             (b.numerator << 128) // b.denominator)
                            for a, b in pairs], 128)
    ends = [(from_fixed(lo, 128), from_fixed(hi, 128)) for lo, hi in u]
    eps = mpf(1) / 32
    greedy = box_count(u, eps).count
    # grid covers: pieces of length 2*eps starting on a shifted lattice
    with mp.workprec(160):
        for shift_idx in range(8):
            shift = mpf(shift_idx) / 8 * 2 * eps
            covered = set()
            count = 0
            k = -2
            while k * 2 * eps + shift < 2:
                left = k * 2 * eps + shift
                right = left + 2 * eps
                if any(not (right <= lo or left >= hi) for lo, hi in ends):
                    count += 1
                k += 1
            assert greedy <= count


def test_greedy_count_exact_for_sub_ulp_deficit():
    """k pieces a sub-ulp share short of an N-ulp interval leave it
    uncovered, so the count is k + 1, the exact ceiling of N over the
    piece; a rounded cursor would close the gap and return k."""
    lo, n_ulps = 4631110900376695129, 813480834645315
    u = IntervalUnion.make([(lo, lo + n_ulps)], 64)
    with mp.workprec(128):
        eps = mpf((n_ulps << 24) // 29) / 2 ** 89  # 2*eps just under N/29
    assert 29 * mpf_to_fraction(eps) * 2 ** 65 < n_ulps
    assert box_count(u, eps).count == 30
    rng = random.Random(1)
    for _ in range(200):
        lo, n_ulps, k = (rng.getrandbits(63), rng.getrandbits(50) + 1,
                         rng.randint(2, 60))
        u = IntervalUnion.make([(lo, lo + n_ulps)], 64)
        with mp.workprec(128):
            eps = mpf((n_ulps << 24) // k - rng.randint(0, 3)) / 2 ** 89
        piece = mpf_to_fraction(eps) * 2 ** 65
        assert box_count(u, eps).count == -(-n_ulps // piece)


def test_dim_fit_interval_has_dimension_one():
    u = grid_union([(0.0, 1.0)])
    fit = dim_lb_estimate([(mpf(2) ** -k, u) for k in range(3, 12)])
    assert abs(float(fit.slope) - 1.0) < 0.02


def test_dim_fit_cantor_slope():
    sets = [(mpf(3) ** -k, middle_thirds(k)) for k in range(4, 13)]
    fit = dim_lb_estimate(sets)
    with mp.workprec(80):
        target = mp.log(2) / mp.log(3)
        assert abs(fit.slope - target) < 0.03
    assert len(fit.residuals) == 9
    assert all(abs(r) < 0.01 for r in fit.residuals)


def test_dim_fit_finite_point_set_slope_zero():
    # a few tiny intervals standing in for points: counts freeze once
    # 2*eps is below the minimal gap, so the tail slope tends to 0
    u = grid_union([(x, x + 1e-9) for x in (0.1, 0.4, 0.7)], 128)
    fit = dim_lb_estimate([(mpf(2) ** -k, u) for k in range(8, 20)])
    assert float(fit.slope) < 0.05


def test_dim_fit_guards():
    u = grid_union([(0.0, 1.0)])
    with pytest.raises(InsufficientScales):
        dim_lb_estimate([(0.1, u), (0.05, u)])
    with pytest.raises(InsufficientScales):
        dim_lb_estimate([(0.1, u), (0.1, u), (0.05, u)])


def test_average_cover_equal_lengths():
    r = average_length_cover([mpf("0.01")] * 7, mpf("0.07"))
    assert r.count == 2 * 7
    assert r.bound_3n_ok


def test_average_cover_dominant_interval():
    r = average_length_cover([mpf("0.5"), mpf("0.001")], mpf("0.501"))
    assert r.count <= 6
    assert r.bound_3n_ok


def test_average_cover_pieces_contain_their_intervals():
    rng = random.Random(7)
    lengths = [mpf(rng.uniform(1e-6, 1e-2)) for _ in range(40)]
    with mp.workprec(80):
        budget = sum(lengths) * mpf("1.25")
    r = average_length_cover(lengths, budget)
    for a, n_pieces in zip(lengths, r.pieces_per_interval):
        assert n_pieces * r.piece_length >= a


@pytest.mark.parametrize("seed", range(4))
def test_average_cover_packing_bound_random(seed):
    rng = random.Random(seed)
    for _ in range(200):
        j = rng.randint(1, 200)
        lengths = [mpf(rng.uniform(1e-9, 1.0)) for _ in range(j)]
        budget = sum(mpf_to_fraction(x) for x in lengths)  # exact total
        r = average_length_cover(lengths, budget)
        assert r.bound_3n_ok
        assert r.count <= 2 * j  # the floor-sum argument gives 2j outright


@given(st.lists(st.integers(1, 2**64), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_packing_count_identity(lens):
    # Each floor is at most a_k*j/sum(a), so the count is at most 2j < 3j:
    # the packing audit needs to draw only the trials its report shows.
    j, total = len(lens), sum(lens)
    count = sum(a * j // total for a in lens) + j
    assert count <= 2 * j
    assert average_length_cover(lens, total).count == count


def test_average_cover_empty():
    r = average_length_cover([], mpf(0))
    assert r.count == 0 and r.bound_3n_ok


def test_tail_sums_of_escape_exponent_converge():
    """The covering exponent s = 1/mu + eps turns the layer lengths
    (1/p^mu)^s into a convergent series (exponent mu*s = 1 + mu*eps > 1):
    partial tails decrease, and the integral bound sends them to 0.
    Documented here as the finite-scale content of the upper-bound
    direction of the dimension identity."""
    mu, eps = 2.0, 0.05
    s = 1 / mu + eps
    assert mu * s > 1
    with mp.workprec(80):
        terms = [(mpf(p) ** -mu) ** s for p in range(1, 20001)]
        tails = [sum(terms[k:]) for k in (10, 100, 1000, 10000)]
        assert all(t2 < t1 for t1, t2 in zip(tails, tails[1:]))
        # integral bound: tail from P is below P^(1-mu*s)/(mu*s-1)
        for start, tail in zip((10, 100, 1000, 10000), tails):
            bound = mpf(start) ** (1 - mu * s) / (mu * s - 1)
            assert tail < bound


def test_escape_cover_hs_sum_adds_uncertain_lengths():
    unc = grid_union([(0, 0.125)])
    assert hs_sum(3, mpf("0.25"), unc, 1) == mpf("0.875")
    with mp.workprec(272):
        assert hs_sum(3, mpf("0.25"), unc, 0.5) == (
            3 * mpf("0.5") + mp.sqrt(mpf("0.125")))
    assert hs_sum(3, mpf("0.25"), grid_union([]), 0.5) == mpf("1.5")


@pytest.mark.parametrize("s", [0.0, -0.5, 1.5, 2.0])
def test_escape_cover_hs_sum_rejects_exponent_outside_unit_interval(s):
    with pytest.raises(ValueError):
        hs_sum(3, mpf("0.25"), grid_union([]), s)


def test_escape_cover_averages_over_the_gate():
    # lengths 1/4 and 1/8 in a gate of width 1: pieces of 1/2, and
    # floor(a_k * 2 / (3/8)) + 1 = 2 and 1 pieces for the two intervals
    f_n = grid_union([(0, 0.25), (0.5, 0.625)])
    assert escape_cover(f_n, mpf(1)) == (3, mpf("0.5"))
    # a gate narrower than F_N is widened to F_N's length
    assert escape_cover(f_n, mpf(0)) == (3, mpf("0.1875"))
    assert escape_cover(grid_union([]), mpf(1)) == (0, 0)
