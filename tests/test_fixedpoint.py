"""Exact fixed-point helpers: conversion roundtrips, power floors against
an exact integer oracle, and lattice-point counting against brute force."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from billiardlab.fixedpoint import (arc_hits, count_arc, count_arcs, first_hit,
                                   floor_sum, from_fixed, index_range,
                                   mpf_to_fraction, on_grid, power_floor,
                                   to_fixed)


def brute_floor_sum(n, m, a, b):
    return sum((a * i + b) // m for i in range(n))


def test_to_fixed_floor_semantics():
    assert to_fixed(0.75, 8) == 192
    assert to_fixed(1.0, 8) == 256
    assert to_fixed(mpf(1) / 3, 8) == 85  # floor(256/3)


def test_roundtrip_error_below_one_ulp():
    with mp.workprec(300):
        x = (mp.sqrt(5) - 1) / 2
    n = to_fixed(x, 256)
    back = from_fixed(n, 256)
    with mp.workprec(300):
        assert abs(back - x) < mpf(2) ** -256


def workprec_to_fixed(x, bits):
    """to_fixed through mpmath at bits + 64 bits, for every kind of input."""
    with mp.workprec(bits + 64):
        return int(mp.floor(mpf(x) * (1 << bits)))


@st.composite
def dyadic_mpfs(draw):
    # an odd mantissa of bits + 64 + extra bits, so the mpf keeps exactly
    # that bit count, at exponents on both sides of -bits
    bits = draw(st.integers(0, 600))
    extra = draw(st.one_of(st.integers(-2, 2), st.integers(-700, 40)))
    bc = max(1, bits + 64 + extra)
    man = (1 << (bc - 1)) | draw(st.integers(0, (1 << bc) - 1)) | 1
    exp = -bits + draw(st.integers(-bc - 20, 40))
    sign = draw(st.sampled_from((1, -1)))
    return mp.make_mpf(from_man_exp(sign * man, exp)), bits


@given(dyadic_mpfs())
@example((mpf(0), 64))
@example((mp.make_mpf(from_man_exp((1 << 128) - 1, -64)), 64))  # at bits+64
@example((mp.make_mpf(from_man_exp(-(1 << 129) + 1, -64)), 64))  # above
@example((mp.make_mpf(from_man_exp(-3, -70)), 64))  # below the grid
@settings(max_examples=400)
def test_to_fixed_matches_workprec_reference(case):
    x, bits = case
    assert mp.prec == 53
    assert to_fixed(x, bits) == workprec_to_fixed(x, bits)


@given(st.integers(-(1 << 300), 1 << 300), st.integers(0, 300))
@example(0, 0)
@example((1 << 300) - 1, 0)  # rounded to 64 bits first
@settings(max_examples=200)
def test_to_fixed_matches_workprec_reference_for_int(x, bits):
    assert to_fixed(x, bits) == workprec_to_fixed(x, bits)


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.integers(0, 300))
@example(-0.1, 8)
@settings(max_examples=100)
def test_to_fixed_matches_workprec_reference_for_float_and_str(x, bits):
    assert to_fixed(x, bits) == workprec_to_fixed(x, bits)
    assert to_fixed(repr(x), bits) == workprec_to_fixed(repr(x), bits)


@given(st.fractions(max_denominator=1 << 200), st.integers(0, 300))
@example(Fraction(-1, 3), 8)
@example(Fraction(0), 0)
@settings(max_examples=50)
def test_to_fixed_refuses_a_fraction_as_mpf_does(x, bits):
    with pytest.raises(TypeError):
        workprec_to_fixed(x, bits)
    with pytest.raises(TypeError):
        to_fixed(x, bits)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_to_fixed_rejects_non_finite_values(value):
    with pytest.raises(ValueError):
        to_fixed(mpf(value), 64)


@given(st.lists(st.tuples(st.integers(-(1 << 300), 1 << 300),
                          st.integers(-400, 400)), max_size=5),
       st.integers(0, 500))
@example([], 0)
@example([(0, 7)], 3)
@example([(3 << 10, -4), (-5, 2)], 0)
@settings(max_examples=200)
def test_on_grid_is_exact_on_the_least_grid(parts, least):
    values = [from_fixed(n, -e) for n, e in parts]  # n * 2^e
    E, ints = on_grid(values, least)
    assert [Fraction(k, 1 << E) for k in ints] == list(map(mpf_to_fraction,
                                                          values))
    # the least such grid: coarser than E only if E is the floor ``least``
    assert E == least or any(k % 2 for k in ints)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_on_grid_rejects_non_finite_values(value):
    with pytest.raises(ValueError):
        on_grid([mpf(1), mpf(value)])


@given(st.integers(-(1 << 8192), 1 << 8192), st.integers(0, 8192))
@example(-1, 0)
@example(0, 512)
@example((1 << 8192) - 1, 8192)
@settings(max_examples=200)
def test_from_fixed_is_exact_at_ambient_precision(n, bits):
    assert mp.prec == 53
    assert mpf_to_fraction(from_fixed(n, bits)) == Fraction(n, 1 << bits)


def exact_power_floor(n, a, k, bits):
    # floor(2^bits / n^(a/2^k)): the largest y with y^(2^k) * n^a at most
    # 2^(bits*2^k), by k nested integer square roots of the quotient
    y = (1 << (bits << k)) // n ** a
    for _ in range(k):
        y = isqrt(y)
    assert y ** (1 << k) * n ** a <= 1 << (bits << k)
    assert (y + 1) ** (1 << k) * n ** a > 1 << (bits << k)
    return y


def test_power_floor_against_exact_oracle():
    # dyadic mu = a/2^k, so the floor has an exact integer characterisation;
    # the result may sit one below it (the scan's slack absorbs one ulp)
    # but never above it
    ns = set(range(1, 400))
    for j in range(1, 31):
        ns.update((2 ** j - 1, 2 ** j, 2 ** j + 1))
    ns.add(10 ** 9)
    for a, k in ((1, 0), (2, 0), (1, 1), (3, 1), (1, 2)):
        mu = mpf(a) / 2 ** k
        for bits in (64, 256, 512):
            for n in sorted(ns):
                exact = exact_power_floor(n, a, k, bits)
                assert exact - 1 <= power_floor(n, mu, bits) <= exact, (
                    n, a, k, bits)


@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 20),
       st.integers(-30, 30))
@example(-10, -5, 3, 1)     # a negative level n_k = -5: indices in [2n, n]
@example(-10, -5, 7, 2)     # ... with no index of the residue in range
@example(5, 4, 1, 0)        # lo > hi
@settings(max_examples=300)
def test_index_range_matches_brute_force(lo, hi, m, res):
    i_lo, i_hi = index_range(lo, hi, m, res)
    found = [i for i in range(-250, 251) if lo <= m * i + res <= hi]
    if found:
        assert (i_lo, i_hi) == (found[0], found[-1])
    else:
        assert i_lo > i_hi


@given(st.integers(0, 60), st.integers(1, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
def test_floor_sum_matches_brute_force(n, m, a, b):
    assert floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b)


def test_floor_sum_large_arguments():
    # spot-check the recursive branch with arguments far beyond brute force
    n, m, a, b = 10**12, 998244353, 10**11 + 7, -(10**10)
    total = floor_sum(n, m, a, b)
    # consistency: splitting the range must agree
    k = n // 2
    total_split = floor_sum(k, m, a, b) + floor_sum(n - k, m, a, a * k + b)
    assert total == total_split


def brute_count_arc(w, scale, m, res, p_lo, p_hi, center, allow):
    def dist(x):
        return min((x - center) % scale, (center - x) % scale)
    return sum(1 for p in range(p_lo, p_hi + 1)
               if dist(((m * p + res) * w) % scale) <= allow)


@given(st.integers(0, 2**12 - 1), st.integers(1, 7), st.integers(-20, 20),
       st.integers(-60, 60), st.integers(-1, 60), st.integers(0, 2**12 - 1),
       st.integers(0, 2**11 + 2))
@settings(max_examples=300)
def test_count_arc_matches_brute_force(w, m, res, p_lo, extra, center, allow):
    # signed index ranges, any residue, arcs through 0 and arcs wider than
    # the circle (2*allow + 1 >= scale) all come up
    scale = 1 << 12
    p_hi = p_lo + extra
    assert (count_arc(w, scale, m, res, p_lo, p_hi, center, allow)
            == brute_count_arc(w, scale, m, res, p_lo, p_hi, center, allow))


@given(st.data(), st.sampled_from((16, 64, 256)), st.integers(1, 5),
       st.integers(-20, 20), st.integers(-10**6, 10**6), st.integers(-3, 2000),
       st.lists(st.integers(-10**4, 10**4), max_size=12))
@settings(max_examples=200)
def test_count_arcs_is_count_arc_at_each_parent(data, bits, m, res, p_lo,
                                                extra, js):
    # parents j of both signs in several residue classes, shifts wider
    # than the index range, empty ranges (extra < 0), and allowances from
    # none through narrow and wide arcs to the whole circle
    scale = 1 << bits
    w = data.draw(st.integers(0, scale - 1), label="w")
    allow = data.draw(st.one_of(st.sampled_from((-1, 0, scale // 2, scale)),
                                st.integers(0, 1 << 12),
                                st.integers(0, scale - 1)), label="allow")
    p_hi = p_lo + extra
    assert count_arcs(w, scale, m, res, p_lo, p_hi, js, allow) == [
        count_arc(w, scale, m, res, p_lo, p_hi, j * w % scale, allow)
        for j in js]


def test_count_arc_edge_cases():
    scale = 1 << 12
    w = 2531  # ~0.618 in 12-bit fixed point
    # arcs wrapping through 0, from either side, with m > 1 and res != 0
    for center, allow in ((0, 40), (scale - 3, 40), (5, 100)):
        for m, res, p_lo, p_hi in ((1, 0, -99, 99), (3, 2, -50, 20), (4, -1, 0, 70)):
            args = (w, scale, m, res, p_lo, p_hi, center, allow)
            assert count_arc(*args) == brute_count_arc(*args)
    # the whole circle: 2*allow + 1 >= scale counts every index
    assert count_arc(w, scale, 2, 1, -10, 89, 77, scale // 2) == 100
    # one ulp short of that leaves out only the antipode of the centre
    antipode = (77 + scale // 2) % scale
    hit = next(p for p in range(scale) if (p * w) % scale == antipode)
    assert count_arc(w, scale, 1, 0, hit - 50, hit + 49, 77, scale // 2 - 1) == 99
    # an empty range, a negative allowance and a single point
    assert count_arc(w, scale, 1, 0, 5, 4, 0, scale) == 0
    assert count_arc(w, scale, 1, 0, 0, 99, 0, -1) == 0
    assert count_arc(w, scale, 1, 0, 0, 99, (7 * w) % scale, 0) >= 1


def brute_first_hit(a, b, m, L, R):
    # the orbit of x -> (a*x + b) mod m repeats within m steps
    L, R = L % m, R % m
    for x in range(m):
        v = (a * x + b) % m
        if (L <= v <= R) if L <= R else (v >= L or v <= R):
            return x
    return None


@given(st.integers(1, 300), st.integers(-10**4, 10**4),
       st.integers(-10**4, 10**4), st.integers(-400, 400),
       st.integers(-400, 400))
@settings(max_examples=2000)
@example(m=257, a=100, b=-3, L=-5, R=-5)
@example(m=100, a=-37, b=5, L=90, R=10)
def test_first_hit_matches_brute_force(m, a, b, L, R):
    # signed a and b, and arcs given by any signed ends: L > R (mod m)
    # wraps through 0, L == R is one point
    assert first_hit(a, b, m, L, R) == brute_first_hit(a, b, m, L, R)


@given(st.integers(1, 300), st.integers(-5, 5), st.integers(-10**4, 10**4),
       st.integers(-400, 400), st.integers(-400, 400))
@example(m=7, k=2, b=3, L=4, R=6)
@example(m=7, k=-3, b=-1, L=5, R=1)
def test_first_hit_zero_step(m, k, b, L, R):
    # a = 0 (mod m): the orbit is the single point b, so the answer is 0
    # when the arc holds b and None when it does not
    a = k * m
    inside = (b - L) % m <= (R - L) % m
    assert first_hit(a, b, m, L, R) == (0 if inside else None)
    assert first_hit(a, b, m, L, R) == brute_first_hit(a, b, m, L, R)


def test_first_hit_8192_bit_narrow_arc_is_iterative():
    # the Euclid chain of a golden step on a 8192-bit circle runs to
    # thousands of levels, past any recursion limit; the hit it finds is
    # confirmed by exact counting
    bits = 8192
    scale = 1 << bits
    with mp.workprec(bits + 64):
        w = to_fixed((mp.sqrt(5) - 1) / 2, bits) | 1
    center, allow = scale // 3, 2
    x = first_hit(w, 0, scale, center - allow, center + allow)
    assert x is not None and x > 1 << (bits - 8)
    assert count_arc(w, scale, 1, 0, x, x, center, allow) == 1
    assert count_arc(w, scale, 1, 0, 0, x - 1, center, allow) == 0


@given(st.integers(0, 2**10 - 1), st.integers(1, 5), st.integers(-9, 9),
       st.integers(-40, 40), st.integers(-1, 80), st.integers(0, 2**10 - 1),
       st.integers(-1, 2**9 + 1))
@settings(max_examples=300)
def test_arc_hits_are_the_indices_count_arc_counts(w, m, res, p_lo, extra,
                                                   center, allow):
    scale = 1 << 10
    p_hi = p_lo + extra
    hits = list(arc_hits(w, scale, m, res, p_lo, p_hi, center, allow))
    assert hits == [p for p in range(p_lo, p_hi + 1)
                    if count_arc(w, scale, m, res, p, p, center, allow)]
