"""IntervalUnion set algebra on integer grid endpoints, checked exactly
at cell midpoints: every cell of a small grid, and the cells around each
endpoint on a 64-bit grid; and the integer decimal formatter against
``mp.nstr``."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from billiardlab.fixedpoint import from_fixed
from billiardlab.intervals import IntervalUnion, circle_pairs, fmt, fmt_fixed

BITS = 64
ONE = 1 << BITS


def random_union(rng, n_max=6, span=ONE):
    pairs = []
    for _ in range(rng.randint(0, n_max)):
        lo = rng.randrange(span)
        hi = lo + rng.randrange(span // 4)
        pairs.append((lo, hi))
    return IntervalUnion.make(pairs, BITS)


def test_normalization_sorts_merges_and_drops_empty():
    u = IntervalUnion.make([(50, 40), (30, 35), (10, 20), (15, 25)], 8)
    assert u.intervals == ((10, 25), (30, 35))
    assert u.total_length == 20 / 256


def test_touching_intervals_merge():
    assert IntervalUnion.make([(10, 20), (20, 30)], 8).intervals == ((10, 30),)


def test_one_ulp_gap_stays_separate():
    u = IntervalUnion.make([(10, 20), (21, 30)], BITS)
    assert u.intervals == ((10, 20), (21, 30))


def test_disjoint_intervals_stay_separate():
    u = IntervalUnion.make([(10, 20), (25, 30)], 8)
    assert len(u) == 2


def test_circle_pairs_wraps_and_splits_at_zero():
    one = 1 << 8
    assert circle_pairs(243, 26, 8) == [(0, 13), (217, one)]
    assert circle_pairs(13 - one, 26, 8) == [(0, 39), (243, one)]
    assert circle_pairs(2 * one + 100, 20, 8) == [(80, 120)]
    u = IntervalUnion.make(circle_pairs(243, 26, 8), 8)
    assert u.total_length == 52 / 256
    assert u.contains_point(250) and u.contains_point(5)
    assert not u.contains_point(128)


def test_circle_pairs_whole_circle_and_empty():
    one = 1 << 8
    assert circle_pairs(77, 128, 8) == [(0, one)]
    assert circle_pairs(77, 127, 8) == [(0, 204), (206, one)]
    assert circle_pairs(77, 0, 8) == []
    assert circle_pairs(77, -3, 8) == []


@pytest.mark.parametrize("seed", range(8))
def test_set_operations_match_sampling_oracle(seed):
    rng = random.Random(seed)
    a = random_union(rng)
    b = random_union(rng)
    # cell midpoints: the open-set algebra is exact away from endpoints,
    # so probe the cells on both sides of every endpoint, plus random ones
    ends = {x for u in (a, b) for pair in u for x in pair}
    cells = [rng.randrange(ONE + ONE // 4) for _ in range(200)]
    cells += [x + d for x in ends for d in (-1, 0)]
    probes = [k + Fraction(1, 2) for k in cells]
    union = a.union(b)
    inter = a.intersect(b)
    diff = a.subtract(b)
    for x in probes:
        in_a, in_b = a.contains_point(x), b.contains_point(x)
        assert union.contains_point(x) == (in_a or in_b)
        assert inter.contains_point(x) == (in_a and in_b)
        assert diff.contains_point(x) == (in_a and not in_b)


SMALL = 6
_small_pairs = st.lists(st.tuples(st.integers(0, 1 << SMALL),
                                  st.integers(0, 1 << SMALL)), max_size=6)


def cells(u):
    """The grid cells (k, k + 1) whose midpoint lies in u."""
    return {k for k in range(1 << SMALL) if u.contains_point(k + Fraction(1, 2))}


@given(_small_pairs, _small_pairs)
@settings(max_examples=150)
def test_set_algebra_matches_cells_on_small_grid(pa, pb):
    a, b = IntervalUnion.make(pa, SMALL), IntervalUnion.make(pb, SMALL)
    ca, cb = cells(a), cells(b)
    everything = set(range(1 << SMALL))
    assert ca == {k for lo, hi in pa for k in range(lo, hi)}
    assert cells(a.union(b)) == ca | cb
    assert cells(a.intersect(b)) == ca & cb
    assert cells(a.subtract(b)) == ca - cb
    assert cells(a.complement(0, 1 << SMALL)) == everything - ca
    assert a.is_subset_of(b) == (ca <= cb)
    for u, c in ((a, ca), (a.union(b), ca | cb), (a.intersect(b), ca & cb)):
        assert u.total_length * (1 << SMALL) == len(c)


@pytest.mark.parametrize("seed", range(6))
def test_inclusion_exclusion_of_measures(seed):
    rng = random.Random(100 + seed)
    a = random_union(rng)
    b = random_union(rng)
    lhs = a.total_length + b.total_length
    rhs = a.union(b).total_length + a.intersect(b).total_length
    assert lhs == rhs


def test_subtract_then_union_restores_superset():
    a = IntervalUnion.make([(0, 100)], 8)
    b = IntervalUnion.make([(20, 30), (50, 60)], 8)
    c = a.subtract(b).union(b)
    assert c.intervals == ((0, 100),)


def test_complement_partitions_segment():
    u = IntervalUnion.make([(64, 128)], 8)
    comp = u.complement(0, 256)
    assert comp.intervals == ((0, 64), (128, 256))
    assert u.total_length + comp.total_length == 1


def test_is_subset_of():
    big = IntervalUnion.make([(10, 50), (70, 80)], 8)
    assert IntervalUnion.make([(20, 30)], 8).is_subset_of(big)
    assert IntervalUnion.make([(10, 50)], 8).is_subset_of(big)
    assert IntervalUnion.make([(20, 30), (72, 75)], 8).is_subset_of(big)
    assert not IntervalUnion.make([(20, 60)], 8).is_subset_of(big)
    assert not IntervalUnion.make([(60, 65)], 8).is_subset_of(big)
    assert IntervalUnion((), 8).is_subset_of(big)


def test_one_ulp_overhang_is_not_a_subset():
    big = IntervalUnion.make([(10, 50)], BITS)
    assert not IntervalUnion.make([(10, 51)], BITS).is_subset_of(big)
    assert not IntervalUnion.make([(9, 50)], BITS).is_subset_of(big)


def test_real_endpoints_are_rejected():
    with pytest.raises(TypeError):
        IntervalUnion.make([(0.25, 0.5)], 8)


def test_mixed_grids_raise():
    a = IntervalUnion.make([(1, 2)], 8)
    b = IntervalUnion.make([(1, 2)], 9)
    for op in (a.union, a.intersect, a.subtract, a.is_subset_of):
        with pytest.raises(ValueError):
            op(b)


@given(st.lists(st.tuples(st.integers(-ONE, ONE), st.integers(-ONE, ONE)),
                max_size=8))
@settings(max_examples=80)
def test_make_always_normalized(pairs):
    u = IntervalUnion.make(pairs, BITS)
    for lo, hi in u:
        assert hi > lo
    for (_, h1), (l2, _) in zip(u.intervals, u.intervals[1:]):
        assert l2 > h1
    assert u.total_length >= 0


# -- the integer decimal formatter --------------------------------------


def fmt_reference(x, digits=20):
    """``fmt`` as it was before ``fmt_fixed``: the value rounded to
    max(4*digits, 64) bits, then ``mp.nstr``."""
    with mp.workprec(max(4 * digits, 64)):
        return mp.nstr(mpf(x), digits, strip_zeros=True)


DIGITS = st.sampled_from([1, 2, 3, 6, 10, 12, 15, 20, 25, 30, 80, 157, 311, 620])


@st.composite
def dyadics(draw):
    """(n, bits, digits) for n / 2**bits: grid values at 64 to 8192 bits,
    ties one bit below the rounding precision (some of them at a decimal
    rounding point), values just below a power of ten (a carry through
    every kept digit), and exponents around and far beyond 2**+-3500."""
    digits = draw(DIGITS)
    prec = max(4 * digits, 64)
    kind = draw(st.sampled_from(["grid", "tie", "halfway", "carry", "huge"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "halfway":
        # A tie between two prec-bit neighbours m < m + 1, m even, on either
        # side of the decimal point q.5 where the digits round: ties to
        # even keep the lower digits, ties away would round them up.
        q = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
        point = Fraction(2 * q + 1, 2) * Fraction(10) ** draw(st.integers(-60, 20))
        num, den = point.numerator, point.denominator
        bits = prec - num.bit_length() + den.bit_length()
        m = (num << bits) // den if bits >= 0 else num // (den << -bits)
        while m.bit_length() != prec:
            bits += 1 if m.bit_length() < prec else -1
            m = (num << bits) // den if bits >= 0 else num // (den << -bits)
        n, bits = (m & ~1) << 1 | 1, bits + 1
    elif kind == "grid":
        bits = draw(st.integers(64, 8192))
        n = draw(st.integers(0, 2 ** (bits + 8)))
    elif kind == "tie":
        extra = draw(st.integers(1, 64))
        top = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1))
        n, bits = (top << extra) | 1 << (extra - 1), draw(st.integers(64, 8192))
    elif kind == "carry":
        bits = draw(st.integers(64, 8192))
        k = draw(st.integers(-bits // 4, 300))
        one = 10 ** k << bits if k >= 0 else (1 << bits) // 10 ** -k
        n = max(one - draw(st.integers(1, 2 ** 40)), 1)
    else:
        bits = draw(st.one_of(st.integers(3300, 3700), st.integers(-3700, -3300),
                              st.integers(-2 ** 40, 2 ** 40)))
        n = draw(st.integers(1, 2 ** prec))
    return sign * n, bits, digits


@given(dyadics())
@settings(max_examples=600, deadline=None)
@example((0, 64, 20))
@example((-1, 0, 20))
@example((2 ** 80 - 1, 80, 20))             # 0.99999... rounds up to 1.0
@example((0xE666666666666666 << 1 | 1, 66, 1))  # ties down to below 0.45
@example((1, 3502, 20))                     # below 2**-3500: exponent form
@example((1, -3600, 157))                   # beyond 2**3500
@example((1, 2 ** 40, 6))
@example((10 ** 30 + 1, 0, 30))             # 31 digits: switches to e+30
@example((1, 20, 15))                       # 9.5e-7: below min_fixed
def test_fmt_fixed_matches_nstr(case):
    n, bits, digits = case
    assert fmt_fixed(n, bits, digits) == fmt_reference(from_fixed(n, bits), digits)


@given(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                 st.integers(-2 ** 200, 2 ** 200)),
       DIGITS)
@settings(max_examples=300, deadline=None)
def test_fmt_of_floats_and_mpfs_matches_nstr(x, digits):
    assert fmt(x, digits) == fmt_reference(x, digits)
    if isinstance(x, float):
        assert fmt(mpf(x), digits) == fmt_reference(x, digits)


def test_fmt_fixed_switches_to_exponent_form_where_nstr_does():
    # min_fixed = min(-(digits // 3), -5) and max_fixed = digits bound the
    # decimal exponents written in fixed point.
    for digits in (6, 15, 20, 30):
        for k in range(-digits - 3, digits + 3):
            for n, bits in ((1, 0), (7, 3), (123456789, 20)):
                x = n * 10 ** k if k >= 0 else None
                if x is None:
                    n_k, bits_k = (n << (bits + 200)) // 10 ** -k, bits + 200
                else:
                    n_k, bits_k = x, bits
                assert fmt_fixed(n_k, bits_k, digits) == \
                    fmt_reference(from_fixed(n_k, bits_k), digits)
