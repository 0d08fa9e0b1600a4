"""IntervalUnion set algebra on integer grid endpoints, checked exactly
at cell midpoints: every cell of a small grid, and the cells around each
endpoint on a 64-bit grid."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiardlab.intervals import IntervalUnion, circle_pairs

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
