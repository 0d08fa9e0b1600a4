"""The pure-Python generator against numpy as an oracle: every draw the
experiments make must equal ``numpy.random.default_rng(seed)``'s, bit for
bit, so seeded reports keep their bytes without numpy at run time."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from billiardlab.rng import Generator

np = pytest.importorskip("numpy")

# Seeds from one 32-bit entropy word up to six, past 2**128, so that the
# SeedSequence pool takes more words than it holds.
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200))
# high - low: one value (no draw), small ranges, the default 2**30 - 1 of
# the packing lengths, ranges where Lemire's rejection fires about half the
# time (2**31 + 1), and the widest 32-bit range the generator takes.
SPANS = st.one_of(st.sampled_from([1, 2, 3, 1000, 2**30 - 1, 2**31 + 1,
                                   2**32 - 1]),
                  st.integers(1, 2**32 - 1))
LOWS = st.integers(-2**40, 2**40)
CALLS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("scalar"), LOWS, SPANS),
    st.tuples(st.just("array"), LOWS, SPANS, st.integers(0, 9)),
)


def _draw(gen, call):
    kind, *args = call
    if kind == "random":
        return float(gen.random())
    if kind == "scalar":
        low, span = args
        return int(gen.integers(low, low + span))
    low, span, size = args
    out = gen.integers(low, low + span, size=size)
    return [int(v) for v in out]


@given(SEEDS, st.integers(1, 8))
@settings(max_examples=200, deadline=None)
@example(seed=0, n=4)
@example(seed=20260818, n=4)
@example(seed=2**128, n=4)
def test_random_matches_numpy(seed, n):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(n)] == [theirs.random() for _ in range(n)]


@given(SEEDS, st.lists(CALLS, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
@example(seed=1701, calls=[("scalar", 1, 1000), ("array", 1, 2**30 - 1, 7),
                           ("scalar", 1, 1000), ("array", 1, 2**30 - 1, 3)])
@example(seed=5, calls=[("scalar", 0, 2**31 + 1), ("random",),
                        ("scalar", 0, 2**31 + 1)])
def test_interleaved_draws_match_numpy(seed, calls):
    # Scalar and array integers share the buffered upper half-word of a
    # 64-bit draw; random() takes a whole 64-bit draw and leaves it alone.
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    assert [_draw(ours, c) for c in calls] == [_draw(theirs, c) for c in calls]


def test_lemire_rejection_fires_and_still_matches():
    ours, theirs = Generator(3), np.random.default_rng(3)
    words = 0
    next32 = ours._next32

    def counted():
        nonlocal words
        words += 1
        return next32()

    ours._next32 = counted
    span = 2**31 + 1  # rejects a 32-bit word with probability about 1/2
    assert ours.integers(0, span, size=64) == theirs.integers(0, span, size=64).tolist()
    assert words > 64


def test_single_value_range_draws_nothing():
    # high - low = 1 (e1_j_max = 1) returns low without advancing the stream.
    ours, theirs = Generator(9), np.random.default_rng(9)
    assert ours.integers(4, 5) == int(theirs.integers(4, 5)) == 4
    assert ours.integers(4, 5, size=3) == theirs.integers(4, 5, size=3).tolist()
    assert ours.random() == theirs.random() == Generator(9).random()


@pytest.mark.parametrize("low,high", [(0, 0), (5, 4), (0, 2**32), (0, 2**40)])
def test_ranges_outside_the_32_bit_path_rejected(low, high):
    with pytest.raises(ValueError):
        Generator(1).integers(low, high)
