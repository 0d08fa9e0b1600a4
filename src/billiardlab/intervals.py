"""Finite unions of disjoint open intervals on a dyadic grid.

The universal set representation: sorted, pairwise-disjoint open intervals
(lo, hi) whose endpoints are integers n standing for n / 2**precision_bits.
All set algebra is exact integer arithmetic.  Normalization merges only
intervals that overlap or touch, and set operations between unions on
different grids raise ValueError.  Intervals may live on the unit circle
(:func:`circle_pairs` splits wrap-around arcs at 0) or on any real segment
(cross-sections); ``total_length`` reads the exact measure out as an mpf.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, List, Tuple

from mpmath import mp, mpf

from .fixedpoint import from_fixed
from .records import Frozen, same_fields

Pair = Tuple[int, int]

DEFAULT_PRECISION = 256

_lo = itemgetter(0)


def _dps_for(bits: int) -> int:
    return int(bits * 0.30103) + 3


def fmt(x, digits: int = 20) -> str:
    """The one decimal rendering of a number in reports: ``digits``
    significant digits, trailing zeros stripped, rounded at
    max(4*digits, 64) bits; ``_dps_for(bits)`` digits keep a value at
    ``bits`` faithful."""
    with mp.workprec(max(4 * digits, 64)):
        return mp.nstr(mpf(x), digits, strip_zeros=True)


def circle_pairs(center: int, half: int, bits: int) -> List[Pair]:
    """(center - half, center + half) mod 2**bits as grid pairs, split at
    0 if it wraps; the whole circle once the arc is at least as long."""
    one = 1 << bits
    if half <= 0:
        return []
    if 2 * half >= one:
        return [(0, one)]
    c = center % one
    lo, hi = c - half, c + half
    if lo < 0:
        return [(0, hi), (lo + one, one)]
    if hi > one:
        return [(0, hi - one), (lo, one)]
    return [(lo, hi)]


class IntervalUnion(Frozen):
    """Sorted union of pairwise-disjoint open intervals (lo, hi) on the
    2**-precision_bits grid."""

    __slots__ = ("intervals", "precision_bits")

    __eq__ = same_fields

    # -- construction -------------------------------------------------

    @classmethod
    def make(cls, pairs: Iterable[Pair], precision_bits: int = DEFAULT_PRECISION,
             ) -> "IntervalUnion":
        """Normalize integer (lo, hi) pairs: sort, drop empty, merge
        intervals that overlap or touch."""
        raw = sorted((lo, hi) for lo, hi in pairs if hi > lo)
        if not all(isinstance(x, int) for pair in raw for x in pair):
            raise TypeError("interval endpoints must be grid integers")
        merged: List[Pair] = []
        for lo, hi in raw:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return cls(tuple(merged), precision_bits)

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def total_length(self) -> mpf:
        """The exact measure, as an mpf."""
        return from_fixed(sum(hi - lo for lo, hi in self.intervals),
                          self.precision_bits)

    def contains_point(self, x) -> bool:
        """Membership of x, given in grid units (an int or a Fraction)."""
        i = bisect_right(self.intervals, x, key=_lo) - 1
        return i >= 0 and self.intervals[i][0] < x < self.intervals[i][1]

    # -- set operations ------------------------------------------------

    def _grid(self, other: "IntervalUnion") -> int:
        if self.precision_bits != other.precision_bits:
            raise ValueError(f"grids differ: 2^-{self.precision_bits} and "
                             f"2^-{other.precision_bits}")
        return self.precision_bits

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.make(self.intervals + other.intervals,
                                  self._grid(other))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        bits = self._grid(other)
        out: List[Pair] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if hi > lo:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion(tuple(out), bits)

    def subtract(self, other: "IntervalUnion") -> "IntervalUnion":
        bits = self._grid(other)
        out: List[Pair] = []
        j = 0
        b = other.intervals
        for lo, hi in self.intervals:
            cur = lo
            while j < len(b) and b[j][1] <= cur:
                j += 1
            k = j
            while k < len(b) and b[k][0] < hi:
                if b[k][0] > cur:
                    out.append((cur, b[k][0]))
                cur = max(cur, b[k][1])
                if cur >= hi:
                    break
                k += 1
            if cur < hi:
                out.append((cur, hi))
        return IntervalUnion(tuple(out), bits)

    def complement(self, lo: int, hi: int) -> "IntervalUnion":
        """The complement of this union within the segment (lo, hi)."""
        whole = IntervalUnion.make([(lo, hi)], self.precision_bits)
        return whole.subtract(self)

    def is_subset_of(self, other: "IntervalUnion") -> bool:
        """True if every interval here lies inside one interval of other."""
        self._grid(other)
        for lo, hi in self.intervals:
            i = bisect_right(other.intervals, lo, key=_lo) - 1
            if i < 0 or hi > other.intervals[i][1]:
                return False
        return True
