"""Finite unions of disjoint open intervals.

The universal set representation: sorted, pairwise-disjoint open intervals
with mpmath endpoints at a tagged precision.  Intervals may live on the
unit circle (use :func:`circle_pairs` or
:meth:`IntervalUnion.circle_interval`, which split wrap-around intervals
at 0) or on any real segment (cross-sections).
Normalization merges intervals that overlap or approach within
2^(-precision_bits+8).

Serialization: a line-oriented text form ("lo hi" per line, decimal digits
faithful to the tagged precision) and a JSON object form with string
endpoints.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from mpmath import mp, mpf

Pair = Tuple[mpf, mpf]

DEFAULT_PRECISION = 256


def _dps_for(bits: int) -> int:
    return int(bits * 0.30103) + 3


def fmt(x, digits: int = 20) -> str:
    """The one decimal rendering of a number in reports and exchange files:
    ``digits`` significant digits, trailing zeros stripped, rounded at
    max(4*digits, 64) bits; ``_dps_for(bits)`` digits keep a value at
    ``bits`` faithful."""
    with mp.workprec(max(4 * digits, 64)):
        return mp.nstr(mpf(x), digits, strip_zeros=True)


def circle_pairs(center, halfwidth, bits: int) -> List[Pair]:
    """(center - halfwidth, center + halfwidth) mod 1 as (lo, hi) pairs,
    split at 0 if it wraps.

    The floor is taken from the unrounded center and the half-width is
    used as given: rounding either to working precision first would move
    the low bits of endpoints whose center has a large integer part.
    """
    with mp.workprec(bits + 16):
        c = center - mp.floor(center)
        h = halfwidth
        if h <= 0:
            return []
        if 2 * h >= 1:
            return [(mpf(0), mpf(1))]
        lo, hi = c - h, c + h
        if lo < 0:
            return [(mpf(0), hi), (lo + 1, mpf(1))]
        if hi > 1:
            return [(mpf(0), hi - 1), (lo, mpf(1))]
        return [(lo, hi)]


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of pairwise-disjoint open intervals (lo, hi)."""

    intervals: Tuple[Pair, ...]
    precision_bits: int = DEFAULT_PRECISION

    # -- construction -------------------------------------------------

    @classmethod
    def make(cls, pairs: Iterable[Sequence], precision_bits: int = DEFAULT_PRECISION,
             ) -> "IntervalUnion":
        """Normalize arbitrary (lo, hi) pairs: sort, drop empty, merge."""
        tol = mpf(2) ** (-precision_bits + 8)
        with mp.workprec(precision_bits + 16):
            raw: List[Pair] = []
            for lo, hi in pairs:
                lo_m, hi_m = mpf(lo), mpf(hi)
                if hi_m > lo_m:
                    raw.append((lo_m, hi_m))
            raw.sort(key=lambda p: (p[0], p[1]))
            merged: List[Pair] = []
            for lo, hi in raw:
                if merged and lo <= merged[-1][1] + tol:
                    if hi > merged[-1][1]:
                        merged[-1] = (merged[-1][0], hi)
                else:
                    merged.append((lo, hi))
        return cls(tuple(merged), precision_bits)

    @classmethod
    def empty(cls, precision_bits: int = DEFAULT_PRECISION) -> "IntervalUnion":
        return cls((), precision_bits)

    @classmethod
    def circle_interval(cls, center, halfwidth,
                        precision_bits: int = DEFAULT_PRECISION) -> "IntervalUnion":
        """The open interval (center-halfwidth, center+halfwidth) mod 1,
        split at 0 if it wraps."""
        return cls.make(circle_pairs(center, halfwidth, precision_bits), precision_bits)

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def total_length(self) -> mpf:
        with mp.workprec(self.precision_bits + 16):
            return mpf(sum((hi - lo for lo, hi in self.intervals), mpf(0)))

    def contains_point(self, x) -> bool:
        with mp.workprec(self.precision_bits + 16):
            v = mpf(x)
        los = [lo for lo, _ in self.intervals]
        i = bisect_right(los, v) - 1
        return i >= 0 and self.intervals[i][0] < v < self.intervals[i][1]

    # -- set operations ------------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        bits = min(self.precision_bits, other.precision_bits)
        return IntervalUnion.make(list(self.intervals) + list(other.intervals), bits)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        bits = min(self.precision_bits, other.precision_bits)
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
        return IntervalUnion.make(out, bits)

    def subtract(self, other: "IntervalUnion") -> "IntervalUnion":
        bits = min(self.precision_bits, other.precision_bits)
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
        return IntervalUnion.make(out, bits)

    def complement(self, lo, hi) -> "IntervalUnion":
        """The complement of this union within the segment (lo, hi)."""
        whole = IntervalUnion.make([(lo, hi)], self.precision_bits)
        return whole.subtract(self)

    def is_subset_of(self, other: "IntervalUnion") -> bool:
        """True if every interval here lies inside one interval of other,
        up to the merge tolerance."""
        bits = min(self.precision_bits, other.precision_bits)
        with mp.workprec(bits + 16):
            tol = mpf(2) ** (-bits + 8)
            los = [lo for lo, _ in other.intervals]
            for lo, hi in self.intervals:
                i = bisect_right(los, lo + tol) - 1
                if i < 0:
                    return False
                olo, ohi = other.intervals[i]
                if lo < olo - tol or hi > ohi + tol:
                    return False
        return True

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        digits = _dps_for(self.precision_bits)
        lines = [f"{fmt(lo, digits)} {fmt(hi, digits)}" for lo, hi in self.intervals]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str, precision_bits: int = DEFAULT_PRECISION) -> "IntervalUnion":
        pairs = []
        with mp.workprec(precision_bits + 16):
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                lo_s, hi_s = line.split()
                pairs.append((mpf(lo_s), mpf(hi_s)))
        return cls.make(pairs, precision_bits)

    def to_json_obj(self) -> dict:
        digits = _dps_for(self.precision_bits)
        return {
            "precision_bits": self.precision_bits,
            "count": len(self.intervals),
            "total_length": fmt(self.total_length, digits),
            "intervals": [[fmt(lo, digits), fmt(hi, digits)]
                          for lo, hi in self.intervals],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "IntervalUnion":
        bits = int(obj.get("precision_bits", DEFAULT_PRECISION))
        with mp.workprec(bits + 16):
            pairs = [(mpf(lo), mpf(hi)) for lo, hi in obj["intervals"]]
        return cls.make(pairs, bits)

    @classmethod
    def from_json(cls, s: str) -> "IntervalUnion":
        return cls.from_json_obj(json.loads(s))
