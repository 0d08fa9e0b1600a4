"""Finite unions of disjoint open intervals on a dyadic grid.

The universal set representation: sorted, pairwise-disjoint open intervals
(lo, hi) whose endpoints are integers n standing for n / 2**precision_bits.
All set algebra is exact integer arithmetic.  Normalization merges only
intervals that overlap or touch, and set operations between unions on
different grids raise ValueError.  Intervals may live on the unit circle
(:func:`circle_pairs` splits wrap-around arcs at 0) or on any real segment
(cross-sections); ``total_length`` reads the exact measure out as an mpf.

The module also holds the library's one decimal rendering of a number:
:func:`fmt_fixed` writes n / 2**bits from integers alone, digit for digit
as ``mpmath.nstr`` writes the same value, and :func:`fmt` reads an mpf's or
a float's mantissa and exponent and hands them to it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, List, Tuple

from mpmath import mpf
from mpmath.libmp import finf, fnan, fninf

from .fixedpoint import from_fixed
from .records import Frozen, same_fields

Pair = Tuple[int, int]

DEFAULT_PRECISION = 256

_lo = itemgetter(0)


def _dps_for(bits: int) -> int:
    return int(bits * 0.30103) + 3


_LOG2_10 = math.log(10, 2)  # the float mpmath's to_digits_exp multiplies by
_SPECIAL = {finf: "+inf", fninf: "-inf", fnan: "nan"}


def fmt(x, digits: int = 20) -> str:
    """The one decimal rendering of a number in reports: an mpf, a float or
    an int through :func:`fmt_fixed`, and a non-finite value as
    ``mp.nstr`` spells it."""
    if isinstance(x, (int, float)):
        if isinstance(x, float) and not math.isfinite(x):
            return "nan" if x != x else "+inf" if x > 0 else "-inf"
        n, d = x.as_integer_ratio()
        return fmt_fixed(n, d.bit_length() - 1, digits)
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        return _SPECIAL[x._mpf_]
    return fmt_fixed(-man if sign else man, -exp, digits)


def fmt_fixed(n: int, bits: int, digits: int = 20) -> str:
    """n / 2**bits with ``digits`` >= 1 significant digits, trailing zeros
    stripped: the string ``mp.nstr`` gives for the value rounded to
    max(4*digits, 64) bits, to nearest with ties to even, made from
    integers alone by the rules of ``mpmath.libmp.libmpf.to_str`` and
    ``to_digits_exp``.  ``_dps_for(bits)`` digits keep a value at ``bits``
    faithful."""
    if not n:
        return "0.0"
    sign, man, exp = "-" if n < 0 else "", abs(n), -bits
    shift = man.bit_length() - max(4 * digits, 64)
    if shift > 0:
        rest = man & ((1 << shift) - 1)
        man >>= shift
        exp += shift
        if rest > 1 << (shift - 1) or rest == 1 << (shift - 1) and man & 1:
            man += 1
    # to_digits_exp at digits + 3: the digits, truncated, of the value
    # (of its quotient by 10**b, rounded down, past 2**3500 either way)
    bitprec = int((digits + 3) * _LOG2_10) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        exponent = _decimal_shift(exp)
        man, exp = _div(man, exp, *_pow10(exponent, bitprec, True), bitprec)
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    # floor(value * 2**fixprec) * 10**fixdps >> fixprec, 10**k as 5**k * 2**k
    text = str((man << shift if shift >= 0 else man >> -shift)
               * _pow5(fixdps) >> fixprec - fixdps)
    exponent += len(text) - fixdps - 1
    # to_str: round the digits half up at ``digits``; a carry out of
    # ...999 gives 1000... and one more in the exponent
    if len(text) > digits and text[digits] in "56789":
        head = text[:digits].rstrip("9")
        if head:
            text = head[:-1] + str(int(head[-1]) + 1) + "0" * (digits - len(head))
        else:
            text, exponent = "1" + "0" * (digits - 1), exponent + 1
    text = text[:digits]
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            text, exponent = "0" * -exponent + text, 0
        split, exponent = exponent + 1, 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    return sign + text + (f"e{exponent:+d}" if exponent else "")


@lru_cache(maxsize=64)
def _pow5(k: int) -> int:
    return 5 ** k


def _round(man: int, exp: int, prec: int, down: bool) -> Tuple[int, int]:
    """man * 2**exp, for man > 0, rounded to prec bits toward zero or away."""
    extra = man.bit_length() - prec
    if extra > 0:
        man = man >> extra if down else -(-man >> extra)
        exp += extra
    return man, exp


def _div(man: int, exp: int, dman: int, dexp: int, prec: int) -> Tuple[int, int]:
    """(man * 2**exp) / (dman * 2**dexp) rounded down to prec bits."""
    k = prec - man.bit_length() + dman.bit_length()
    q = (man << k if k >= 0 else man >> -k) // dman
    return _round(q, exp - dexp - k, prec, True)


def _pow10(n: int, prec: int, down: bool) -> Tuple[int, int]:
    """10**n as mpmath's ``mpf_pow_int(ften, n, prec)`` gives it, rounded
    toward zero or away: exact below 10**334 before the final rounding,
    then by squaring with each product rounded to prec + 4*bitcount(n) + 4
    bits.  A negative n, rounded toward zero only, is the reciprocal of
    10**-n rounded away at prec + 5."""
    if n < 0:
        return _div(1, 0, *_pow10(-n, prec + 5, not down), prec)
    if 3 * n < 1000:
        return _round(5 ** n, n, prec, down)
    work = prec + 4 * n.bit_length() + 4
    man, exp, pm, pe = 5, 1, 1, 0
    while True:
        if n & 1:
            pm, pe = _round(pm * man, pe + exp, work, down)
            n -= 1
            if not n:
                return _round(pm, pe, prec, down)
        man, exp = _round(man * man, exp + exp, work, down)
        n //= 2


def _decimal_shift(exp: int) -> int:
    """to_digits_exp's b = int(exp * log(2) / log(10)): ln 2 and ln 10
    rounded down to bitcount(exp) + 5 bits, their quotient truncated."""
    prec = abs(exp).bit_length() + 5
    wp = prec + 64
    # ln 2 = 2 atanh(1/3) and ln 10 = 3 ln 2 + 2 atanh(1/9), to wp bits
    atanh = []
    for k in (3, 9):
        total, term, i = 0, (1 << wp) // k, 1
        while term:
            total += term // i
            term //= k * k
            i += 2
        atanh.append(total)
    ln2 = 2 * atanh[0]
    ln10 = 3 * ln2 + 2 * atanh[1]
    q = abs(exp) * (ln2 >> 64) // (4 * (ln10 >> 66))
    return q if exp >= 0 else -q


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
