"""Exact fixed-point helpers for circle arithmetic.

A circle value x in [0, 1) at ``bits`` precision is represented by the
integer floor(x * 2**bits).  All routines here are pure integer
arithmetic, so results are exact for the represented values; callers are
responsible for tracking the (one ulp) representation error of the
original real inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp


def on_grid(values, least: int = 0) -> Tuple[int, List[int]]:
    """(E, ints) with values[i] = ints[i] / 2**E exactly, for finite mpfs:
    E is the least exponent >= ``least`` whose grid holds them all, read
    off their mantissas without rounding (every mpf is dyadic)."""
    parts = []
    for v in values:
        sign, man, exp, _ = v._mpf_
        if not man and exp:
            raise ValueError(f"non-finite value {v}")
        parts.append((-int(man) if sign else int(man), exp))
    E = max([least] + [-exp for man, exp in parts if man])
    return E, [man << (E + exp) for man, exp in parts]


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf (every mpf is dyadic); an mpf
    is read as it is, not rounded to the working precision first."""
    E, (num,) = on_grid([x if isinstance(x, mpf) else mpf(x)])
    return Fraction(num, 1 << E)


def to_fixed(x, bits: int) -> int:
    """floor(x * 2**bits) for an mpf or int x (any value mpf() accepts,
    which a Fraction is not), from x rounded to bits + 64 bits.  Scaling
    by 2**bits and flooring are exact, so the floor is read off the
    rounded mantissa."""
    sign, man, exp, bc = mpf(x, prec=bits + 64)._mpf_
    if bc < 0:
        raise ValueError(f"cannot convert the non-finite value {x} to "
                         f"fixed point")
    man = -int(man) if sign else int(man)
    shift = exp + bits
    return man << shift if shift >= 0 else man >> -shift


def from_fixed(n: int, bits: int) -> mpf:
    """Exact mpf value n / 2**bits, built from its mantissa and exponent
    without rounding."""
    return mp.make_mpf(from_man_exp(n, -bits))


def power_floor(n: int, mu, bits: int) -> int:
    """floor(n^-mu * 2**bits) for an integer n >= 1, from the power rounded
    to bits + 64 bits.  As n^-mu <= 1, the rounding moves the scaled value
    by well under one ulp, so the result is within one of the exact floor,
    and differs from it only when n^-mu * 2**bits lies within that
    rounding of an integer."""
    with mp.workprec(bits + 64):
        scaled = mp.power(n, -mpf(mu)) * (1 << bits)
        return int(mp.floor(scaled))


def index_range(lo: int, hi: int, m: int, res: int) -> Tuple[int, int]:
    """(i_lo, i_hi): the indices i with lo <= m*i + res <= hi, for m > 0 and
    any signs; the range is empty when i_lo > i_hi."""
    return -((res - lo) // m), (hi - res) // m


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Exact sum_{i=0}^{n-1} floor((a*i + b) / m) for m > 0, any-sign a, b.

    Standard Euclidean-style recursion; runs in O(log) big-integer steps,
    which keeps orbit counting exact even for ranges far beyond anything
    enumerable.
    """
    if n <= 0:
        return 0
    assert m > 0
    total = 0
    while True:
        if a >= m or a < 0:
            qa, a = divmod(a, m)
            total += n * (n - 1) // 2 * qa
        if b >= m or b < 0:
            qb, b = divmod(b, m)
            total += n * qb
        y_max = a * n + b
        if y_max < m:
            return total
        # swap roles: count lattice points under the line from the side
        n, b, m, a = y_max // m, y_max % m, a, m


def count_arc(w: int, scale: int, m: int, res: int, p_lo: int, p_hi: int,
              center: int, allow: int) -> int:
    """card{p in [p_lo, p_hi]: ((m*p + res) * w) mod scale lies within
    `allow` of `center` on the circle of circumference scale}.

    Exact for the fixed-point rotation number w/scale.  With
    x = (m*p + res)*w, floor((x - center + allow) / scale) minus
    floor((x - center - allow - 1) / scale) is 1 when the point lies in the
    closed arc and 0 otherwise; each sum of floors is one floor_sum.  Any
    signed p range and any residue are allowed.
    """
    if allow < 0 or p_hi < p_lo:
        return 0
    n = p_hi - p_lo + 1
    width = 2 * allow + 1
    if width >= scale:
        return n
    a = w * m
    b0 = w * (m * p_lo + res) - (center - allow)
    return floor_sum(n, scale, a, b0) - floor_sum(n, scale, a, b0 - width)


def count_arcs(w: int, scale: int, m: int, res: int, p_lo: int, p_hi: int,
               js: Sequence[int], allow: int) -> List[int]:
    """[count_arc(w, scale, m, res, p_lo, p_hi, j*w mod scale, allow) for j
    in js].  With d = j // m, the count around j*w is the count around 0 of
    residue r = res - j mod m over [p_lo - d, p_hi - d], by translation
    invariance.  Per residue class r, one full count at the least shift d0,
    and with d1 the greatest shift, the hits of the two longest windows,
    [p_lo - d1, p_lo - d0 - 1] and [p_hi - d1 + 1, p_hi - d0]; each j adds
    the left hits >= p_lo - d and takes off the right hits >= p_hi - d + 1,
    one bisection each.

    A window walk costs one first_hit per hit, plus one for the miss that
    ends it, and a window of L = d1 - d0 indices holds about
    L*(2*allow + 1)/scale hits.  For Cantor parents, L is at most their
    index spread over m and allow at most a parent half-width plus its
    guard, so for mu > 1 a window holds under one hit on average."""
    if p_hi < p_lo:
        return [0] * len(js)
    if 2 * allow + 1 >= scale:
        return [p_hi - p_lo + 1] * len(js)
    d0 = min(js, default=0) // m
    d1 = max(js, default=0) // m
    classes, out = {}, []
    for j in js:
        d, r = j // m, res - j % m
        if r not in classes:
            classes[r] = (
                count_arc(w, scale, m, r, p_lo - d0, p_hi - d0, 0, allow),
                list(arc_hits(w, scale, m, r, p_lo - d1, p_lo - d0 - 1, 0,
                              allow)),
                list(arc_hits(w, scale, m, r, p_hi - d1 + 1, p_hi - d0, 0,
                              allow)))
        ref, left, right = classes[r]
        out.append(ref + len(left) - bisect_left(left, p_lo - d)
                   - len(right) + bisect_left(right, p_hi - d + 1))
    return out


def first_hit(a: int, b: int, m: int, L: int, R: int) -> Optional[int]:
    """Least x >= 0 with (a*x + b) mod m in the circular arc [L, R] (from L
    up to R, through 0 when L > R mod m), or None if no x qualifies; any
    signs, m > 0.

    After the x = 0 test this is the least x with a*x mod m in [lo, hi],
    0 < lo <= hi < m.  Reflecting (a, lo, hi) to (m - a, m - hi, m - lo)
    keeps a <= m/2.  If no multiple of a lies in [lo, hi], the answer is
    ceil((lo + m*y)/a) for the least y >= 0 with (-m*y) mod a in
    [lo mod a, hi mod a]: the same problem on (-m mod a, a), so the
    modulus at least halves at each level (Slater's return times, by
    Euclid's steps).  The levels are kept in a list rather than on the
    call stack, since a modulus of n bits can need n of them.
    """
    assert m > 0
    a, L = a % m, L % m
    width = (R - L) % m
    start = (b - L) % m
    if start <= width:
        return 0
    lo, hi = m - start, m - start + width
    levels = []
    while True:
        if a == 0:
            return None
        if 2 * a > m:
            a, lo, hi = m - a, m - hi, m - lo
        x = -(-lo // a)
        if a * x <= hi:
            break
        levels.append((lo, m, a))
        a, m, lo, hi = -m % a, a, lo % a, hi % a
    for lo, m, a in reversed(levels):
        x = -(-(lo + m * x) // a)
    return x


def arc_hits(w: int, scale: int, m: int, res: int, p_lo: int, p_hi: int,
             center: int, allow: int) -> Iterator[int]:
    """Yield, increasing, every p that count_arc counts with the same
    arguments: one first_hit per hit, plus one for the miss that ends the
    walk; every index when the arc is the whole circle."""
    if allow < 0:
        return
    if 2 * allow + 1 >= scale:
        yield from range(p_lo, p_hi + 1)
        return
    a = w * m
    p = p_lo
    while p <= p_hi:
        x = first_hit(a, w * (m * p + res), scale, center - allow,
                      center + allow)
        if x is None or p + x > p_hi:
            return
        p += x
        yield p
        p += 1
