"""Exact fixed-point helpers for circle arithmetic.

A circle value x in [0, 1) at ``bits`` precision is represented by the
integer floor(x * 2**bits).  All routines here are pure integer
arithmetic, so results are exact for the represented values; callers are
responsible for tracking the (one ulp) representation error of the
original real inputs.

Two helpers stand in for mpmath on hot paths by Ziv's rounding test:
power_bounds encloses a power from 96 bits, and Rotation reads a
direction's cos and sin off a fixed-point rotation with an error bound.
Each returns what mpmath would round only where its enclosure decides it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import (MPZ, from_int, from_man_exp, mpf_cos_sin, mpf_exp,
                          mpf_log, mpf_mul, mpf_neg, mpf_pi)


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
    rounding of an integer.  It serves values that are reported: the
    Cantor half-widths and the Theorem 2 witnesses' thresholds.  The scan
    of approx_solutions decides from power_bounds instead."""
    with mp.workprec(bits + 64):
        scaled = mp.power(n, -mpf(mu)) * (1 << bits)
        return int(mp.floor(scaled))


def _shift(x: int, k: int) -> int:
    """floor(x * 2**k) for any sign of k."""
    return x << k if k >= 0 else x >> -k


def _signed(x) -> Tuple[int, int]:
    """(man, exp) with the value man * 2**exp of a finite mpf tuple."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def power_bounds(n: int, mu, bits: int, prec: int) -> Tuple[int, int]:
    """(lo, hi), integers with lo <= n^-mu * 2**bits <= hi for an integer
    n >= 1 and an mpf tuple mu > 0, that also enclose the power which
    mpf(n) ** -mu rounds at prec bits, times 2**bits.

    The power is exp(-mu*log n) at 96 bits.  mpmath's log, exp, square
    roots and integer powers at p bits are taken to lie within 2^4 ulps of
    their exact values.  mpf ** takes its log at prec + 10 bits, so with
    y = mu*log n and B = min(96, prec), both the 96-bit power and the
    prec-bit one lie within (y + 16) * 2^-(B - 6) of n^-mu, relative; the
    enclosure is four times that wide around the 96-bit power."""
    y = mpf_mul(mu, mpf_log(from_int(n), 96), 96)
    _, man, exp, bc = mpf_exp(mpf_neg(y), 96)
    man, exp = man << 100 - bc, exp - 100 + bc
    y_mag = y[2] + y[3]  # y < 2**y_mag
    margin = ((1 << max(y_mag, 0)) + 16) * man >> min(96, prec) - 8
    return (_shift(man - margin - 1, exp + bits),
            -_shift(-man - margin - 1, exp + bits))


# mpf_cos_sin(x, prec) rounds to prec bits a fixed-point cos and sin that
# it computes with wp >= prec + 10 fractional bits, and wp >= prec + 30
# when x >= 1.  Their error is taken to be below 2^12 units of 2^-wp, 145
# times the largest seen: 28.1 units, over 3,229 arguments in (0, 6) at
# 128 to 4,160 bits (mpmath 1.3.0).
_COS_SIN_ERROR_BITS = 12


def _cmul(a, b, W: int):
    """The product of two fixed-point complex numbers (re, im, err) near
    the unit circle, at W fractional bits.  err bounds the distance to the
    exact unit value in units of 2^-W; the product's bound adds the two
    and 3 for its floors and the second-order term (err_a*err_b << 2^W)."""
    (ar, ai, ea), (br, bi, eb) = a, b
    return (ar * br - ai * bi) >> W, (ar * bi + ai * br) >> W, ea + eb + 3


class Rotation:
    """cos and sin of the directions phi = sign*theta + 2*n*alpha, reduced
    modulo two_pi, from fixed-point rotations, with mpf_cos_sin's answer
    where a rotation cannot decide it.

    theta, alpha and two_pi (an mpf near 2*pi) are mpf tuples, and phi is
    the rounding at prec bits of sign*theta + 2*n*alpha reduced modulo
    two_pi.  With k the nearest integer to (sign*theta + 2*n*alpha - phi)
    / two_pi, delta = phi - sign*theta - 2*n*alpha + 2*pi*k is an exact
    dyadic plus k*(2*pi - two_pi), both tiny, and

        e^(i*phi) = e^(i*sign*theta) * (e^(2i*alpha))^n * e^(i*delta).

    The product is formed at W = prec + guard fractional bits, the guard
    growing with log2|n| as the powers' error does.  Cached per W are
    e^(i*theta) and e^(2i*alpha*2^j), each from mpf_cos_sin at W + 16
    bits, 2*pi - two_pi, and the turns e^(i*(sign*theta + 2*n*alpha)) made
    so far; a turn is its neighbour's at n -+ 1 times e^(+-2i*alpha), or
    else a product of powers.  Each value carries a bound on its error.
    cos_sin returns the rounding at prec bits only when it is the same
    at both ends of the product's enclosure, widened by mpf_cos_sin's own
    error bound: mpf_cos_sin(phi, prec, "n") rounds a value within that
    interval, so it returns the same pair (Ziv's rounding test).
    Otherwise, and for phi < 1, where that error bound exceeds half an ulp
    of sin phi, it returns None."""

    __slots__ = ("theta", "two_alpha", "bits", "exact", "bases")

    def __init__(self, theta, alpha, two_pi, prec: int):
        sign, man, exp, bc = alpha
        self.theta, self.two_alpha = theta, (sign, man, exp + 1, bc)
        self.bits = prec
        self.exact = tuple(map(_signed, (theta, alpha, two_pi)))
        self.bases: dict = {}

    def _bases(self, W: int):
        """(e^(i*theta), [e^(2i*alpha*2^j)...], 2*pi - two_pi on the grid
        2^-(W + 64) within 4 units, {(sign, n): turn}) at W bits."""
        bases = self.bases.get(W)
        if bases is None:
            def unit(x):
                # within 1 + 2^-13 units per part, so 2 in all
                c, s = (_shift(man, exp + W) for man, exp
                        in map(_signed, mpf_cos_sin(x, W + 16, "n")))
                return c, s, 2
            pi, pe = _signed(mpf_pi(W + 64, "n"))
            tp, te = self.exact[2]
            gap = _shift(pi, pe + W + 65) - _shift(tp, te + W + 64)
            bases = self.bases[W] = (unit(self.theta), [unit(self.two_alpha)],
                                     gap, {})
        return bases

    def cos_sin(self, phi, sign: int, n: int):
        """mpf_cos_sin(phi, prec, "n") for phi as in the class docstring,
        or None when the rotation cannot decide it."""
        prec = self.bits
        man, exp = _signed(phi)
        if man <= 0 or man.bit_length() + exp <= 0 or abs(n) >> 55:
            return None
        W = prec + 32 * ((abs(n).bit_length() + 55) // 32)
        theta, pows, gap, turns = self._bases(W)
        # N = sign*theta + 2*n*alpha - phi and two_pi, exactly on a grid 2^e
        (tm, te), (am, ae), (qm, qe) = self.exact
        e = min(te, ae, exp, qe)
        tp = qm << qe - e
        N = (sign * tm << te - e) + (n * am << ae + 1 - e) - (man << exp - e)
        k = (2 * N + tp) // (2 * tp)
        # delta at W bits: within 1 unit for the floor, and as |k| <= |n| + 2,
        # 4|k| < 2^58 units of 2^-(W + 64) for gap, so 2 in all
        d = _shift(k * tp - N, e + W + 64) + k * gap >> 64
        if abs(d) >> W - 16:  # the series below needs |delta| < 2^-16
            return None
        turn = turns.get((sign, n))
        if turn is None:
            step = pows[0]
            if (sign, n - 1) in turns:
                turn = _cmul(turns[sign, n - 1], step, W)
            elif (sign, n + 1) in turns:
                turn = _cmul(turns[sign, n + 1], (step[0], -step[1], step[2]),
                             W)
            else:
                turn = theta[0], sign * theta[1], theta[2]
                nn, i = abs(n), 0
                while nn:
                    if i == len(pows):
                        pr, pi_, pe = pows[-1]
                        pows.append(((pr * pr - pi_ * pi_) >> W,
                                     (pr * pi_) >> W - 1, 2 * pe + 3))
                    if nn & 1:
                        pr, pi_, pe = pows[i]
                        turn = _cmul(turn, (pr, pi_ if n > 0 else -pi_, pe), W)
                    nn, i = nn >> 1, i + 1
            turns[sign, n] = turn
        # e^(i*delta) by its series: delta's 2 units, under 2 per term j
        # and under 2 for the tail, per part; 4j + 8 bounds them in all
        c, s, a, j = 1 << W, d, d, 1
        while a:
            j += 1
            a = (a * d >> W) // j
            if j & 1:
                s += a if j & 2 == 0 else -a
            else:
                c += a if j & 2 == 0 else -a
        c, s, err = _cmul(turn, (c, s, 4 * j + 8), W)
        # each part rounds alike over [|v| - r, |v| + r], a tie excluded;
        # the rounding is then normalized as from_man_exp does
        r = err + (1 << W - prec - 30 + _COS_SIN_ERROR_BITS) + 1
        out = []
        for v in (c, s):
            lo, hi = abs(v) - r, abs(v) + r
            shift = hi.bit_length() - prec
            if lo <= 0 or shift < 1 or lo.bit_length() != hi.bit_length():
                return None
            half = 1 << shift - 1
            top = (lo + half) >> shift
            if top != (hi + half) >> shift or not (lo + half) & (2 * half - 1):
                return None
            zeros = (top & -top).bit_length() - 1
            top >>= zeros
            out.append((int(v < 0), MPZ(top), shift - W + zeros,
                        top.bit_length()))
        return tuple(out)


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
