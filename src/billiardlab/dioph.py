"""Inhomogeneous approximation machinery: exact solution enumeration for
||t + p*omega|| below power thresholds and the ubiquity deficiency
functional.

Every mpf is a dyadic rational, so t and omega lie exactly on the grid
2^-E of the finer of their two denominators, and so does every orbit
point t + p*omega.  Solutions are enumerated on that grid in one integer
pass, at any p_max: in each block of indices of one bit length, the
hitting-time kernel first_hit walks from one index whose orbit point lies
within the block's allowance of 0 to the next, and each hit is kept if
its exact grid distance meets its own allowance.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterator, List, Tuple

from mpmath import mp, mpf

from .circle import CirclePoint, detect_rational_angle
from .errors import OrbitPoint, RationalRotation
from .fixedpoint import (arc_hits, from_fixed, index_range, mpf_to_fraction,
                         on_grid, power_floor, to_fixed)
from .intervals import IntervalUnion, circle_pairs
from .records import Frozen


class ApproxSolution(Frozen):
    """One solution of ||t + p*omega|| < threshold(|p|), with its exact
    distance."""

    __slots__ = ("p", "distance")


def _grid(t: CirclePoint, omega: CirclePoint) -> Tuple[int, int, int]:
    """(T, W, E) with t = T/2^E and omega = W/2^E exactly, E the larger
    denominator exponent of the two values.

    A nonzero value v stored at precision_bits keeps at most
    precision_bits + 16 mantissa bits, so its exponent is at most
    precision_bits + 15 - floor(log2 v).  Every integer the scans build on
    this grid is E bits wide, so their cost grows with log2(1/v) of the
    smaller nonzero value, not with precision_bits alone.  thm1_cover
    therefore refuses, at config time, a nonzero target below
    2^-precision_bits, which keeps its grids within 2*precision_bits + 15
    bits."""
    E, (T, W) = on_grid((t.value, omega.value))
    return T, W, E


def _hits(T: int, W: int, E: int, sign: int, m: int, residue: int,
          p_max: int, allow: Callable[[int], int]) -> Iterator[Tuple[int, int]]:
    """Yield, increasing in |p|, every (|p|, d) with |p| <= p_max and
    |p| = residue (mod m) whose grid distance d, that of
    (T + sign*|p|*W) mod 2^E from 0, is at most allow(|p|).

    allow never increases with |p|, so the allowance of a block's first
    index covers the whole block of one bit length: the block's orbit hits
    within it are walked with first_hit, and each is kept if its own
    allowance holds.
    """
    scale = 1 << E
    w = sign * W % scale
    center = -T % scale
    for k in range(p_max.bit_length()):
        i_lo, i_hi = index_range(1 << k, min(2 << k, p_max + 1) - 1,
                                 m, residue)
        if i_lo > i_hi:
            continue
        block = allow(m * i_lo + residue)
        for i in arc_hits(w, scale, m, residue, i_lo, i_hi, center, block):
            p_abs = m * i + residue
            x = (p_abs * w - center) % scale
            d = min(x, scale - x)
            if d <= allow(p_abs):
                yield p_abs, d


def approx_solutions(t: CirclePoint, omega: CirclePoint, mu: float, m: int,
                     l: int, p_max: int, sign: int) -> List[ApproxSolution]:
    """All p of the requested sign (+1 or -1) with |p| <= p_max,
    p = l (mod m) and ||t + p*omega|| < |p|^(-mu), sorted by |p|.

    The threshold exponent mu may be any real >= 2^-19, the input range
    the scan is validated over (the sets W(omega, mu) of the dimension
    side use mu > 1; the billiard schedules use mu < 1).  The scan's
    soundness holds for any mu > 0, so the range can be widened as a
    declared input change.

    The scan and its power_floor thresholds work at the grid's E bits (see
    _grid), so a t or omega far below 2^-precision_bits, such as a tiny
    target angle, costs more than its precision suggests.
    """
    if not mu >= 2 ** -19:
        raise ValueError(f"mu must be >= 2^-19, got {mu}")
    if not (0 <= l < m):
        raise ValueError("need 0 <= l < m")
    if p_max < m:
        raise ValueError("p_max must be at least m")
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    bits = min(t.precision_bits, omega.precision_bits)
    T, W, E = _grid(t, omega)
    # |p| must satisfy sign*|p| = l (mod m)
    residue = l % m if sign > 0 else (-l) % m
    with mp.workprec(bits + 32):
        mu_m = mpf(mu)

    # power_floor may sit one below the exact floor, which a grid distance
    # below |p|^-mu never exceeds
    out: List[ApproxSolution] = []
    for p_abs, d in _hits(T, W, E, sign, m, residue, p_max,
                          lambda p: power_floor(p, mu_m, E) + 1):
        distance = from_fixed(d, E)
        with mp.workprec(bits + 32):
            hit = distance < mpf(p_abs) ** (-mu_m)
        if hit:
            out.append(ApproxSolution(sign * p_abs, distance))
    return out


def minkowski_solutions(t: CirclePoint, omega: CirclePoint,
                        p_max: int) -> List[ApproxSolution]:
    """All p with 1 <= |p| <= p_max and ||t + p*omega|| < 1/(4|p|):
    positive p first, then negative p, each sorted by |p|.

    Raises OrbitPoint if any |p| <= p_max (either sign) puts t + p*omega
    within 2^(-precision_bits/2) of 0: t is then indistinguishable from an
    orbit point of the rotation at working precision.  A rational rotation
    number (detected at working precision) emits a RationalRotation
    warning before scanning.
    """
    bits = min(t.precision_bits, omega.precision_bits)
    if detect_rational_angle(omega) is not None:
        warnings.warn("rotation number is rational at working precision; "
                      "orbit distances are eventually periodic", RationalRotation)
    T, W, E = _grid(t, omega)
    # A grid distance d is below 2^-(bits//2) iff d <= orbit, and below
    # 1/(4|p|) iff 4*|p|*d < 2^E: one allowance per sign decides both
    # tests exactly, and never increases with |p|.
    orbit = max((1 << E >> bits // 2) - 1, 0)
    orbit_hits: List[int] = []
    out: List[ApproxSolution] = []
    for s in (1, -1):
        for p_abs, d in _hits(
                T, W, E, s, 1, 0, p_max,
                lambda p_abs: max(orbit, ((1 << E) - 1) // (4 * p_abs))):
            if d <= orbit:
                orbit_hits.append(s * p_abs)
            else:
                out.append(ApproxSolution(s * p_abs, from_fixed(d, E)))
    if orbit_hits:
        nearest = min(orbit_hits, key=abs)
        raise OrbitPoint(f"t + {nearest}*omega is within 2^-{bits // 2} of 0: "
                         "t lies on the rotation orbit at working precision")
    return out


def ubiquity_rho(m: int, l: int, N: int, K: float, eps: float,
                 bits: int = 256) -> mpf:
    """The neighborhood radius K * log^(5+2*eps)(N*m+l) / (N*m+l)^2."""
    with mp.workprec(bits + 16):
        q = N * m + l
        if q < 1:
            raise ValueError("N*m + l must be at least 1")
        lg = mp.log(q)
        if lg <= 0:
            return mpf(0)
        return mpf(K) * lg ** (5 + 2 * mpf(eps)) / mpf(q) ** 2


def ubiquity_deficiency(omega: CirclePoint, m: int, l: int, N: int,
                        K: float, eps: float) -> mpf:
    """Lebesgue measure of the part of [0,1) missed by the rho(N)-
    neighborhoods of the rational-solution families
    R_k = {(omega+i)/(k*m+l) : i = 0..k*m+l-1} for k = 1..N.

    The family R_k consists of exactly q = k*m+l equally spaced points
    (consecutive centers differ by exactly 1/q), so a single family covers
    the circle as soon as 2*rho*q >= 1; that shortcut is exact and makes
    large-N calls cheap.  Otherwise families are subtracted largest-q
    first with an early exit once nothing remains.  Each arc is rounded
    inward (the exact floor of its center, and the floor of rho less 1
    ulp), so it lies inside its real arc and the deficiency is an upper
    bound."""
    if N < 1 or K <= 0 or eps <= 0:
        raise ValueError("need N >= 1, K > 0, eps > 0")
    bits = omega.precision_bits
    rho = ubiquity_rho(m, l, N, K, eps, bits)
    with mp.workprec(bits + 32):
        q_top = N * m + l
        if q_top >= 1 and 2 * rho * q_top >= 1:
            return mpf(0)
    w = mpf_to_fraction(omega.value)
    num, den = w.numerator, w.denominator
    half = to_fixed(rho, bits) - 1
    complement = IntervalUnion.make([(0, 1 << bits)], bits)
    for k in range(N, 0, -1):
        q = k * m + l
        if q < 1:
            continue
        pairs: List[Tuple[int, int]] = []
        for i in range(q):
            # floor((omega + i)/q * 2^bits), exactly
            center = ((num + i * den) << bits) // (q * den)
            pairs.extend(circle_pairs(center, half, bits))
        complement = complement.subtract(IntervalUnion.make(pairs, bits))
        if not complement:
            return mpf(0)
    return complement.total_length
