"""Inhomogeneous approximation machinery: exact solution enumeration for
||t + p*omega|| below power thresholds and the ubiquity deficiency
functional.

Solutions are enumerated in exact integer arithmetic at any p_max: in each
block of indices of one bit length, the hitting-time kernel first_hit
walks from one index whose fixed-point orbit point lies within the block's
allowance of 0 to the next, each hit is kept if it is close enough to be a
solution of the real problem, and every kept index is verified with
mpmath.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

from mpmath import mp, mpf

from .circle import CirclePoint, detect_rational_angle
from .errors import OrbitPoint, RationalRotation
from .fixedpoint import arc_hits, index_range, power_floor, to_fixed
from .intervals import IntervalUnion, circle_pairs


@dataclass(frozen=True)
class ApproxSolution:
    """One solution of ||t + p*omega|| < threshold(|p|).

    residue is the canonical representative of p mod m for the modulus the
    producing scan used.
    """

    p: int
    residue: int
    distance: mpf


def _exact_distance(t: mpf, w: mpf, p: int, bits: int) -> mpf:
    """||t + p*w|| on the unit circle, at working precision."""
    with mp.workprec(bits + 64 + abs(p).bit_length()):
        x = t + p * w
        x = x - mp.floor(x)
        return min(x, 1 - x)


def _candidates(t: CirclePoint, omega: CirclePoint, sign: int, m: int,
                residue: int, p_max: int,
                thr_fp: Callable[[int], int]) -> Iterator[int]:
    """Yield, increasing, every |p| <= p_max with |p| = residue (mod m) whose
    fixed-point point (T + sign*|p|*W) mod 2^bits lies within
    thr_fp(|p|) + |p| + 2 ulps of 0.

    T and W are the floors of t and omega at the working precision, so the
    real point t + p*omega lies less than |p| + 1 ulps from the fixed-point
    one.  With thr_fp(|p|) at least the threshold in ulps rounded down,
    less one ulp, every solution of the real problem is therefore yielded,
    at any p_max; the last ulp absorbs that rounding of the threshold.  The
    real threshold never increases with |p|, so the allowance
    thr_fp(first) + last + 2 covers every index of a block first..last of
    one bit length: the block's orbit hits within it are walked with
    first_hit, and each is kept if its own allowance holds.
    """
    bits = min(t.precision_bits, omega.precision_bits)
    scale = 1 << bits
    w = sign * to_fixed(omega.value, bits) % scale
    center = -to_fixed(t.value, bits) % scale
    for k in range(p_max.bit_length()):
        i_lo, i_hi = index_range(1 << k, min(2 << k, p_max + 1) - 1,
                                 m, residue)
        if i_lo > i_hi:
            continue
        first, last = m * i_lo + residue, m * i_hi + residue
        allow = thr_fp(first) + last + 2
        for i in arc_hits(w, scale, m, residue, i_lo, i_hi, center, allow):
            p_abs = m * i + residue
            x = (p_abs * w - center) % scale
            if min(x, scale - x) <= thr_fp(p_abs) + p_abs + 2:
                yield p_abs


def _normalize_sign(sign) -> int:
    if sign in (1, "+"):
        return 1
    if sign in (-1, "-"):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def approx_solutions(t: CirclePoint, omega: CirclePoint, mu: float, m: int,
                     l: int, p_max: int, sign) -> List[ApproxSolution]:
    """All p of the requested sign with |p| <= p_max, p = l (mod m) and
    ||t + p*omega|| < |p|^(-mu), sorted by |p|.

    The threshold exponent mu may be any real >= 2^-19, the input range
    the scan is validated over (the sets W(omega, mu) of the dimension
    side use mu > 1; the billiard schedules use mu < 1).  The scan's
    soundness holds for any mu > 0, so the range can be widened as a
    declared input change.
    """
    if not mu >= 2 ** -19:
        raise ValueError(f"mu must be >= 2^-19, got {mu}")
    if not (0 <= l < m):
        raise ValueError("need 0 <= l < m")
    if p_max < m:
        raise ValueError("p_max must be at least m")
    s = _normalize_sign(sign)
    bits = min(t.precision_bits, omega.precision_bits)
    # |p| must satisfy s*|p| = l (mod m)
    residue = l % m if s > 0 else (-l) % m
    with mp.workprec(bits + 32):
        mu_m = mpf(mu)

    out: List[ApproxSolution] = []
    for p_abs in _candidates(t, omega, s, m, residue, p_max,
                             lambda p: power_floor(p, mu_m, bits)):
        p = s * p_abs
        d = _exact_distance(t.value, omega.value, p, bits)
        with mp.workprec(bits + 32):
            hit = d < mpf(p_abs) ** (-mu_m)
        if hit:
            out.append(ApproxSolution(p=p, residue=p % m, distance=d))
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
    floor_thr = mpf(2) ** (-(bits // 2))
    floor_fp = 1 << (bits - bits // 2)

    # One candidate stream per sign covers both tests: the allowance is the
    # larger of the orbit floor and the Minkowski threshold, and never
    # increases with |p|.
    orbit_hits: List[int] = []
    out: List[ApproxSolution] = []
    for s in (1, -1):
        for p_abs in _candidates(
                t, omega, s, 1, 0, p_max,
                lambda p_abs: max(floor_fp, (1 << bits) // (4 * p_abs))):
            p = s * p_abs
            d = _exact_distance(t.value, omega.value, p, bits)
            if d < floor_thr:
                orbit_hits.append(p)
                continue
            with mp.workprec(bits + 32):
                if d < mpf(1) / (4 * p_abs):
                    out.append(ApproxSolution(p=p, residue=0, distance=d))
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
    inward (the floors of its center and of rho, less 1 ulp), so it lies
    inside its real arc and the deficiency is an upper bound."""
    if N < 1 or K <= 0 or eps <= 0:
        raise ValueError("need N >= 1, K > 0, eps > 0")
    bits = omega.precision_bits
    rho = ubiquity_rho(m, l, N, K, eps, bits)
    with mp.workprec(bits + 32):
        q_top = N * m + l
        if q_top >= 1 and 2 * rho * q_top >= 1:
            return mpf(0)
        w = mpf(omega.value)
        half = to_fixed(rho, bits) - 1
        complement = IntervalUnion.make([(0, 1 << bits)], bits)
        for k in range(N, 0, -1):
            q = k * m + l
            if q < 1:
                continue
            pairs: List[Tuple[int, int]] = []
            for i in range(q):
                pairs.extend(
                    circle_pairs(to_fixed((w + i) / q, bits), half, bits))
            complement = complement.subtract(IntervalUnion.make(pairs, bits))
            if not complement:
                return mpf(0)
        return complement.total_length
