"""Dimension estimation in one dimension: exact greedy box counts,
least-squares slope fits over scale ladders, the average-length covering
construction with its packing bound, and Hausdorff covering sums of
billiard escape sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

from mpmath import mp, mpf

from .errors import InsufficientScales
from .fixedpoint import from_fixed, mpf_to_fraction
from .intervals import IntervalUnion
from .records import Frozen


class CoverReport(Frozen):
    """One covering record: N(epsilon) pieces of length 2*epsilon, the
    covering sum count*epsilon^s, and the single-scale dimension estimate
    log(count)/log(1/epsilon) (None for an empty set)."""

    __slots__ = ("scale", "count", "s", "sum", "dim_estimate")


def box_count(cover_set: IntervalUnion, epsilon, s: float = 1.0) -> CoverReport:
    """Minimal number of closed length-2*epsilon intervals covering the
    union.  The greedy left-to-right sweep is optimal in one dimension:
    each piece is placed at the leftmost uncovered point, and no cover can
    do better than covering that point with a piece extending right.
    Exact on the grid: one ceiling division per interval."""
    bits = cover_set.precision_bits
    with mp.workprec(bits + 16):
        eps = mpf(epsilon)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        piece = mpf_to_fraction(2 * eps) * (1 << bits)  # in grid units
        count = 0
        cursor = None
        for lo, hi in cover_set:
            if cursor is None or cursor < lo:
                cursor = lo
            if cursor < hi:
                k = math.ceil((hi - cursor) / piece)
                count += k
                cursor += k * piece
        total = count * eps ** mpf(s)
        if count == 0 or eps >= 1:
            dim = None
        else:
            dim = mp.log(count) / mp.log(1 / eps) if count > 1 else mpf(0)
        return CoverReport(eps, count, s, total, dim)


class DimensionFit(Frozen):
    """Least-squares slope of log N(eps) against log(1/eps), with the
    per-scale residuals and the underlying cover reports."""

    __slots__ = ("slope", "intercept", "residuals", "reports")


def dim_lb_estimate(scale_sets: Sequence[Tuple[object, IntervalUnion]]) -> DimensionFit:
    """Fit log N(eps) = slope*log(1/eps) + c over a decreasing scale
    ladder of (epsilon, set) pairs; the slope is the finite-scale
    box-dimension estimate.  Requires at least three strictly decreasing
    scales and nonempty sets."""
    if len(scale_sets) < 3:
        raise InsufficientScales("need at least 3 scales for a slope")
    bits = min(u.precision_bits for _, u in scale_sets)
    with mp.workprec(bits + 16):
        epss = [mpf(e) for e, _ in scale_sets]
        for e1, e2 in zip(epss, epss[1:]):
            if not e2 < e1:
                raise InsufficientScales("scales must be strictly decreasing")
        reports = [box_count(u, e) for e, u in scale_sets]
        if any(r.count == 0 for r in reports):
            raise ValueError("cannot fit a slope through an empty set")
        xs = [mp.log(1 / e) for e in epss]
        ys = [mp.log(r.count) for r in reports]
        n = len(xs)
        xbar = sum(xs) / n
        ybar = sum(ys) / n
        sxx = sum((x - xbar) ** 2 for x in xs)
        sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = ybar - slope * xbar
        residuals = tuple(y - (slope * x + intercept) for x, y in zip(xs, ys))
    return DimensionFit(slope, intercept, residuals, tuple(reports))


class AverageCoverReport(Frozen):
    """Result of covering j intervals by pieces of the average length."""

    __slots__ = ("count", "bound_3n_ok", "piece_length", "pieces_per_interval")


def average_length_cover(lengths: Sequence, budget_length) -> AverageCoverReport:
    """Cover intervals of lengths a_1..a_j by pieces of length budget/j.

    count = sum_k (floor(a_k * j / sum(a)) + 1), evaluated on integer
    numerators over one common denominator so floor ties cannot flip with
    rounding; ints and Fractions are taken as exact, anything else through
    its exact mpf value.  The packing bound asserts count <= 3j.  Each
    interval k fits inside its floor(a_k*j/sum)+1 pieces because
    budget >= sum(a)."""
    j = len(lengths)
    if j == 0:
        return AverageCoverReport(0, True, mpf(0), ())

    def exact(x):
        return x if isinstance(x, (int, Fraction)) else mpf_to_fraction(x)

    fracs = [exact(a) for a in lengths]
    den = math.lcm(*(a.denominator for a in fracs))
    nums = [a.numerator * (den // a.denominator) for a in fracs]
    if any(n <= 0 for n in nums):
        raise ValueError("interval lengths must be positive")
    total = sum(nums)
    budget = exact(budget_length)
    if budget * den < total:
        raise ValueError("budget_length must be at least the total length")
    per = tuple(n * j // total + 1 for n in nums)
    count = sum(per)
    with mp.workprec(96):
        piece = mpf(budget.numerator) / budget.denominator / j
    return AverageCoverReport(count, count <= 3 * j, piece, per)


def escape_cover(f_n: IntervalUnion, gate_width) -> Tuple[int, mpf]:
    """(count, piece_length) of the average-length cover of the escape set
    F_N: its j intervals by pieces of length max(gate_width, |F_N|) / j.
    (0, 0) when F_N is empty."""
    # mpf() rounds each exact length to the ambient 53 bits, which the
    # report digests still depend on (ROADMAP item 4).
    lengths = [mpf(from_fixed(hi - lo, f_n.precision_bits)) for lo, hi in f_n]
    with mp.workprec(f_n.precision_bits + 16):
        cover = average_length_cover(lengths, max(gate_width, sum(lengths)))
    return cover.count, cover.piece_length


def hs_sum(count: int, piece_length: mpf, uncertain: IntervalUnion,
           s: float) -> mpf:
    """The H^s covering sum count * piece_length^s, plus every unresolved
    (vertex-uncertain) source interval at its own length, keeping the
    result an honest upper bound for what was resolved."""
    if not (0 < s <= 1):
        raise ValueError("s must lie in (0, 1]")
    bits = uncertain.precision_bits
    with mp.workprec(bits + 16):
        unc = mpf(0)
        for lo, hi in uncertain:
            unc += from_fixed(hi - lo, bits) ** mpf(s)
        return count * piece_length ** mpf(s) + unc
