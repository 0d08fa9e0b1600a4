"""Nested interval hierarchies carrying mass on the circle.

A hierarchy is built from a sparse subsequence of continued-fraction
denominators: level k keeps the intervals of half-width (2|n_k|)^(-mu)/2
centered on lattice orbit points (m*p + k)*omega that are completely
contained in a level-(k-1) interval, and splits each parent's mass
uniformly among its retained children.  All counting and containment is
done in exact fixed-point integer arithmetic, so level counts and masses
are exact even when a level is far too large to enumerate: the children
of parents centered on orbit points are counted by one count per residue
class, shifted per parent by the hits of two windows walked once for all
parents, and enumerated by orbit-hit walks.  Representative drift is
absorbed by per-level guard bands and any interval whose containment is
ambiguous at the guard is discarded, keeping every reported quantity a
certified lower-bound object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from mpmath import mp, mpf

from .circle import (CirclePoint, ContinuedFractionExpansion,
                     continued_fraction, eval_number, three_distance_bounds)
from .errors import CapTooSmall, DepthUnreachable, EmptyLevel
from .fixedpoint import (arc_hits, count_arcs, from_fixed, index_range,
                         power_floor)
from .intervals import IntervalUnion, _dps_for, circle_pairs, fmt, fmt_fixed
from .records import Frozen, same_fields

__all__ = [
    "CantorHierarchy",
    "HierarchyLevel",
    "LevelInterval",
    "build_hierarchy",
    "local_dimension_report",
    "select_sequence",
    "separation_report",
]

DEFAULT_SCAN_CAP = 1 << 21          # max lattice points enumerated per level
DEFAULT_MATERIALIZE_CAP = 1 << 19   # max intervals stored per level
_GUARD_FLOOR = 1 << 8


def _schedule_sign(k: int, m: int) -> int:
    """+1 on the first m steps of each 2m-cycle (1-based k), -1 after."""
    return 1 if ((k - 1) % (2 * m)) <= m - 1 else -1


class LevelInterval(Frozen):
    """One stored interval: center frac(j * omega) in fixed point, and its
    parent's index; the level holds its width and ``child_mass[parent]``."""

    __slots__ = ("j", "center_fp", "parent")

    __eq__ = same_fields


class HierarchyLevel(Frozen):
    """Level k of a hierarchy.

    Every level stores its exact per-parent child counts and the mass
    each child of that parent carries, aligned with the previous level's
    interval tuple (level 1's one parent is the whole circle).  A stored
    level also keeps its intervals sorted by center; a counted level (too
    large to scan or to store) has ``intervals`` None.  ``ambiguous``
    counts candidate children discarded because their containment could
    not be certified at the guard band.
    """

    __slots__ = ("k", "n_k", "half_fp", "intervals", "child_counts",
                 "child_mass", "ambiguous")

    __eq__ = same_fields

    @property
    def materialized(self) -> bool:
        return self.intervals is not None

    @property
    def count(self) -> int:
        return sum(self.child_counts)

    def max_mass(self) -> Fraction:
        return max(self.child_mass)

    def mass_total(self) -> Fraction:
        return sum((c * w for c, w in zip(self.child_counts, self.child_mass)),
                   Fraction(0))


class CantorHierarchy(Frozen):
    """A nested mass-carrying interval hierarchy over a circle rotation,
    with the validated continued fraction of omega it was built from."""

    __slots__ = ("cf", "mu", "m", "levels")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def sequence(self) -> Tuple[int, ...]:
        return tuple(lev.n_k for lev in self.levels)

    @property
    def residue_schedule(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((lev.k % self.m, _schedule_sign(lev.k, self.m))
                     for lev in self.levels)

    @property
    def precision_bits(self) -> int:
        return self.cf.omega.precision_bits

    def level(self, k: int) -> HierarchyLevel:
        if not (1 <= k <= self.depth):
            raise ValueError(f"level {k} outside 1..{self.depth}")
        return self.levels[k - 1]

    def level_union(self, k: int) -> IntervalUnion:
        """The level's intervals as an interval union on [0, 1), wrapped
        intervals split at 0.  Materialized levels only."""
        lev = self.level(k)
        if lev.intervals is None:
            raise ValueError(f"level {k} is counted, not materialized")
        bits = self.precision_bits
        pairs = []
        for iv in lev.intervals:
            pairs.extend(circle_pairs(iv.center_fp, lev.half_fp, bits))
        return IntervalUnion.make(pairs, bits)

    def nominal_length(self, k: int) -> mpf:
        """The exact common length (2|n_k|)^(-mu) of level-k intervals."""
        lev = self.level(k)
        with mp.workprec(self.precision_bits + 16):
            return mp.power(2 * abs(lev.n_k), -self.mu)

    def to_json_obj(self) -> dict:
        bits = self.precision_bits
        digits = _dps_for(bits)
        levels = []
        for i, lev in enumerate(self.levels):
            entry = {
                "k": lev.k,
                "n_k": lev.n_k,
                "count": lev.count,
                "length": fmt(self.nominal_length(lev.k), digits),
                "ambiguous_discarded": lev.ambiguous,
            }
            if lev.intervals is not None:
                h = fmt_fixed(lev.half_fp, bits, digits)
                entry["intervals"] = [
                    {"center": fmt_fixed(iv.center_fp, bits, digits),
                     "half_width": h,
                     "mass": str(lev.child_mass[iv.parent])}
                    for iv in lev.intervals]
            else:
                # level 1's one parent is the whole circle, which has no center
                parents = self.levels[i - 1].intervals if i else (None,)
                entry["per_parent"] = [
                    {"parent_center": None if p is None
                     else fmt_fixed(p.center_fp, bits, digits),
                     "child_count": c,
                     "child_mass": str(w)}
                    for p, c, w in zip(parents, lev.child_counts, lev.child_mass)]
            levels.append(entry)
        return {
            "omega": fmt(self.cf.omega.value, digits),
            "mu": fmt(self.mu, digits),
            "m": self.m,
            "precision_bits": bits,
            "sequence": list(self.sequence),
            "residue_schedule": [[r, s] for r, s in self.residue_schedule],
            "levels": levels,
        }


class _Builder:
    """Shared construction core: exact lattice counting, guard bands,
    level extension (materialized or counted)."""

    def __init__(self, cf: ContinuedFractionExpansion, mu, m: int,
                 scan_cap: int, materialize_cap: int):
        bits = cf.omega.precision_bits
        self.cf = cf
        self.bits = bits
        self.scale = 1 << bits
        self.w = cf.w
        with mp.workprec(bits + 16):
            self.mu = eval_number(mu, bits)
            if not self.mu > 1:
                raise ValueError("mu must exceed 1")
        if m < 1:
            raise ValueError("m must be a positive integer")
        self.m = m
        if scan_cap < 1 or materialize_cap < 1:
            raise ValueError("caps must be positive")
        self.scan_cap = scan_cap
        self.materialize_cap = materialize_cap
        self.levels: List[HierarchyLevel] = []

    # -- per-candidate geometry --------------------------------------

    def half_fp(self, n_abs: int) -> int:
        """floor(scale * (2n)^(-mu) / 2): fixed-point interval half-width."""
        return power_floor(2 * n_abs, self.mu, self.bits) // 2

    def guard(self, n_abs: int) -> int:
        """Representative drift bound: |j| ulps for lattice indices up to
        2|n_k|, the parent center's own drift, and floor slack."""
        prev = abs(self.levels[-1].n_k) if self.levels else 0
        return max(_GUARD_FLOOR, 2 * (n_abs + prev) + 4)

    def _lattice(self, n_signed: int, k: int) -> Tuple[int, int, int]:
        """The residue of level k and the range of p whose lattice index
        m*p + res lies in sgn(n)*[|n|, 2|n|]."""
        res = k % self.m
        p_lo, p_hi = index_range(*sorted((n_signed, 2 * n_signed)), self.m, res)
        return res, p_lo, p_hi

    def _check_resolution(self, k: int, n_abs: int) -> None:
        half = self.half_fp(n_abs)
        if 2 * half < (1 << (self.bits // 2)):
            raise DepthUnreachable(
                f"level-{k} interval length falls below the precision floor "
                f"2^-{self.bits // 2}; increase precision_bits")
        if self.guard(n_abs) << 16 > max(half, 1):
            raise DepthUnreachable(
                f"level-{k} guard band is not negligible against the interval "
                "width at this precision; increase precision_bits")

    def disjoint_ok(self, n_abs: int) -> bool:
        """Certify that distinct lattice centers at this level are farther
        apart than a full interval plus both guard bands."""
        return (self.cf.orbit_gap(n_abs)
                > 2 * (self.half_fp(n_abs) + self.guard(n_abs)))

    def well_holds(self, n_signed: int, k: int) -> bool:
        """Sufficient check of the per-parent density condition
        |I|/2 <= count/|n_k| <= 2|I| (counts resolved conservatively)."""
        q = abs(n_signed)
        res, p_lo, p_hi = self._lattice(n_signed, k)
        if not self.levels:
            return q <= 2 * max(p_hi - p_lo + 1, 0) <= 4 * q
        parent = self.levels[-1]
        if parent.intervals is None:
            raise CapTooSmall(
                "cannot verify the density condition against a counted level")
        half = parent.half_fp
        g = self.guard(q)
        js = [iv.j for iv in parent.intervals]
        loose = count_arcs(self.w, self.scale, self.m, res, p_lo, p_hi, js,
                           half + g)
        if max(loose) * self.scale > 4 * half * q:
            return False
        strict = count_arcs(self.w, self.scale, self.m, res, p_lo, p_hi, js,
                            half - g)
        return min(strict) * self.scale >= (half + 1) * q

    # -- level extension ----------------------------------------------

    def extend(self, n_signed: int, k: int, *, final: bool) -> None:
        """Append level k for n_k = n_signed: exact per-parent child counts
        and masses by count_arcs, then, if the level fits both caps, the
        parent arcs' orbit hits, checked to tally to those counts; else no
        intervals if final, else CapTooSmall.
        Raises EmptyLevel if some parent would keep no certified child; the
        builder is unchanged on any raise."""
        q = abs(n_signed)
        self._check_resolution(k, q)
        half = self.half_fp(q)
        g = self.guard(q)
        res, p_lo, p_hi = self._lattice(n_signed, k)
        n_pts = p_hi - p_lo + 1
        if n_pts <= 0:
            raise EmptyLevel(f"no admissible lattice indices at level {k}")
        parent = self.levels[-1] if self.levels else None
        if parent is not None and parent.intervals is None:
            raise CapTooSmall("cannot extend below a counted level")
        if n_pts > self.scan_cap and not final:
            raise CapTooSmall(
                f"level {k} needs {n_pts} lattice points, above "
                f"scan_cap={self.scan_cap}, and deeper levels require a "
                "materialized parent")

        if parent is None:
            # level 1 has one parent, the whole circle, which keeps every point
            js, masses, allow = [0], [Fraction(1)], self.scale
        else:
            js = [iv.j for iv in parent.intervals]
            masses = [parent.child_mass[iv.parent] for iv in parent.intervals]
            allow = parent.half_fp - half - g
        counts = count_arcs(self.w, self.scale, self.m, res, p_lo, p_hi, js,
                            allow)
        if 0 in counts:
            raise EmptyLevel(f"parent {counts.index(0)} at level {k} keeps "
                             "no certified children")
        total = sum(counts)
        # the loose arcs of distinct parents are disjoint, so each uncertain
        # candidate is tallied once
        ambiguous = sum(count_arcs(self.w, self.scale, self.m, res, p_lo, p_hi,
                                   js, allow + 2 * g)) - total
        intervals = None
        if n_pts <= self.scan_cap and total <= self.materialize_cap:
            centers = [j * self.w % self.scale for j in js]
            intervals = self._scan(res, p_lo, p_hi, centers, allow)
            tally = [0] * len(counts)
            for iv in intervals:
                tally[iv.parent] += 1
            if tally != counts:
                raise AssertionError(f"level {k}: scan disagrees with counts")
        elif not final:
            raise CapTooSmall(
                f"level {k} retains {total} intervals, above "
                f"materialize_cap={self.materialize_cap}, and deeper "
                "levels require a materialized parent")
        self.levels.append(HierarchyLevel(
            k, n_signed, half, intervals, tuple(counts),
            tuple(mass / n for mass, n in zip(masses, counts)), ambiguous))

    def _scan(self, res, p_lo, p_hi, centers, allow):
        """The lattice points within `allow` of a parent center, found by
        walking each parent arc's orbit hits, each with the index of its
        parent.  The parent arcs are disjoint, so no point has two
        parents.  Returned sorted by center."""
        scale, m, w = self.scale, self.m, self.w
        children = []
        for i, c in enumerate(centers):
            for p in arc_hits(w, scale, m, res, p_lo, p_hi, c, allow):
                j = m * p + res
                children.append(LevelInterval(j, j * w % scale, i))
        children.sort(key=lambda iv: iv.center_fp)
        return tuple(children)

    def hierarchy(self) -> CantorHierarchy:
        """The levels built so far, as a hierarchy."""
        return CantorHierarchy(self.cf, self.mu, self.m, tuple(self.levels))


def select_sequence(cf: ContinuedFractionExpansion, mu, m: int, depth: int,
                    growth_margin: float, *,
                    scan_cap: int = DEFAULT_SCAN_CAP,
                    materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
                    ) -> CantorHierarchy:
    """Choose the sparse signed denominator sequence n_1..n_depth and
    return the hierarchy built along it (``.sequence`` is the choice).

    At each step k the sign follows the 2m-periodic schedule (positive on
    the first m steps of each cycle) and the magnitude is the least
    validated convergent denominator above |n_(k-1)| that (a) keeps the
    running product log negligible, log(prod |n_i|) <= margin * log|n_k|,
    (b) has certifiably separated lattice centers, (c) satisfies the
    per-parent density condition |I|/2 <= count/|n_k| <= 2|I| against
    every level-(k-1) interval, and (d) leaves every parent at least one
    certified child.  Candidates failing any condition are skipped;
    exhausting the validated expansion raises DepthUnreachable.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not growth_margin > 0:
        raise ValueError("growth_margin must be positive")
    if cf.validated_depth < 1:
        raise ValueError("continued fraction has no validated convergents")
    builder = _Builder(cf, mu, m, scan_cap, materialize_cap)
    log_product = 0.0
    r_next = 1
    for k in range(1, depth + 1):
        sign = _schedule_sign(k, m)
        last_abs = abs(builder.levels[-1].n_k) if builder.levels else 0
        chosen = None
        for r in range(r_next, cf.validated_depth + 1):
            q = cf.denominator(r)
            if q <= last_abs:
                continue
            if k > 1 and log_product > growth_margin * math.log(q):
                continue
            if not builder.disjoint_ok(q):
                continue
            n_cand = sign * q
            if not builder.well_holds(n_cand, k):
                continue
            try:
                builder.extend(n_cand, k, final=(k == depth))
            except EmptyLevel:
                continue
            chosen = n_cand
            r_next = r + 1
            break
        if chosen is None:
            raise DepthUnreachable(
                f"no validated convergent denominator satisfies the selection "
                f"conditions at step {k} (validated depth "
                f"{cf.validated_depth}, margin {growth_margin})")
        log_product += math.log(abs(chosen))
    return builder.hierarchy()


def build_hierarchy(omega: CirclePoint, mu, m: int,
                    sequence: Sequence[int], *,
                    scan_cap: int = DEFAULT_SCAN_CAP,
                    materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
                    ) -> CantorHierarchy:
    """Materialize the mass-carrying hierarchy for a selected sequence.

    Every level carries exact per-parent child counts and masses, by one
    count per residue class shifted by shared window hits, and stores its
    intervals when it fits both caps; only the deepest level may go without
    them (an intermediate level that does not fit raises CapTooSmall,
    since its children would need the geometry).
    Masses split each parent's mass uniformly among its retained
    children, so they sum to exactly 1 at every level.
    """
    seq = tuple(int(n) for n in sequence)
    if not seq:
        raise ValueError("sequence must be nonempty")
    if m < 1:
        raise ValueError("m must be a positive integer")
    for k, n in enumerate(seq, 1):
        if n == 0:
            raise ValueError("sequence entries must be nonzero")
        if (1 if n > 0 else -1) != _schedule_sign(k, m):
            raise ValueError(
                f"sign of n_{k} does not follow the 2m-periodic schedule")
        if k > 1 and abs(n) <= abs(seq[k - 2]):
            raise ValueError("|n_k| must be strictly increasing")
    cf = continued_fraction(omega, max_depth=2048)
    denominators = {q for _, q in cf.convergents}
    for n in seq:
        if abs(n) not in denominators:
            raise ValueError(
                f"|n_k| = {abs(n)} is not a validated convergent denominator")
    builder = _Builder(cf, mu, m, scan_cap, materialize_cap)
    for k, n in enumerate(seq, 1):
        if not builder.disjoint_ok(abs(n)):
            raise ValueError(
                f"lattice centers at level {k} are not certifiably separated "
                "by a full interval width")
        builder.extend(n, k, final=(k == len(seq)))
    return builder.hierarchy()


def local_dimension_report(h: CantorHierarchy) -> List[Tuple[int, mpf]]:
    """Per-level minimum of log(mass)/log(length) over the level's
    intervals; the deepest entry is a dimension estimate, not a certified
    lower bound (ROADMAP item 5: depth 3 reads 0.328 against a 0.4 floor).

    All intervals at one level share the exact length (2|n_k|)^(-mu), so
    the minimum ratio is attained by the heaviest interval.
    """
    if h.depth < 2:
        raise ValueError("hierarchy must have at least 2 levels")
    out: List[Tuple[int, mpf]] = []
    with mp.workprec(h.precision_bits + 16):
        for lev in h.levels:
            log_len = -h.mu * mp.log(2 * abs(lev.n_k))
            heaviest = lev.max_mass()
            log_mass = mp.log(mpf(heaviest.numerator)) - \
                mp.log(mpf(heaviest.denominator))
            out.append((lev.k, log_mass / log_len))
    return out


def separation_report(h: CantorHierarchy) -> List[dict]:
    """Per-level center separation: the exact minimum orbit gap over the
    level's index range, the measured minimum between retained centers
    (materialized levels), and both the (n+2)-reciprocal comparison bound
    and the companion bound 1/(q_next + |n_k|) that the gap provably
    dominates, from three_distance_bounds."""
    bits = h.precision_bits
    denoms = [q for _, q in h.cf.convergents]
    out = []
    for lev in h.levels:
        gap, claimed, claimed_ok, companion, companion_ok = \
            three_distance_bounds(h.cf, denoms.index(abs(lev.n_k)) + 1)
        measured = None
        if lev.intervals is not None and lev.count >= 2:
            centers = [iv.center_fp for iv in lev.intervals]
            best = min(b - a for a, b in zip(centers, centers[1:]))
            wrap = (1 << bits) - centers[-1] + centers[0]
            measured = from_fixed(min(best, wrap), bits)
        out.append({
            "level": lev.k,
            "n_k": lev.n_k,
            "orbit_min_distance": gap,
            "measured_min_distance": measured,
            "claimed_bound": claimed,
            "claimed_ok": claimed_ok,
            "companion_bound": companion,
            "companion_ok": companion_ok,
        })
    return out
