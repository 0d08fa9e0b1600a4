"""Directional billiards in two-direction polygons.

Everything here concerns polygons whose sides are parallel either to the
x-axis (BASE sides) or to a fixed slanted direction at angle ``alpha``
(SLANT sides).  For a fixed ray direction the rays crossing the polygon
form a cross-section parameterized by arc length on the perpendicular
axis (increasing arc length points along direction + pi/2); a pair of
consecutive reflections maps beams of parallel rays isometrically between
cross-sections whose directions differ by 0 or +-2*alpha, which gives each
beam a signed integer level relative to its base direction.

Beam positions are carried as fixed-point integers at the polygon's
precision, so every traced child interval is an exact isometric image of
its source interval.  Vertex shadows and reflection offsets are computed
once per direction, in a cached frame, and each (direction, source side)
cuts its cached transit table from that frame.  The vertices, cos and sin
alpha and the direction's cos and sin lie on exact dyadic grids, so each
frame integer is the exact floor of an integer product.  The direction's
cos and sin are those of mpf_cos_sin, which a fixed-point rotation
(``fixedpoint.Rotation``) reads off bit for bit wherever it can decide
them; each launch table's section width ``width_exact`` is a span of mpf
vertex projections at P + 64 bits that no step reads.  Reflecting
in a side's line, of unit direction u and height h = v.rot90(u) for its
vertices v, sends the offset c of a ray of direction d to delta - c with
delta = 2*(d.u)*h, wherever the ray hits; so delta = 0 exactly on a side
through the origin.  A guard zone of width 2^-(precision_bits//2) around
every genuine vertex shadow is excluded from tracing and reported
separately, keeping all reported lengths conservative.

Target sides come from p = v.n and a = v.d, the grid projections of the
vertices across and along the ray direction d: the line at offset c
crosses side s iff c lies strictly between its vertices' p, at
a_a + (c - p_a)(a_b - a_a)/(p_b - p_a) along the ray, and a cell's target
is the crossing after its source side (for a launch, the second one).

Beams step from section to section: a pair table per (level, source side)
composes two transit tables, so one lookup carries a beam through both
reflections of a pair as a translation.  Its cells are the first table's
cells refined by the preimages of the second table's cells; a piece that
falls into a guard of the first reflection or of the second stops there
as a vertex sliver.  A degenerate middle direction raises only for a beam
that reaches it, as it would one reflection at a time.  Almost every pair
step leaves a piece whole inside one cell; such a piece is translated in
place, and only a piece that splits or meets a guard is cut into pieces.
Each plain cell holds records of the steps a piece there may take in
place, starting with the cell's own single step.  Narrow pieces run
chains of single-cell steps for thousands of steps, through the same
cells again and again as in an interval exchange.  So a chain also stores
the compositions of its steps at their first cells, doubling in length as
a binary counter does, and a piece at a plain cell takes the newest record
stored there that holds it and stays within its budget.

Polygon construction and transit tables handle the general multi-chord
case: a launch table counts the chords each stabbing line crosses.  The
dynamic operations (level partitions, escape sets, perpendicular orbits)
require a single chord for the directions involved.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from enum import Enum
from math import prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import mpf_add, mpf_cos_sin, mpf_mod, mpf_mul_int, mpf_neg

from .circle import CirclePoint, detect_rational_angle, eval_number
from .errors import (DegenerateDirection, NotGeneralizedParallelogram,
                     RationalAngle)
from .fixedpoint import Rotation, on_grid
from .intervals import DEFAULT_PRECISION, IntervalUnion, fmt
from .records import Frozen, same_fields

_LAUNCH = -1  # pseudo source-side index: beam resting on a cross-section

# Internal beam-state tuples: (side, lo, hi, n, disp, refl) with lo/hi/disp
# fixed-point ints.  Each reflection flips the orientation, so with
# s = (-1)**refl the beam travels in direction s*theta + 2*n*alpha and
# c_now = s*c_source + disp.  Traced states rest on a section (even refl);
# so do finished beams and slivers cut by a first-reflection guard, while a
# sliver cut by a second-reflection guard stops between the two reflections
# of its pair, with odd refl and the metadata of the middle reflection.
# The list holding a state gives its status.


class SideClass(Enum):
    """Which of the two admissible directions a polygon side is parallel to."""

    BASE = "base"    # parallel to the x-axis
    SLANT = "slant"  # parallel to (cos alpha, sin alpha)


class GeneralizedParallelogram(Frozen):
    """Simple polygon whose sides are parallel to the x-axis or to alpha.

    ``vertices`` are stored counterclockwise; ``side_classes[i]`` tags the
    side from ``vertices[i]`` to ``vertices[i+1]``.  ``alpha_rational`` is
    ``alpha/pi`` as an exact fraction when that ratio is rational at the
    working precision, else None.
    """

    __slots__ = ("vertices", "alpha", "side_classes", "alpha_rational",
                 "precision_bits")

    def side(self, i: int) -> Tuple[Tuple[mpf, mpf], Tuple[mpf, mpf]]:
        return self.vertices[i], self.vertices[(i + 1) % len(self.vertices)]

    @property
    def return_modulus(self) -> Optional[int]:
        """Smallest q > 0 with 2*q*alpha a multiple of 2*pi, None if irrational.

        A beam's direction repeats its base direction exactly when its
        level is a multiple of this modulus.
        """
        if self.alpha_rational is None:
            return None
        return self.alpha_rational.denominator


# --------------------------------------------------------------------------
# Polygon construction and validation
# --------------------------------------------------------------------------


def _classify_sides(verts, alpha, bits):
    """Tag each side BASE or SLANT; raise if any side fits neither."""
    m = len(verts)
    tol = mpf(2) ** (-(bits // 2))
    cos_a, sin_a = mp.cos(alpha), mp.sin(alpha)
    classes = []
    for i in range(m):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % m]
        dx, dy = bx - ax, by - ay
        length = mp.hypot(dx, dy)
        if length <= tol:
            raise NotGeneralizedParallelogram(
                f"side {i} has zero length at working precision")
        if abs(dy) <= tol * length:
            classes.append(SideClass.BASE)
        elif abs(dx * sin_a - dy * cos_a) <= tol * length:
            classes.append(SideClass.SLANT)
        else:
            raise NotGeneralizedParallelogram(
                f"side {i} is parallel neither to the x-axis nor to "
                f"direction alpha={fmt(alpha, 12)}")
    return tuple(classes)


def _signed_area(verts) -> mpf:
    total = mpf(0)
    m = len(verts)
    for i in range(m):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % m]
        total += ax * by - bx * ay
    return total / 2


def _is_simple(verts, bits) -> bool:
    """Reject self-intersecting vertex cycles (shared endpoints of
    adjacent sides excluded)."""
    m = len(verts)
    scale = max(max(abs(x), abs(y)) for x, y in verts) + 1
    ztol = mpf(2) ** (-(bits // 2)) * scale * scale

    def cross(ox, oy, ax, ay, bx, by):
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    for i in range(m):
        p1, p2 = verts[i], verts[(i + 1) % m]
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue  # adjacent (or identical) sides share a vertex
            p3, p4 = verts[j], verts[(j + 1) % m]
            d1 = cross(p3[0], p3[1], p4[0], p4[1], p1[0], p1[1])
            d2 = cross(p3[0], p3[1], p4[0], p4[1], p2[0], p2[1])
            d3 = cross(p1[0], p1[1], p2[0], p2[1], p3[0], p3[1])
            d4 = cross(p1[0], p1[1], p2[0], p2[1], p4[0], p4[1])
            if ((d1 > ztol and d2 < -ztol) or (d1 < -ztol and d2 > ztol)) and \
               ((d3 > ztol and d4 < -ztol) or (d3 < -ztol and d4 > ztol)):
                return False
            if (abs(d1) <= ztol and abs(d2) <= ztol
                    and abs(d3) <= ztol and abs(d4) <= ztol):
                # collinear sides: reject if their spans overlap
                lo1 = min(p1[0], p2[0]), min(p1[1], p2[1])
                hi1 = max(p1[0], p2[0]), max(p1[1], p2[1])
                lo2 = min(p3[0], p4[0]), min(p3[1], p4[1])
                hi2 = max(p3[0], p4[0]), max(p3[1], p4[1])
                if (lo1[0] <= hi2[0] and lo2[0] <= hi1[0]
                        and lo1[1] <= hi2[1] and lo2[1] <= hi1[1]):
                    return False
    return True


def _finish_polygon(verts, alpha, bits) -> GeneralizedParallelogram:
    with mp.workprec(bits + 64):
        if not (0 < alpha < mp.pi / 2):
            raise ValueError("alpha must lie strictly inside (0, pi/2)")
        if len(verts) < 3:
            raise NotGeneralizedParallelogram("need at least 3 vertices")
        area = _signed_area(verts)
        if abs(area) <= mpf(2) ** (-(bits // 2)):
            raise NotGeneralizedParallelogram(
                "polygon is degenerate (vanishing area)")
        if area < 0:
            verts = tuple(reversed(verts))
        classes = _classify_sides(verts, alpha, bits)
        if not _is_simple(verts, bits):
            raise NotGeneralizedParallelogram("polygon is self-intersecting")
        ratio = alpha / mp.pi
    rational = detect_rational_angle(CirclePoint(ratio, bits))
    if rational is not None:
        warnings.warn(RationalAngle(
            f"alpha = {rational} * pi is a rational angle; the direction "
            f"group is finite and every beam eventually repeats"))
    return GeneralizedParallelogram(tuple(verts), alpha, classes, rational,
                                    bits)


def rhombus(alpha, side=1, precision_bits: int = DEFAULT_PRECISION,
            ) -> GeneralizedParallelogram:
    """Rhombus with angle alpha at the origin and the given side length."""
    return parallelogram(alpha, side, side, precision_bits)


def parallelogram(alpha, base, side, precision_bits: int = DEFAULT_PRECISION,
                  ) -> GeneralizedParallelogram:
    """Parallelogram with a horizontal base and slanted sides at alpha."""
    bits = precision_bits
    with mp.workprec(bits + 64):
        a = eval_number(alpha, bits + 48)
        b = eval_number(base, bits + 48)
        s = eval_number(side, bits + 48)
        if b <= 0 or s <= 0:
            raise ValueError("base and side lengths must be positive")
        zero = mpf(0)
        c, sn = s * mp.cos(a), s * mp.sin(a)
        verts = ((zero, zero), (b, zero), (b + c, sn), (c, sn))
    return _finish_polygon(verts, a, bits)


def polygon_from_vertices(vertices: Sequence[Sequence], alpha=None,
                          precision_bits: int = DEFAULT_PRECISION,
                          ) -> GeneralizedParallelogram:
    """Validate an explicit vertex list; infer alpha from the slanted
    sides when not given."""
    bits = precision_bits
    with mp.workprec(bits + 64):
        verts = tuple((eval_number(x, bits + 48), eval_number(y, bits + 48))
                      for x, y in vertices)
        if alpha is not None:
            a = eval_number(alpha, bits + 48)
        else:
            a = None
            tol = mpf(2) ** (-(bits // 2))
            for i in range(len(verts)):
                ax, ay = verts[i]
                bx, by = verts[(i + 1) % len(verts)]
                dx, dy = bx - ax, by - ay
                length = mp.hypot(dx, dy)
                if length > tol and abs(dy) > tol * length:
                    a = mp.atan2(dy, dx) % mp.pi
                    break
            if a is None:
                raise NotGeneralizedParallelogram(
                    "all sides are horizontal; cannot infer alpha")
            if not (0 < a < mp.pi / 2):
                raise NotGeneralizedParallelogram(
                    "slanted sides must have inclination in (0, pi/2)")
    return _finish_polygon(verts, a, bits)


def build_polygon(spec, precision_bits: int = DEFAULT_PRECISION,
                  ) -> GeneralizedParallelogram:
    """Construct a polygon from a configuration spec: a mapping whose
    ``kind`` is ``rhombus`` (alpha, side) or ``parallelogram`` (alpha,
    base, side).  Numeric fields may be strings ("pi/3", "0.7") for exact
    parsing.
    """
    if not isinstance(spec, dict):
        raise ValueError("polygon spec must be a mapping")
    kind = spec.get("kind")
    if kind == "rhombus":
        return rhombus(spec["alpha"], spec.get("side", 1), precision_bits)
    if kind == "parallelogram":
        return parallelogram(spec["alpha"], spec["base"], spec["side"], precision_bits)
    raise ValueError(f"unknown polygon kind {kind!r}")


# --------------------------------------------------------------------------
# Transit tables and the tracing engine
# --------------------------------------------------------------------------


class _Table:
    """Carved transit cells for one (direction, source side) pair, cut from
    the direction's frame (``_Tracer._frame``), which all the direction's
    tables share.

    ``los``/``his`` bound the guard-carved cells; per cell ``targets`` is
    the side hit next, ``deltas`` the fixed-point reflection offset
    2*(d.u)*h of the target's line (c -> delta - c), ``classes`` the
    target's side class as an int (0 BASE, 1 SLANT).  Launch tables
    also keep the uncarved (lo, hi, chords) cells in ``raw_cells``, their
    largest chord count in ``max_chords`` (which the dynamic operations
    check) and the section width in ``width_exact``, the span of the mpf
    vertex projections at P + 64 bits; no runner reads the other two, but
    the table digests in ``tests/golden.json`` pin all three.
    Ordered by a_a + (c - p_a)(a_b - a_a)/(p_b - p_a), compared as exact
    integers, the sides whose span of p = v.n holds a cell's midpoint c
    are its line's crossings.
    """

    __slots__ = ("dom_lo", "dom_hi", "los", "his", "targets", "deltas",
                 "classes", "raw_cells", "max_chords", "width_exact")

    def __init__(self):
        self.los: List[int] = []
        self.his: List[int] = []
        self.targets: List[int] = []
        self.deltas: List[int] = []
        self.classes: List[int] = []
        self.raw_cells: List[Tuple[int, int, int]] = []
        self.max_chords = 1
        self.width_exact: Optional[mpf] = None


_TABLE_CACHE_LIMIT = 60000
# imin > imax: a single step has no intermediate level
_INF, _NEG_INF = float("inf"), float("-inf")


def _split(los, his, lo, hi):
    """Tile [lo, hi] by sorted, disjoint cells [los[i], his[i]]: the list of
    pieces (i, a, b) in order, with i = -1 for a piece between cells.

    The one interval walk behind the single reflection
    (``_Tracer._advance``) and the pair steps of
    ``_Tracer.trace_states`` that do not stay in one plain cell.
    """
    pieces = []
    i = bisect_right(los, lo) - 1
    if i < 0:
        i = 0
    elif his[i] <= lo:
        i += 1
    pos = lo
    while i < len(los) and pos < hi:
        a = los[i]
        if a >= hi:
            break
        if a > pos:
            pieces.append((-1, pos, a))
        else:
            a = pos
        b = his[i]
        if b > hi:
            b = hi
        pieces.append((i, a, b))
        pos = b
        i += 1
    if pos < hi:
        pieces.append((-1, pos, hi))
    return pieces


class _Tracer:
    """Beam-transit engine for one polygon and one base direction."""

    def __init__(self, q: GeneralizedParallelogram, theta):
        self.q = q
        self.P = q.precision_bits
        self.guard = 1 << (self.P // 2)  # ints; c-width 2^-(P//2)
        with mp.workprec(self.P + 64):
            self.theta = eval_number(theta, self.P + 48) % (2 * mp.pi)
            self.two_pi = 2 * mp.pi
        self.alpha = q.alpha
        self.b_mod = q.return_modulus
        self.classes_int = tuple(0 if c is SideClass.BASE else 1
                                 for c in q.side_classes)
        # Exact grids: cos and sin of alpha (A/2^ea), the vertices (V/2^ev)
        # and the height h of each side's line, taken at the side's lower
        # vertex, on the grid 2^-(ev + ea).
        with mp.workprec(self.P + 64):
            self.ea, (ca, sa) = on_grid((mp.cos(self.alpha),
                                         mp.sin(self.alpha)))
        self.ev, flat = on_grid([c for v in q.vertices for c in v])
        self.verts = verts = list(zip(flat[::2], flat[1::2]))
        self.cos_sin = ca, sa
        self.heights = []
        for i, cls in enumerate(self.classes_int):
            vx, vy = min(verts[i], verts[(i + 1) % len(verts)],
                         key=lambda v: v[1])
            self.heights.append(vy * ca - vx * sa if cls else vy << self.ea)
        # transit tables under (odd, n, side), pair tables under (n, side);
        # the frames of their directions under (odd, n)
        self.tables: Dict[tuple, object] = {}
        self.frames: Dict[Tuple[int, int], tuple] = {}
        self.rotation = Rotation(self.theta._mpf_, self.alpha._mpf_,
                                 self.two_pi._mpf_, self.P + 64)
        # work done: frames, transit and pair tables built, cache
        # evictions, and trace_states' steps (no report shows it)
        self.counts = dict.fromkeys(("frames", "transit", "pairs", "evictions",
                                     "plain", "jumps", "jumped", "records"), 0)

    # -- directions ---------------------------------------------------

    def _phi(self, odd: int, n: int) -> tuple:
        """Direction after a reflection count of parity ``odd``, as an mpf
        tuple: (+-theta + 2*n*alpha) % two_pi, by the libmp calls that the
        mpf operators make at P + 64 bits."""
        prec, theta = self.P + 64, self.theta._mpf_
        if odd:
            theta = mpf_neg(theta, prec, "n")
        turn = mpf_mul_int(self.alpha._mpf_, 2 * n, prec, "n")
        return mpf_mod(mpf_add(theta, turn, prec, "n"), self.two_pi._mpf_,
                       prec, "n")

    def _table(self, odd: int, n: int, side: int) -> _Table:
        if self.b_mod is not None:
            n %= self.b_mod
        tbl = self.tables.get((odd, n, side))
        if tbl is None:
            tbl = self._store((odd, n, side), self._build_table(odd, n, side))
            self.counts["transit"] += 1
        return tbl

    def _store(self, key, table):
        """Cache a transit or pair table; both kinds share one bound, and
        the eviction drops the frames and the rotation's bases too."""
        if len(self.tables) > _TABLE_CACHE_LIMIT:
            self.tables.clear()
            self.frames.clear()
            self.rotation.bases.clear()
            self.counts["evictions"] += 1
        self.tables[key] = table
        return table

    def _frame(self, odd: int, n: int):
        """(phi, proj_i, spans, (dx, dy), deltas) of the direction after a
        reflection count of parity ``odd`` at level ``n``, computed once
        for all of its transit tables: the direction phi, the fixed-point
        projections p = v.n of the vertices, each side's (p_a, p_b, a_a,
        a_b) with a = v.d, the direction's cos and sin as mpfs, and each
        side's reflection offset delta.  A degenerate direction is not
        kept, so it raises again on every build.

        phi is rounded at P + 64 bits by _phi, and its cos and sin are
        mpf_cos_sin(phi, P + 64, "n"): the tracer's ``rotation`` reads
        them off a fixed-point rotation where that decides them, and calls
        mpf_cos_sin where it does not.  The tracer's other mpf work is a
        launch table's ``width_exact``, which _build_table takes in mpf at
        P + 64 bits.  The cos and sin, the vertices, cos and sin alpha and
        the side heights all lie on exact dyadic grids, so each integer
        here is the exact floor of an exact product of those inputs, taken
        by an arithmetic shift; it can differ from the floor of the product
        rounded at P + 64 bits only when the product lies within about
        2^-64 ulp of a grid point."""
        frame = self.frames.get((odd, n))
        if frame is not None:
            return frame
        P = self.P
        phi = self._phi(odd, n)
        dxy = [mp.make_mpf(v) for v in (
            self.rotation.cos_sin(phi, -1 if odd else 1, n)
            or mpf_cos_sin(phi, P + 64, "n"))]
        phi = mp.make_mpf(phi)
        ed, (dx, dy) = on_grid(dxy, P + 1)
        ca, sa = self.cos_sin
        # d.u along each side class, on the grid 2^-(ed + ea)
        ea = self.ea
        along = (dx << ea, dx * ca + dy * sa)
        # |dy| and |d x u| below 2^-(P//2), on their grids
        if ((abs(dy) << P // 2) < (1 << ed)
                or (abs(dy * ca - dx * sa) << P // 2) < (1 << ed + ea)):
            raise DegenerateDirection(
                f"direction {fmt(phi, 12)} (level offset {n}) is "
                f"parallel to a side class within the precision guard")
        shift = self.ev + ed - P
        proj_i = [(vy * dx - vx * dy) >> shift for vx, vy in self.verts]
        along_i = [(vx * dx + vy * dy) >> shift for vx, vy in self.verts]
        spans = list(zip(proj_i, proj_i[1:] + proj_i[:1],
                         along_i, along_i[1:] + along_i[:1]))
        # delta = 2*along*h on the grid 2^-(ed + 2*ea + ev)
        shift = ed + 2 * ea + self.ev - P - 1
        deltas = [(along[cls] * h) >> shift
                  for cls, h in zip(self.classes_int, self.heights)]
        frame = self.frames[odd, n] = (phi, proj_i, spans, dxy, deltas)
        self.counts["frames"] += 1
        return frame

    def _build_table(self, odd: int, n: int, side: int) -> _Table:
        phi, proj_i, spans, dxy, deltas = self._frame(odd, n)
        m = len(proj_i)
        if side == _LAUNCH:
            dom_lo, dom_hi = min(proj_i), max(proj_i)
        else:
            a_i, b_i = proj_i[side], proj_i[(side + 1) % m]
            dom_lo, dom_hi = (a_i, b_i) if a_i <= b_i else (b_i, a_i)
            if dom_lo >= dom_hi:
                raise DegenerateDirection(
                    f"side {side} collapses in the direction "
                    f"{fmt(phi, 12)} perpendicular frame")

        def outcome(lo_i, hi_i):
            # No vertex projects inside a cell, so each side crossed at
            # its midpoint c is a sign change of p - c around the
            # vertex cycle: their number is even, and at least two.
            # Each is ordered by its a_a + (c - p_a)(a_b - a_a)/(p_b - p_a)
            # times 2*S, S the product of the crossings' |p_b - p_a|.
            c2 = lo_i + hi_i  # 2c
            cross = [(s2, pa, pb, aa, ab)
                     for s2, (pa, pb, aa, ab) in enumerate(spans)
                     if (2 * pa < c2) != (2 * pb < c2)]
            S = prod(abs(pb - pa) for _, pa, pb, _, _ in cross)
            order = [s2 for _, s2 in sorted(
                (2 * aa * S + (c2 - 2 * pa) * (ab - aa) * (S // (pb - pa)), s2)
                for s2, pa, pb, aa, ab in cross)]
            if side == _LAUNCH:
                return order[1], len(order) // 2
            k = order.index(side) + 1
            if k == len(order):
                raise DegenerateDirection(
                    "ray from the boundary found no forward intersection; "
                    "direction is parallel to a side within precision")
            return order[k], 1

        breaks = sorted({p for p in proj_i if dom_lo < p < dom_hi})
        edges = [dom_lo] + breaks + [dom_hi]
        raw = []
        for lo_i, hi_i in zip(edges, edges[1:]):
            if hi_i <= lo_i:
                continue
            raw.append((lo_i, hi_i) + outcome(lo_i, hi_i))

        tbl = _Table()
        tbl.dom_lo, tbl.dom_hi = dom_lo, dom_hi
        if side == _LAUNCH:
            tbl.raw_cells = [(lo, hi, ch) for lo, hi, _, ch in raw]
            tbl.max_chords = max((ch for _, _, _, ch in raw), default=1)
            with mp.workprec(self.P + 64):
                nx, ny = -dxy[1], dxy[0]
                proj = [vx * nx + vy * ny for vx, vy in self.q.vertices]
                tbl.width_exact = max(proj) - min(proj)

        # Coalesce cells sharing a target: the transit map is
        # continuous across a vertex shadow that does not change the
        # side being hit, so only target changes are real singularities.
        runs: List[List] = []  # [lo, hi, target]
        for lo_i, hi_i, target, _ in raw:
            if runs and runs[-1][2] == target:
                runs[-1][1] = hi_i
            else:
                runs.append([lo_i, hi_i, target])

        G = self.guard
        for idx, (lo_i, hi_i, target) in enumerate(runs):
            lo_c = lo_i if idx == 0 else lo_i + G
            hi_c = hi_i if idx == len(runs) - 1 else hi_i - G
            if hi_c <= lo_c:
                continue  # cell fully consumed by vertex guards
            tbl.los.append(lo_c)
            tbl.his.append(hi_c)
            tbl.targets.append(target)
            tbl.deltas.append(deltas[target])
            tbl.classes.append(self.classes_int[target])
        return tbl

    # -- beam stepping -------------------------------------------------

    def _advance(self, st):
        """One reflection: split a beam over the transit cells of its
        current (direction, source side) table.

        Returns (children, slivers); slivers are the pieces of the parent
        that fell into vertex guards (or drifted off-domain) and stop here,
        as states carrying the parent's metadata.  Children + slivers
        partition the parent exactly.
        """
        side, lo, hi, n, disp, refl = st
        tbl = self._table(refl & 1, n, side)
        children = []
        slivers = []
        for i, a, b in _split(tbl.los, tbl.his, lo, hi):
            if i < 0:
                slivers.append((side, a, b, n, disp, refl))
            else:
                delta = tbl.deltas[i]
                n2 = -n if tbl.classes[i] == 0 else 1 - n
                children.append((tbl.targets[i], delta - b, delta - a, n2,
                                 delta - disp, refl + 1))
        return children, slivers

    def _build_pair(self, n: int, side: int):
        """Pair table for section states at level ``n`` (reduced modulo
        b_mod) resting on ``side``: (los, his, cells, records), the cells
        sorted and disjoint.

        Built by two single reflections of the whole domain state.  A
        cell (t, d, k, False) maps its piece [a, b] of the section to the
        section state (t, a+d, b+d, n+k, disp+d, refl+2); a cell
        (t, d, k, True) is a second-reflection guard, whose piece stops as
        the sliver (t, d-b, d-a, k-n, d-disp, refl+1).  A cell
        (t, d, k, exc) covers a whole first-reflection cell whose middle
        transit table raised DegenerateDirection ``exc``; a piece that
        reaches it raises, as stepping one reflection at a time would,
        and pieces that do not reach it step on.  The cells tile each
        first-reflection cell, so the gaps between them are the
        first-reflection guards.  ``records[i]`` lists the steps a piece
        in cell i may take in place, newest first (``trace_states``): a
        plain cell starts with its own single step (lo, hi, 1, d, k, +inf,
        -inf, t) and learns macro-steps in front of it, while guard and
        degenerate cells hold none.
        """
        tbl = self._table(0, n, side)
        pieces = []
        for mid in self._advance((side, tbl.dom_lo, tbl.dom_hi, n, 0, 0))[0]:
            t1, lo1, hi1, n1, d1, _ = mid
            c1 = n1 + n  # the middle level is c1 - n, c1 the class of t1
            try:
                children, slivers = self._advance(mid)
            except DegenerateDirection as exc:
                pieces.append((d1 - hi1, d1 - lo1, (t1, d1, c1, exc)))
                continue
            for t2, lo, hi, n2, d, _ in children:
                pieces.append((lo - d, hi - d, (t2, d, n2 - n, False)))
            for _, lo, hi, _, _, _ in slivers:
                pieces.append((d1 - hi, d1 - lo, (t1, d1, c1, True)))
        pieces.sort(key=lambda p: p[0])
        return ([p[0] for p in pieces], [p[1] for p in pieces],
                [p[2] for p in pieces],
                [[] if mid else [(lo, hi, 1, d, k, _INF, _NEG_INF, t)]
                 for lo, hi, (t, d, k, mid) in pieces])

    def _pair(self, n: int, side: int):
        """The cached pair table of level ``n`` and side ``side``."""
        key = (n if self.b_mod is None else n % self.b_mod, side)
        pair = self.tables.get(key)
        if pair is None:
            pair = self._store(key, self._build_pair(*key))
            self.counts["pairs"] += 1
        return pair

    def launch_span(self) -> Tuple[int, int]:
        tbl = self._table(0, 0, _LAUNCH)
        return tbl.dom_lo, tbl.dom_hi

    def require_single_chord(self, level: int = 0):
        tbl = self._table(0, level, _LAUNCH)
        if tbl.max_chords > 1:
            raise ValueError(
                "dynamic operations need every stabbing line to cross the "
                "polygon in a single chord for this direction; the polygon "
                "is non-convex in the transversal sense here")

    def trace_states(self, states, *, n_cap: Optional[int],
                     reflection_cap: int):
        """Drive section states (even refl) to terminal statuses, one pair
        table step per two reflections.

        Each input state takes at least one step.  A child section state
        returns at a level that is a multiple of b_mod (0 if irrational),
        escapes past ``n_cap``, stops ACTIVE once ``refl >=
        reflection_cap``, or steps on.  Returns (out, max_refl) where out
        maps each status name to the list of states that finished with
        it; vertex slivers are listed under "uncertain".

        A piece that one plain pair cell holds steps in place, along the
        first record of the cell that holds it and fits its budget.  A
        record (blo, bhi, L, D, dn, imin, imax, end_side) says that any
        piece [lo, hi] there with blo <= lo and hi <= bhi takes L
        single-cell steps, which move it by D and its level by dn, keep
        its intermediate levels in n + [imin, imax] and end on side
        end_side.  It fits when all the intermediate states would step
        on: their refl stays below ``reflection_cap`` and their levels
        within ``n_cap``.  The cell's own single step has no intermediate
        state, so it fits whenever refl < reflection_cap.  Every other
        piece goes through ``_split``: one across cells, in a gap, on a
        guard or a degenerate middle, or an input state already past its
        budget.  One status rule judges the states either path makes, and
        pushes those that step on; the one state of an in-place step is
        the next one popped, so the visiting order and every output list
        are those of stepping each piece through ``_split``.

        A chain of in-place steps learns macro-steps.  It keeps its steps
        and jumps on a stack; while the entry below the newest one is no
        longer than it, the two are composed and the composite is stored
        at the earlier entry's cell, in front of its records.  None of the
        states a jump passes returns, since the pair table fixes n modulo
        b_mod (n itself when irrational): they repeat the levels, or the
        residues, of the chain that learned the record, which stepped on
        from each of them.  The status rule then judges the state the jump
        ends in, as it would after the L steps.

        ``counts`` adds up, over the traces that finish, the single steps
        in place, the jumps, the single steps these stand for and the
        records stored.
        """
        stack = list(states)
        if any(st[5] & 1 for st in stack):
            raise ValueError("trace_states steps section states, whose "
                             "reflection count is even")
        out = {"returned": [], "escaped": [], "active": [], "uncertain": []}
        returned, escaped, active, uncertain = out.values()
        b_mod = self.b_mod
        max_refl = 0
        plain = jumps = jumped = stored = 0
        chain = []  # (records of the start cell, record) per step or jump
        while stack:
            side, lo, hi, n, disp, refl = stack.pop()
            los, his, cells, records = self._pair(n, side)
            i = bisect_right(los, lo) - 1
            recs = records[i] if i >= 0 and hi <= his[i] else ()
            for rec in recs:
                if (rec[0] <= lo and hi <= rec[1]
                        and refl + 2 * rec[2] - 2 < reflection_cap
                        and (n_cap is None or -n_cap <= n + rec[5]
                             and n + rec[6] <= n_cap)):
                    _, _, L, d, k, _, _, t = rec
                    if L == 1:
                        plain += 1
                    else:
                        jumps += 1
                        jumped += L
                    arrivals = [(t, lo + d, hi + d, n + k, disp + d,
                                 refl + 2 * L)]
                    break
            else:
                rec = None
                arrivals = []
                for i, a, b in _split(los, his, lo, hi):
                    if i < 0:
                        uncertain.append((side, a, b, n, disp, refl))
                        continue
                    t, d, k, mid = cells[i]
                    if mid:
                        if mid is not True:
                            raise DegenerateDirection(*mid.args)
                        uncertain.append((t, d - b, d - a, k - n, d - disp,
                                          refl + 1))
                        continue
                    arrivals.append((t, a + d, b + d, n + k, disp + d,
                                     refl + 2))
            for st in arrivals:
                n, refl = st[3], st[5]
                if refl > max_refl:
                    max_refl = refl
                if n == 0 or (b_mod is not None and n % b_mod == 0):
                    dest = returned
                elif n_cap is not None and abs(n) > n_cap:
                    dest = escaped
                elif refl >= reflection_cap:
                    dest = active
                else:
                    dest = stack
                dest.append(st)
            if rec is None or dest is not stack:
                chain.clear()
                continue
            chain.append((recs, rec))
            # a binary counter: the lengths double
            while len(chain) > 1 and chain[-2][1][2] <= L:
                b = chain.pop()[1]
                where, a = chain.pop()
                a_d, a_n = a[3], a[4]
                rec = (max(a[0], b[0] - a_d), min(a[1], b[1] - a_d),
                       a[2] + b[2], a_d + b[3], a_n + b[4],
                       min(a[5], a_n, a_n + b[5]),
                       max(a[6], a_n, a_n + b[6]), b[7])
                where.insert(0, rec)
                stored += 1
                chain.append((where, rec))
                L = rec[2]
        counts = self.counts
        counts["plain"] += plain
        counts["jumps"] += jumps
        counts["jumped"] += jumped
        counts["records"] += stored
        return out, max_refl

    def partition_states(self, level: int = 0):
        """Launch the whole level-``level`` section through one pair of
        reflections.

        Returns ((u_states, r_states, d_states), slivers) with the states
        classified by the level they reach (level + 1, level, level - 1)
        after two reflections.  Raises if any stabbing line crosses
        several chords.
        """
        self.require_single_chord(level)
        tbl = self._table(0, level, _LAUNCH)
        out, _ = self.trace_states(
            [(_LAUNCH, tbl.dom_lo, tbl.dom_hi, level, 0, 0)],
            n_cap=None, reflection_cap=2)
        buckets = {1: [], 0: [], -1: []}
        for st in out["returned"] + out["active"]:
            buckets[st[3] - level].append(st)
        return (buckets[1], buckets[0], buckets[-1]), out["uncertain"]

    # -- finalization ----------------------------------------------------

    def source_pair(self, st) -> Tuple[int, int]:
        _, lo, hi, _, disp, refl = st
        if refl & 1:
            return disp - hi, disp - lo
        return lo - disp, hi - disp

    def source_union(self, states) -> IntervalUnion:
        return IntervalUnion.make(map(self.source_pair, states), self.P)

# --------------------------------------------------------------------------
# Public operations
# --------------------------------------------------------------------------


class EscapeReport(Frozen):
    """Bookkeeping for one escape-set computation.

    ``j_N`` counts the terminal partition intervals produced by tracing
    the departing cohort; ``gate_width`` is the width of the departing
    part of the level-+-N section through which every escaping beam must
    pass, so total_length(F_N) <= gate_width.  ``uncertain`` collects the
    vertex-guard slivers plus any budget-stopped remnants (their mass is
    excluded from both the returned and escaped tallies).
    """

    __slots__ = ("N", "j_N", "gate_width", "uncertain")

    __eq__ = same_fields


def escape_sets(q: GeneralizedParallelogram, theta, ns: Sequence[int],
                reflection_cap: int, variant: str = "down",
                ) -> Iterator[Tuple[IntervalUnion, EscapeReport]]:
    """Yield (F_N, report) for each N of the strictly increasing ``ns``:
    the source set F_N of rays that reach level -(N+1) (variant "down",
    tracing the level-decreasing cohort) or +(N+1) (variant "up") before
    first returning to level 0.

    Every escaping child passes through the departing gate of the level
    -+N section, and traced orbits are pairwise disjoint until they
    return, so total_length(F_N) never exceeds the gate width.

    One tracer serves the whole schedule, and the cohort is traced once:
    a trace capped at a smaller N is a pruned subtree of the trace capped
    at a larger one, so each cutoff resumes from the states that escaped
    past the previous one.
    """
    if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be a non-empty, strictly increasing list "
                         "of N >= 1")
    if variant not in ("down", "up"):
        raise ValueError("variant must be 'down' or 'up'")
    tracer = _Tracer(q, theta)
    (u_states, _, d_states), slivers = tracer.partition_states()
    stack = d_states if variant == "down" else u_states

    n_returned, active = 0, []
    for N in ns:
        out, _ = tracer.trace_states(stack, n_cap=N,
                                     reflection_cap=reflection_cap)
        n_returned += len(out["returned"])
        active += out["active"]
        slivers += out["uncertain"]
        # the gate: the departing part of the level -+N section, split by
        # the same tracer (and tables) the cohort was traced with
        (g_u, _, g_d), _ = tracer.partition_states(-N if variant == "down" else N)
        gate_width = tracer.source_union(
            g_d if variant == "down" else g_u).total_length
        yield tracer.source_union(out["escaped"]), EscapeReport(
            N, n_returned + len(out["escaped"]) + len(active), gate_width,
            tracer.source_union(slivers + active))

        # An escaped state sits at level -+(N+1), inside every later cap,
        # where a single deeper trace would have gone on from it: to the
        # stack, or, once its budget is spent, straight to active.
        stack = []
        for st in out["escaped"]:
            (active if st[5] >= reflection_cap else stack).append(st)


# Rays per trace_states call in perpendicular_periodicity.  A call holds
# every state it returns, so the cohort bounds the live states: at the
# perp_orbits defaults (2,000 rays) tracemalloc peaks at 89 KB in cohorts
# of 128 and at 777 KB with all rays in one call, no faster.
_PERP_BATCH = 128


def perpendicular_periodicity(q: GeneralizedParallelogram, samples: int,
                              reflection_cap: int) -> dict:
    """Fraction of equispaced rays perpendicular to a rhombus diagonal
    whose traces come back parallel to themselves (hence periodic after
    folding the rhombus onto its quarter triangle).

    Returns a dict with ``periodic_fraction`` and ``undecided_fraction``
    (vertex-guard hits plus reflection-budget exhaustions) among other
    counters.  A handful of returned samples are re-traced from their
    return position to confirm they return again.

    The rays are traced in cohorts of ``_PERP_BATCH``, one
    ``trace_states`` call each, and the re-traces in one more call.  Each
    ray ends as exactly one state, so the counts are list lengths, and the
    first returns are the returned states in order of their rays' starts,
    that is, in sample order.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if len(q.vertices) != 4 or set(q.side_classes) != {SideClass.BASE,
                                                       SideClass.SLANT}:
        raise ValueError("perpendicular launches are defined for rhombi")
    bits = q.precision_bits
    with mp.workprec(bits + 48):
        lengths = []
        for i in range(4):
            (ax, ay), (bx, by) = q.side(i)
            lengths.append(mp.hypot(bx - ax, by - ay))
        spread = max(lengths) - min(lengths)
        if spread > mpf(2) ** (-(bits // 2)):
            raise ValueError("perpendicular launches are defined for rhombi "
                             "(all side lengths equal)")
        theta = (q.alpha / 2 + mp.pi / 2) % (2 * mp.pi)
    tracer = _Tracer(q, theta)
    tracer.require_single_chord()
    dom_lo, dom_hi = tracer.launch_span()
    span = dom_hi - dom_lo

    def trace(starts):
        # A one-ulp beam never splits, since cell bounds are integers: each
        # ray finishes as exactly one state, and a returned state's
        # lo - disp is its ray's start.
        out, _ = tracer.trace_states(
            [(_LAUNCH, c0, c0 + 1, 0, 0, 0) for c0 in starts],
            n_cap=None, reflection_cap=reflection_cap)
        return out

    counts = {"returned": 0, "uncertain": 0, "active": 0}
    first_returns = []
    for j0 in range(0, samples, _PERP_BATCH):
        out = trace(dom_lo + ((2 * j + 1) * span) // (2 * samples)
                    for j in range(j0, min(j0 + _PERP_BATCH, samples)))
        for status in counts:
            counts[status] += len(out[status])
        if len(first_returns) < 5:
            first_returns += sorted(out["returned"],
                                    key=lambda st: st[1] - st[4]
                                    )[:5 - len(first_returns)]

    # each retrace starts where its ray returned, and must return again
    again = {st[1] - st[4]: st
             for st in trace(st[1] for st in first_returns)["returned"]}
    retraced = [(st, again[st[1]]) for st in first_returns if st[1] in again]

    return {
        "periodic_fraction": counts["returned"] / samples,
        "undecided_fraction": (counts["uncertain"] + counts["active"]) / samples,
        "samples": samples,
        "reflection_cap": reflection_cap,
        "returned": counts["returned"],
        "vertex_uncertain": counts["uncertain"],
        "budget_exhausted": counts["active"],
        "retrace_checked": len(first_returns),
        "retrace_returned": len(retraced),
        "retrace_exact": sum(st[4:] == st2[4:] for st, st2 in retraced),
        "theta": tracer.theta,
    }
