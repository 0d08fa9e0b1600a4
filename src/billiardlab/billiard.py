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
its source interval.  Vertex shadows and reflection offsets are quantized
once per direction, in a cached frame, and each (direction, source side)
cuts its cached transit table from that frame.  Reflecting
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
Each cell leads to one pair table, that of level n+k on its target side,
so it keeps a link to that table once a piece has stepped through it, and
a chain of single-cell steps follows links instead of looking tables up.

Polygon construction and transit tables handle the general multi-chord
case: a launch table counts the chords each stabbing line crosses.  The
dynamic operations (level partitions, escape sets, perpendicular orbits)
require a single chord for the directions involved.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import mpf_cos_sin

from .circle import CirclePoint, detect_rational_angle, eval_number
from .errors import (DegenerateDirection, NotGeneralizedParallelogram,
                     RationalAngle)
from .fixedpoint import to_fixed
from .intervals import DEFAULT_PRECISION, IntervalUnion

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


@dataclass(frozen=True)
class GeneralizedParallelogram:
    """Simple polygon whose sides are parallel to the x-axis or to alpha.

    ``vertices`` are stored counterclockwise; ``side_classes[i]`` tags the
    side from ``vertices[i]`` to ``vertices[i+1]``.  ``alpha_rational`` is
    ``alpha/pi`` as an exact fraction when that ratio is rational at the
    working precision, else None.
    """

    vertices: Tuple[Tuple[mpf, mpf], ...]
    alpha: mpf
    side_classes: Tuple[SideClass, ...]
    alpha_rational: Optional[Fraction]
    precision_bits: int = DEFAULT_PRECISION

    def side(self, i: int) -> Tuple[Tuple[mpf, mpf], Tuple[mpf, mpf]]:
        return self.vertices[i], self.vertices[(i + 1) % len(self.vertices)]

    @property
    def is_convex(self) -> bool:
        vs = self.vertices
        m = len(vs)
        with mp.workprec(self.precision_bits + 16):
            for i in range(m):
                ax, ay = vs[i]
                bx, by = vs[(i + 1) % m]
                cx, cy = vs[(i + 2) % m]
                if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) < 0:
                    return False
        return True

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
                f"direction alpha={mp.nstr(alpha, 12)}")
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
    return GeneralizedParallelogram(
        vertices=tuple(verts), alpha=alpha, side_classes=classes,
        alpha_rational=rational, precision_bits=bits)


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
    check) and the unrounded section width in ``width_exact``; no runner
    reads the other two, but the table digests in ``tests/golden.json``
    pin all three.
    Ordered by a_a + (c - p_a)(a_b - a_a)/(p_b - p_a), the sides whose
    span of p = v.n holds a cell's midpoint c are its line's crossings.
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
        self.gtol = mpf(2) ** (-(self.P // 2))  # degenerate-direction bound
        # the height h of each side's line, taken at the side's lower vertex
        with mp.workprec(self.P + 64):
            self.cos_a, self.sin_a = mp.cos(self.alpha), mp.sin(self.alpha)
            self.heights = [vy * self.cos_a - vx * self.sin_a if cls else vy
                            for i, cls in enumerate(self.classes_int)
                            for vx, vy in [min(q.side(i), key=lambda v: v[1])]]
        # transit tables under (odd, n, side), pair tables under (n, side);
        # the frames of their directions under (odd, n)
        self.tables: Dict[tuple, object] = {}
        self.frames: Dict[Tuple[int, int], tuple] = {}

    # -- directions ---------------------------------------------------

    def _phi(self, odd: int, n: int) -> mpf:
        """Direction after a reflection count of parity ``odd``."""
        with mp.workprec(self.P + 64):
            theta = -self.theta if odd else self.theta
            return (theta + 2 * n * self.alpha) % self.two_pi

    def _table(self, odd: int, n: int, side: int) -> _Table:
        if self.b_mod is not None:
            n %= self.b_mod
        tbl = self.tables.get((odd, n, side))
        if tbl is None:
            tbl = self._store((odd, n, side), self._build_table(odd, n, side))
        return tbl

    def _store(self, key, table):
        """Cache a transit or pair table; both kinds share one bound, and
        the eviction drops the frames and, with the pair tables, their
        links."""
        if len(self.tables) > _TABLE_CACHE_LIMIT:
            self.tables.clear()
            self.frames.clear()
        self.tables[key] = table
        return table

    def _frame(self, odd: int, n: int):
        """(phi, proj_i, spans, width_exact, deltas) of the direction after
        a reflection count of parity ``odd`` at level ``n``, computed once
        for all of its transit tables: the direction phi, the fixed-point
        projections p = v.n of the vertices, each side's (p_a, p_b, a_a,
        a_b) with a = v.d, the exact launch width and each side's
        reflection offset delta.  A degenerate direction is not kept, so
        it raises again on every build."""
        frame = self.frames.get((odd, n))
        if frame is not None:
            return frame
        P = self.P
        with mp.workprec(P + 64):
            phi = self._phi(odd, n)
            # mp.cos and mp.sin, rounded to nearest, from one call
            dx, dy = map(mp.make_mpf, mpf_cos_sin(phi._mpf_, P + 64, "n"))
            # components of the direction along and across each side class
            along = (dx, dx * self.cos_a + dy * self.sin_a)
            if (abs(dy) < self.gtol
                    or abs(dy * self.cos_a - dx * self.sin_a) < self.gtol):
                raise DegenerateDirection(
                    f"direction {mp.nstr(phi, 12)} (level offset {n}) is "
                    f"parallel to a side class within the precision guard")
            nx, ny = -dy, dx
            verts = self.q.vertices
            proj = [vx * nx + vy * ny for vx, vy in verts]
            proj_i = [to_fixed(p, P) for p in proj]
            along_i = [to_fixed(vx * dx + vy * dy, P) for vx, vy in verts]
            spans = list(zip(proj_i, proj_i[1:] + proj_i[:1],
                             along_i, along_i[1:] + along_i[:1]))
            deltas = [to_fixed(2 * along[cls] * h, P)
                      for cls, h in zip(self.classes_int, self.heights)]
            frame = (phi, proj_i, spans, max(proj) - min(proj), deltas)
        self.frames[odd, n] = frame
        return frame

    def _build_table(self, odd: int, n: int, side: int) -> _Table:
        phi, proj_i, spans, width_exact, deltas = self._frame(odd, n)
        m = len(proj_i)
        if side == _LAUNCH:
            dom_lo, dom_hi = min(proj_i), max(proj_i)
        else:
            a_i, b_i = proj_i[side], proj_i[(side + 1) % m]
            dom_lo, dom_hi = (a_i, b_i) if a_i <= b_i else (b_i, a_i)
            if dom_lo >= dom_hi:
                raise DegenerateDirection(
                    f"side {side} collapses in the direction "
                    f"{mp.nstr(phi, 12)} perpendicular frame")

        def outcome(lo_i, hi_i):
            # No vertex projects inside a cell, so each side crossed at
            # its midpoint c is a sign change of p - c around the
            # vertex cycle: their number is even, and at least two.
            c2 = lo_i + hi_i  # 2c
            order = [s2 for _, s2 in sorted(
                (aa + Fraction((c2 - 2 * pa) * (ab - aa), 2 * (pb - pa)),
                 s2) for s2, (pa, pb, aa, ab) in enumerate(spans)
                if (2 * pa < c2) != (2 * pb < c2))]
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
            tbl.width_exact = width_exact

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
        b_mod) resting on ``side``: (los, his, cells, links), the cells
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
        first-reflection guards.  ``links[i]``, None until a piece first
        steps through cell i, is the pair table of the section the cell
        leads to, at level n+k on side t.
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
                [p[2] for p in pieces], [None] * len(pieces))

    def _pair(self, n: int, side: int):
        """The cached pair table of level ``n`` and side ``side``."""
        key = (n if self.b_mod is None else n % self.b_mod, side)
        pair = self.tables.get(key)
        if pair is None:
            pair = self._store(key, self._build_pair(*key))
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

        A piece that one plain pair cell holds is stepped in place, on to
        the pair table the cell links to: as the only child of its step it
        would be the next state popped anyway, so the visiting order and
        every output list stay the same.  Pieces that split or meet a guard
        or a degenerate middle go through ``_split``.
        """
        stack = list(states)
        if any(st[5] & 1 for st in stack):
            raise ValueError("trace_states steps section states, whose "
                             "reflection count is even")
        out = {"returned": [], "escaped": [], "active": [], "uncertain": []}
        returned, escaped, active, uncertain = out.values()
        b_mod = self.b_mod
        max_refl = 0
        while stack:
            side, lo, hi, n, disp, refl = stack.pop()
            pair = self._pair(n, side)
            while True:
                los, his, cells, links = pair
                i = bisect_right(los, lo) - 1
                if i >= 0 and hi <= his[i] and not cells[i][3]:
                    side, d, k, _ = cells[i]
                    lo += d
                    hi += d
                    n += k
                    disp += d
                    refl += 2
                    if refl > max_refl:
                        max_refl = refl
                    # the split loop's status rule below, repeated for speed
                    if n == 0 or (b_mod is not None and n % b_mod == 0):
                        returned.append((side, lo, hi, n, disp, refl))
                    elif n_cap is not None and abs(n) > n_cap:
                        escaped.append((side, lo, hi, n, disp, refl))
                    elif refl >= reflection_cap:
                        active.append((side, lo, hi, n, disp, refl))
                    else:
                        pair = links[i]
                        if pair is None:
                            pair = links[i] = self._pair(n, side)
                        continue
                    break
                # across cells, in a gap or on a guard or degenerate cell
                refl2 = refl + 2
                for i, a, b in _split(los, his, lo, hi):
                    if i < 0:
                        uncertain.append((side, a, b, n, disp, refl))
                        continue
                    t, d, k, mid = cells[i]
                    if mid:
                        if mid is not True:
                            raise DegenerateDirection(*mid.args)
                        uncertain.append((t, d - b, d - a, k - n, d - disp, refl + 1))
                        continue
                    n2 = n + k
                    child = (t, a + d, b + d, n2, disp + d, refl2)
                    if refl2 > max_refl:
                        max_refl = refl2
                    if n2 == 0 or (b_mod is not None and n2 % b_mod == 0):
                        returned.append(child)
                    elif n_cap is not None and abs(n2) > n_cap:
                        escaped.append(child)
                    elif refl2 >= reflection_cap:
                        active.append(child)
                    else:
                        stack.append(child)
                break
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


@dataclass(frozen=True)
class EscapeReport:
    """Bookkeeping for one escape-set computation.

    ``j_N`` counts the terminal partition intervals produced by tracing
    the departing cohort; ``gate_width`` is the width of the departing
    part of the level-+-N section through which every escaping beam must
    pass, so total_length(F_N) <= gate_width.  ``uncertain`` collects the
    vertex-guard slivers plus any budget-stopped remnants (their mass is
    excluded from both the returned and escaped tallies).  ``f_n_upper``
    complements the returned set inside the cohort: it contains F_N even
    when the reflection budget ran out.
    """

    N: int
    j_N: int
    gate_width: mpf
    cohort_width: mpf
    u_width: mpf
    r_width: mpf
    d_width: mpf
    returned: IntervalUnion
    f_n_upper: IntervalUnion
    active: IntervalUnion
    uncertain: IntervalUnion
    budget_exhausted: bool
    max_reflections: int


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
    (u_states, r_states, d_states), part_slivers = tracer.partition_states()
    u_union = tracer.source_union(u_states)
    r_union = tracer.source_union(r_states)
    d_union = tracer.source_union(d_states)
    stack = d_states if variant == "down" else u_states
    cohort_union = d_union if variant == "down" else u_union

    returned, active, slivers = [], [], list(part_slivers)
    max_refl = 0
    for N in ns:
        out, refl = tracer.trace_states(stack, n_cap=N,
                                        reflection_cap=reflection_cap)
        returned += out["returned"]
        active += out["active"]
        slivers += out["uncertain"]
        max_refl = max(max_refl, refl)

        f_n = tracer.source_union(out["escaped"])
        returned_u = tracer.source_union(returned)
        active_u = tracer.source_union(active)
        # the gate: the departing part of the level -+N section, split by
        # the same tracer (and tables) the cohort was traced with
        (g_u, _, g_d), _ = tracer.partition_states(-N if variant == "down" else N)
        gate_width = tracer.source_union(
            g_d if variant == "down" else g_u).total_length
        yield f_n, EscapeReport(
            N=N, j_N=len(returned) + len(out["escaped"]) + len(active),
            gate_width=gate_width,
            cohort_width=cohort_union.total_length,
            u_width=u_union.total_length, r_width=r_union.total_length,
            d_width=d_union.total_length,
            returned=returned_u, f_n_upper=cohort_union.subtract(returned_u),
            active=active_u,
            uncertain=tracer.source_union(slivers).union(active_u),
            budget_exhausted=bool(active), max_reflections=max_refl)

        # An escaped state sits at level -+(N+1), inside every later cap,
        # where a single deeper trace would have gone on from it: to the
        # stack, or, once its budget is spent, straight to active.
        stack = []
        for st in out["escaped"]:
            (active if st[5] >= reflection_cap else stack).append(st)


def perpendicular_periodicity(q: GeneralizedParallelogram, samples: int,
                              reflection_cap: int) -> dict:
    """Fraction of equispaced rays perpendicular to a rhombus diagonal
    whose traces come back parallel to themselves (hence periodic after
    folding the rhombus onto its quarter triangle).

    Returns a dict with ``periodic_fraction`` and ``undecided_fraction``
    (vertex-guard hits plus reflection-budget exhaustions) among other
    counters.  A handful of returned samples are re-traced from their
    return position to confirm they return again.
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

    def trace_ray(c0: int):
        # A one-ulp beam never splits, since cell bounds are integers: it
        # finishes as exactly one state, whose lo is the ray's position
        # after an even number of reflections.
        out, _ = tracer.trace_states(
            [(_LAUNCH, c0, c0 + 1, 0, 0, 0)],
            n_cap=None, reflection_cap=reflection_cap)
        status, (st,) = next((k, v) for k, v in out.items() if v)
        return status, st[1], st[5], st[4]

    counts = {"returned": 0, "uncertain": 0, "active": 0}
    first_returns = []
    for j in range(samples):
        c0 = dom_lo + ((2 * j + 1) * span) // (2 * samples)
        status, c, refl, disp = trace_ray(c0)
        counts[status] += 1
        if status == "returned" and len(first_returns) < 5:
            first_returns.append((c, refl, disp))

    retrace_returned = 0
    retrace_exact = 0
    for c_ret, refl1, disp1 in first_returns:
        status2, _, refl2, disp2 = trace_ray(c_ret)
        if status2 == "returned":
            retrace_returned += 1
            if refl2 == refl1 and disp2 == disp1:
                retrace_exact += 1

    return {
        "periodic_fraction": counts["returned"] / samples,
        "undecided_fraction": (counts["uncertain"] + counts["active"]) / samples,
        "samples": samples,
        "reflection_cap": reflection_cap,
        "returned": counts["returned"],
        "vertex_uncertain": counts["uncertain"],
        "budget_exhausted": counts["active"],
        "retrace_checked": len(first_returns),
        "retrace_returned": retrace_returned,
        "retrace_exact": retrace_exact,
        "theta": tracer.theta,
    }
