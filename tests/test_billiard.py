"""Tests for directional billiards in two-direction polygons.

The independent oracle here is a naive floating-point ray simulator:
side sequences produced by the fixed-point transit-table engine must
match plain geometry for dozens of reflections.  Everything else is
checked against exact conservation laws and closed-form projections.
"""

import itertools
import math
import warnings

import pytest
from mpmath import mp, mpf

from billiardlab import billiard as B
from billiardlab.billiard import _LAUNCH, _Tracer, SideClass
from billiardlab.circle import eval_number
from billiardlab.errors import (DegenerateDirection,
                                NotGeneralizedParallelogram, RationalAngle)
from billiardlab.fixedpoint import from_fixed


def unit_rhombus(alpha="1.0"):
    return B.rhombus(alpha, 1)


def staircase(steps: int):
    """Non-convex staircase of ``steps`` unit-height slabs, slant angle
    1.0: the bottom slab has base ``steps``, each slab above is one
    shorter at its right end."""
    verts = [("0", "0"), (f"{steps}", "0")]
    for k in range(1, steps):
        verts += [(f"{steps - k + 1}+{k}*cos(1)", f"{k}*sin(1)"),
                  (f"{steps - k}+{k}*cos(1)", f"{k}*sin(1)")]
    verts += [(f"1+{steps}*cos(1)", f"{steps}*sin(1)"),
              (f"{steps}*cos(1)", f"{steps}*sin(1)")]
    return B.polygon_from_vertices(verts, "1.0")


def l_shape():
    """Non-convex staircase of two unit-height slabs, slant angle 1.0."""
    return staircase(2)


def launch_table(q, theta):
    """The launch transit table of direction theta: the cross-section of
    the rays with that direction, cut at the vertex shadows."""
    return _Tracer(q, theta)._table(0, 0, _LAUNCH)


def udr(tracer):
    """Source sets (U, R, D) of the base section's parts that reach level
    +1, 0 and -1 after two reflections."""
    (u, r, d), _ = tracer.partition_states()
    return tuple(map(tracer.source_union, (u, r, d)))


def trace(tracer, lo, hi, n_cap, reflection_cap):
    """Trace the base-section beam [lo, hi]: its terminal states by status,
    each listed as ``(status, state)``."""
    out, _ = tracer.trace_states([(_LAUNCH, lo, hi, 0, 0, 0)], n_cap=n_cap,
                                 reflection_cap=reflection_cap)
    return [(status, st) for status, states in out.items() for st in states]


def source_width(tracer, states):
    """Total source width of ``states``, as an exact integer."""
    return sum(b - a for a, b in map(tracer.source_pair, states))


# --------------------------------------------------------------------------
# Construction and validation
# --------------------------------------------------------------------------


def test_rhombus_closed_form_vertices():
    q = unit_rhombus()
    with mp.workprec(300):
        a = mpf(1)
        expect = [(mpf(0), mpf(0)), (mpf(1), mpf(0)),
                  (1 + mp.cos(a), mp.sin(a)), (mp.cos(a), mp.sin(a))]
        for (vx, vy), (ex, ey) in zip(q.vertices, expect):
            assert abs(vx - ex) < mpf(2) ** -250
            assert abs(vy - ey) < mpf(2) ** -250
    assert q.side_classes == (SideClass.BASE, SideClass.SLANT,
                              SideClass.BASE, SideClass.SLANT)
    assert q.is_convex
    assert q.alpha_rational is None
    assert q.return_modulus is None


def test_rational_angle_warns_and_sets_modulus():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q = B.rhombus("pi/3", 1)
    assert any(issubclass(w.category, RationalAngle) for w in caught)
    assert q.alpha_rational is not None
    assert q.alpha_rational.numerator == 1
    assert q.alpha_rational.denominator == 3
    assert q.return_modulus == 3


def test_irrational_angle_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        unit_rhombus()
    assert not any(issubclass(w.category, RationalAngle) for w in caught)


def test_vertex_list_roundtrip_and_ccw_normalization():
    p = B.parallelogram("0.7", 2, 1)
    # feed the same vertices clockwise; construction must normalize
    with mp.workprec(320):
        cw = [(mp.nstr(x, 95), mp.nstr(y, 95))
              for x, y in reversed(p.vertices)]
    p2 = B.polygon_from_vertices(cw)
    with mp.workprec(320):
        area = B._signed_area(p2.vertices)
        assert area > 0
        assert abs(p2.alpha - p.alpha) < mpf("1e-80")


def test_rejects_side_in_third_direction():
    with pytest.raises(NotGeneralizedParallelogram):
        B.polygon_from_vertices(
            [("0", "0"), ("1", "0"), ("1.2", "0.9"), ("0", "1")], "1.0")


def test_rejects_self_intersecting_cycle():
    # bowtie out of two admissible directions
    with pytest.raises(NotGeneralizedParallelogram):
        B.polygon_from_vertices(
            [("0", "0"), ("1", "0"),
             ("1-cos(1)", "-sin(1)"), ("cos(1)+1", "sin(1)")
             ][:4], "1.0")


def test_rejects_degenerate_alpha():
    with pytest.raises(ValueError):
        B.rhombus("0", 1)
    with pytest.raises(ValueError):
        B.rhombus("pi/2", 1)
    with pytest.raises(ValueError):
        B.rhombus("1.0", 0)


def test_l_shape_accepted_nonconvex():
    q = l_shape()
    assert not q.is_convex
    assert len(q.vertices) == 6
    assert [c.value for c in q.side_classes] == [
        "base", "slant", "base", "slant", "base", "slant"]


def test_build_polygon_dispatch():
    q1 = B.build_polygon({"kind": "rhombus", "alpha": "1.0", "side": 1})
    assert len(q1.vertices) == 4
    q2 = B.build_polygon({"kind": "parallelogram", "alpha": "0.7",
                          "base": 2, "side": 1})
    assert len(q2.vertices) == 4
    q3 = B.polygon_from_vertices([("0", "0"), ("1", "0"),
                                  ("1+cos(1)", "sin(1)"), ("cos(1)", "sin(1)")])
    assert abs(q3.alpha - 1) < mpf(2) ** -200
    with pytest.raises(ValueError):
        B.build_polygon({"kind": "triangle"})
    with pytest.raises(ValueError):
        B.build_polygon({"type": "rhombus", "alpha": "1.0", "side": 1})
    with pytest.raises(ValueError):
        B.build_polygon("rhombus")


# --------------------------------------------------------------------------
# Cross-sections
# --------------------------------------------------------------------------


def test_cross_section_width_matches_projection_span():
    q = unit_rhombus()
    tbl = launch_table(q, "0.3")
    assert tbl.max_chords == 1
    with mp.workprec(300):
        th = eval_number("0.3", 280)
        proj = [-vx * mp.sin(th) + vy * mp.cos(th) for vx, vy in q.vertices]
        assert abs(tbl.width_exact - (max(proj) - min(proj))) < mpf(2) ** -250


def test_cross_section_reversed_direction_same_width():
    q = unit_rhombus()
    a = launch_table(q, "0.3")
    b = launch_table(q, "0.3 + pi")
    with mp.workprec(300):
        assert abs(a.width_exact - b.width_exact) < mpf(2) ** -250


def test_cross_section_width_continuous_in_theta():
    q = unit_rhombus()
    with mp.workprec(300):
        w1 = launch_table(q, "0.3").width_exact
        w2 = launch_table(q, "0.3 + 1/100000").width_exact
        # width is Lipschitz in theta with constant <= polygon diameter
        assert abs(w2 - w1) < mpf("3e-5")


def test_cross_section_degenerate_directions_rejected():
    q = unit_rhombus()
    with pytest.raises(DegenerateDirection):
        launch_table(q, "0")
    with pytest.raises(DegenerateDirection):
        launch_table(q, "1.0")  # parallel to the slant sides
    with pytest.raises(DegenerateDirection):
        launch_table(q, "pi")


def test_cross_section_multi_chord_reporting():
    q = l_shape()
    tbl = launch_table(q, "1.3")
    assert tbl.max_chords == 2
    assert max(m for _, _, m in tbl.raw_cells) == 2
    P = q.precision_bits
    with mp.workprec(300):
        th = mpf("1.3")
        proj = [-vx * mp.sin(th) + vy * mp.cos(th) for vx, vy in q.vertices]
        span = max(proj) - min(proj)
        # multiplicity-weighted width strictly exceeds the plain span
        width = sum((hi - lo) * m for lo, hi, m in tbl.raw_cells)
        assert from_fixed(width, P) > span + mpf("0.1")
        # and the reported pieces tile the span exactly
        tiled = sum(hi - lo for lo, hi, _ in tbl.raw_cells)
        assert abs(from_fixed(tiled, P) - span) < mpf(2) ** -240


def test_multi_chord_piece_counts_match_direct_stabbing():
    q = l_shape()
    tbl = launch_table(q, "1.3")
    verts = [(float(x), float(y)) for x, y in q.vertices]
    th = 1.3
    d = (math.cos(th), math.sin(th))
    nx, ny = -math.sin(th), math.cos(th)
    for lo, hi, mult in tbl.raw_cells:
        c = float(from_fixed(lo + hi, q.precision_bits + 1))
        px, py = c * nx - 4 * d[0], c * ny - 4 * d[1]
        assert len(_float_hits(verts, px, py, d)) == 2 * mult


# --------------------------------------------------------------------------
# Two-reflection partition
# --------------------------------------------------------------------------


def test_partition_sums_to_section_width():
    q = unit_rhombus()
    for ts in ("0.3", "1.2", "2.6"):
        tracer = _Tracer(q, ts)
        u, r, d = udr(tracer)
        with mp.workprec(320):
            total = u.total_length + r.total_length + d.total_length
            gap = tracer._table(0, 0, _LAUNCH).width_exact - total
            # only the vertex-guard slivers are missing
            assert 0 <= gap < mpf("1e-35")


def test_partition_parts_disjoint():
    q = unit_rhombus()
    u, r, d = udr(_Tracer(q, "1.2"))
    assert all(x.total_length > 0 for x in (u, r, d))
    with mp.workprec(320):
        assert u.intersect(d).total_length == 0
        assert u.intersect(r).total_length == 0
        assert r.intersect(d).total_length == 0


def test_partition_thin_gates_track_sines():
    # On the unit rhombus the +2a part is exactly |sin theta| wide and the
    # -2a part exactly |sin(theta - alpha)| wide for shallow theta.
    q = unit_rhombus()
    with mp.workprec(300):
        for k in range(1, 21):
            th = mpf(k) / 100
            u, r, d = udr(_Tracer(q, th))
            ru = u.total_length / abs(mp.sin(th))
            rd = d.total_length / abs(mp.sin(th - q.alpha))
            assert abs(ru - 1) < mpf("1e-30")
            assert abs(rd - 1) < mpf("1e-30")


def test_partition_literal_ratio_bounded_on_range():
    # the raw ratio w(D)/|sin theta| stays finite on the compact range,
    # with its maximum at the left endpoint
    q = unit_rhombus()
    with mp.workprec(300):
        ratios = []
        for k in range(50):
            th = mpf("0.01") + k * (mpf("0.19") / 49)
            _, _, d = udr(_Tracer(q, th))
            ratios.append(d.total_length / abs(mp.sin(th)))
        assert max(ratios) < 90
        assert min(ratios) > 3
        assert max(ratios) == ratios[0]


def test_partition_vanishing_gate_as_theta_to_zero():
    q = unit_rhombus()
    with mp.workprec(300):
        for ts in ("0.01", "0.001", "0.0001"):
            th = mpf(ts)
            u, _, _ = udr(_Tracer(q, th))
            assert u.total_length < mpf("1.01") * th


def test_partition_rejects_multi_chord_direction():
    q = l_shape()
    with pytest.raises(ValueError):
        _Tracer(q, "1.3").partition_states()
    # single-chord directions on the same polygon still work
    u, r, d = udr(_Tracer(q, "0.3"))
    with mp.workprec(300):
        assert (u.total_length + r.total_length + d.total_length) > 1


# --------------------------------------------------------------------------
# Beam tracing
# --------------------------------------------------------------------------


def test_trace_beam_exact_length_conservation():
    q = unit_rhombus()
    tracer = _Tracer(q, "0.3")
    _, _, d = udr(tracer)
    lo, hi = d.intervals[0]
    kids = trace(tracer, lo, hi, 3, 100000)
    assert source_width(tracer, [k for _, k in kids]) == hi - lo  # exact
    assert all(status in ("returned", "escaped", "uncertain")
               for status, _ in kids)


def test_trace_beam_bounce_back_returns_after_one_pair():
    # at theta = 2.2 the middle of the section bounces between the two
    # side classes' same-class pairs and returns immediately
    q = unit_rhombus()
    tracer = _Tracer(q, "2.2")
    _, r, _ = udr(tracer)
    assert r.total_length > 1
    lo, hi = r.intervals[0]
    pad = (hi - lo) // 1000
    kids = trace(tracer, lo + pad, hi - pad, 2, 1000)
    assert all(status == "returned" for status, _ in kids)
    assert all(k[5] == 2 for _, k in kids)  # reflections
    assert all(k[3] == 0 for _, k in kids)  # level


def test_trace_beam_splits_across_vertex_shadow():
    q = unit_rhombus()
    tracer = _Tracer(q, "0.3")
    lo, hi = tracer.launch_span()
    kids = trace(tracer, lo, hi, 1, 100000)
    statuses = {status for status, _ in kids}
    assert len(kids) >= 3
    assert "uncertain" in statuses
    assert "returned" in statuses or "escaped" in statuses
    # vertex slivers carry negligible length
    sliver = source_width(tracer, [k for status, k in kids
                                   if status == "uncertain"])
    assert from_fixed(sliver, q.precision_bits) < mpf("1e-35")


def test_trace_beam_same_time_fragments_disjoint():
    q = unit_rhombus()
    tracer = _Tracer(q, "0.9")
    lo, hi = tracer.launch_span()
    # rays at the same reflection count and level share one section line,
    # so the fragments landing there at the cap must be disjoint
    checked = 0
    for cap in range(2, 61, 2):
        landed = {}
        for _, k in trace(tracer, lo, hi, 3, cap):
            if k[5] == cap:
                landed.setdefault(k[3], []).append((k[1], k[2]))
        for group in landed.values():
            group.sort()
            for (a_lo, a_hi), (b_lo, b_hi) in zip(group, group[1:]):
                assert a_hi <= b_lo
                checked += 1
    assert checked > 0


def test_trace_beam_budget_flagged_as_active():
    q = unit_rhombus()
    tracer = _Tracer(q, "0.9")
    lo, hi = tracer.launch_span()
    kids = trace(tracer, lo, hi, 50, 6)
    active = [k for status, k in kids if status == "active"]
    assert active  # the budget is far too small to resolve everything
    assert all(k[5] >= 6 for k in active)
    assert source_width(tracer, [k for _, k in kids]) == hi - lo


# --------------------------------------------------------------------------
# Engine vs. naive floating-point geometry
# --------------------------------------------------------------------------


def _float_hits(verts, px, py, d, skip=-1):
    """Plain float ray cast: the boundary hits (t, side) of the forward ray
    from (px, py) in direction d, nearest first, ignoring side ``skip``."""
    m = len(verts)
    hits = []
    for s in range(m):
        if s == skip:
            continue
        ax, ay = verts[s]
        bx, by = verts[(s + 1) % m]
        ex, ey = bx - ax, by - ay
        den = d[0] * ey - d[1] * ex
        if abs(den) < 1e-15:
            continue
        rx, ry = ax - px, ay - py
        t = (rx * ey - ex * ry) / den
        u = (d[1] * rx - d[0] * ry) / den
        if t <= 1e-12 or u < -1e-12 or u > 1 + 1e-12:
            continue
        hits.append((t, s))
    hits.sort()
    return hits


def _float_trace(verts, theta, c0, nrefl):
    """Plain float billiard: start inside the chord at offset c0.  Returns
    the side hit by each reflection and the section offset p.(-sin, cos)
    of the reflected ray."""
    m = len(verts)
    d = (math.cos(theta), math.sin(theta))
    nx, ny = -math.sin(theta), math.cos(theta)
    px, py = c0 * nx - 4 * d[0], c0 * ny - 4 * d[1]

    hits = _float_hits(verts, px, py, d)
    if len(hits) < 2:
        return [], []
    tm = (hits[0][0] + hits[1][0]) / 2
    px, py = px + tm * d[0], py + tm * d[1]
    sides, offsets = [], []
    skip = -1
    for _ in range(nrefl):
        hits = _float_hits(verts, px, py, d, skip)
        if not hits:
            return sides, offsets
        t, s = hits[0]
        px, py = px + t * d[0], py + t * d[1]
        sides.append(s)
        ax, ay = verts[s]
        bx, by = verts[(s + 1) % m]
        ex, ey = bx - ax, by - ay
        ln = math.hypot(ex, ey)
        ex, ey = ex / ln, ey / ln
        dot = d[0] * ex + d[1] * ey
        d = (2 * dot * ex - d[0], 2 * dot * ey - d[1])
        offsets.append(py * d[0] - px * d[1])
        skip = s
    return sides, offsets


@pytest.mark.parametrize("alpha,theta", [
    ("1.0", "0.3"), ("1.0", "2.2"), ("0.7", "0.41"), ("pi/4", "0.55")])
def test_side_sequences_match_float_geometry(alpha, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = B.rhombus(alpha, 1)
    verts_f = [(float(x), float(y)) for x, y in q.vertices]
    tracer = _Tracer(q, theta)
    lo, hi = tracer.launch_span()
    span = hi - lo
    for j in (17, 101, 313, 449, 700, 901):
        c0 = lo + (j * span) // 997
        # a one-ulp ray never splits; read the target side and the offset
        # of every reflection, odd ones included, until it returns
        st = (_LAUNCH, c0, c0 + 1, 0, 0, 0)
        engine_sides, engine_offsets = [], []
        while len(engine_sides) < 40:
            children, _ = tracer._advance(st)
            if not children:
                break
            (st,) = children
            engine_sides.append(st[0])
            engine_offsets.append(float(from_fixed(st[1], q.precision_bits)))
            n, b_mod = st[3], tracer.b_mod
            if not st[5] & 1 and (n == 0 or b_mod and n % b_mod == 0):
                break
        oracle_sides, oracle_offsets = _float_trace(
            verts_f, float(mpf(tracer.theta)),
            float(from_fixed(c0, q.precision_bits)), len(engine_sides))
        assert engine_sides == oracle_sides
        assert engine_offsets == pytest.approx(oracle_offsets, rel=0, abs=1e-9)


@pytest.mark.parametrize("steps", [2, 3])
def test_nonconvex_targets_match_float_geometry(steps):
    """On the staircases, where a line may cross the boundary four or six
    times: a side-table cell's target is the first side a float ray from
    the cell's midpoint on its source side hits, and a launch cell's
    target and chord count are the second hit and half the hits of the
    stabbing line at its midpoint."""
    q = staircase(steps)
    P = q.precision_bits
    verts = [(float(x), float(y)) for x, y in q.vertices]
    m = len(verts)
    crossings = {True: set(), False: set()}  # launch cells, side cells
    for theta in ("0.3", "1.3", "2.2", "4.0"):
        tracer = _Tracer(q, theta)
        for odd, n in itertools.product((0, 1), range(-2, 3)):
            phi = float(tracer._phi(odd, n))
            d = (math.cos(phi), math.sin(phi))
            nrm = (-d[1], d[0])

            def line(lo, hi):  # the hits of the whole stabbing line
                c = float(from_fixed(lo + hi, P + 1))
                return c, _float_hits(verts, c * nrm[0] - 9 * d[0],
                                      c * nrm[1] - 9 * d[1], d)

            for side in [_LAUNCH, *range(m)]:
                try:
                    tbl = tracer._table(odd, n, side)
                except DegenerateDirection:
                    continue
                for lo, hi, target in zip(tbl.los, tbl.his, tbl.targets):
                    if hi - lo < 1 << (P - 24):
                        continue  # too near a vertex shadow for floats
                    c, hits = line(lo, hi)
                    crossings[side == _LAUNCH].add(len(hits))
                    if side == _LAUNCH:
                        assert hits[1][1] == target
                        continue
                    (ax, ay), (bx, by) = verts[side], verts[(side + 1) % m]
                    pa = ax * nrm[0] + ay * nrm[1]
                    u = (c - pa) / (bx * nrm[0] + by * nrm[1] - pa)
                    px, py = ax + u * (bx - ax), ay + u * (by - ay)
                    assert _float_hits(verts, px, py, d, side)[0][1] == target
                for lo, hi, chords in tbl.raw_cells:
                    assert len(line(lo, hi)[1]) == 2 * chords
    # both kinds of cell met lines crossing 2, 4, ... 2*steps times
    counts = set(range(2, 2 * steps + 1, 2))
    assert crossings[True] == crossings[False] == counts


@pytest.mark.parametrize("shape", [
    ("rhombus", "1.0", 1), ("rhombus", "pi*(sqrt(5)-1)/4", "sqrt(3)"),
    ("rhombus", "pi/5", "1.5"), ("parallelogram", "0.7", 2, "sqrt(2)"),
    ("parallelogram", "1.2", "sqrt(2)", 1)])
@pytest.mark.parametrize("theta", ["0.3", "2.2", "4.0"])
def test_offsets_vanish_on_sides_through_origin(shape, theta):
    """delta = 2*(d.u)*h, and h = 0 on the line of a side through the
    origin: those offsets are exactly 0, at both parities."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = getattr(B, shape[0])(*shape[1:])
    vs = q.vertices
    through_origin = {i for i in range(len(vs))
                      if (0, 0) in (vs[i], vs[(i + 1) % len(vs)])}
    assert len(through_origin) == 2
    tracer = _Tracer(q, theta)
    seen = set()
    for odd in (0, 1):
        for n in range(-3, 4):
            for side in [_LAUNCH, *range(len(vs))]:
                try:
                    tbl = tracer._table(odd, n, side)
                except DegenerateDirection:
                    continue
                for target, delta in zip(tbl.targets, tbl.deltas):
                    if target in through_origin:
                        assert delta == 0
                        seen.add(odd)
    assert seen == {0, 1}


def _reflection_by_reflection(tracer, states, n_cap, reflection_cap):
    """Reference stepper: one ``_advance`` per reflection, odd children
    back on the stack, each section child classified on arrival."""
    out = {"returned": [], "escaped": [], "active": [], "uncertain": []}
    stack = list(states)
    max_refl = 0
    while stack:
        children, slivers = tracer._advance(stack.pop())
        out["uncertain"] += slivers
        for ch in children:
            n, refl = ch[3], ch[5]
            if refl & 1:
                stack.append(ch)
                continue
            max_refl = max(max_refl, refl)
            if n == 0 or tracer.b_mod and n % tracer.b_mod == 0:
                out["returned"].append(ch)
            elif n_cap is not None and abs(n) > n_cap:
                out["escaped"].append(ch)
            elif refl >= reflection_cap:
                out["active"].append(ch)
            else:
                stack.append(ch)
    return out, max_refl


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("shape", [("rhombus", "pi*(sqrt(5)-1)/4"),
                                   ("rhombus", "pi/3"),
                                   ("parallelogram", "1.0", 2, 1)])
def test_pair_stepper_matches_reflection_by_reflection(shape, bits):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = getattr(B, shape[0])(*shape[1:], precision_bits=bits)
    for theta in ("0.3", "1.2", "5.9"):
        tracer = _Tracer(q, theta)
        for level in (0, 2, -2):
            span = tracer._table(0, level, _LAUNCH)
            launch = [(_LAUNCH, span.dom_lo, span.dom_hi, level, 0, 0)]
            for n_cap in (None, 1, 3):
                for cap in (1, 2, 3, 7, 1000):
                    got, got_refl = tracer.trace_states(
                        launch, n_cap=n_cap, reflection_cap=cap)
                    want, want_refl = _reflection_by_reflection(
                        tracer, launch, n_cap, cap)
                    assert got_refl == want_refl
                    assert {k: sorted(v) for k, v in got.items()} == \
                        {k: sorted(v) for k, v in want.items()}, \
                        (theta, level, n_cap, cap)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("shape", [("rhombus", "pi*(sqrt(5)-1)/4"),
                                   ("rhombus", "pi/3"),
                                   ("parallelogram", "1.0", 2, 1)])
def test_single_cell_chains_match_reflection_by_reflection(shape, bits):
    # Narrow pieces rarely split, so they run long chains of single-cell
    # pair steps, some up to the 5000-reflection cap.  One piece starts in
    # the middle of each cell of a launch pair table, guard cells included.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = getattr(B, shape[0])(*shape[1:], precision_bits=bits)
    for theta in ("0.05", "0.3", "1.2"):
        tracer = _Tracer(q, theta)
        for level in (0, 2):
            los, his, _, _ = tracer._build_pair(level, _LAUNCH)
            for (lo, hi), width in itertools.product(zip(los, his),
                                                     (1, 1 << 20)):
                mid = (lo + hi) // 2
                launch = [(_LAUNCH, mid, min(mid + width, hi), level, 0, 0)]
                for n_cap, cap in itertools.product((None, 1, 3),
                                                    (2, 3, 4, 5000)):
                    got, got_refl = tracer.trace_states(
                        launch, n_cap=n_cap, reflection_cap=cap)
                    want, want_refl = _reflection_by_reflection(
                        tracer, launch, n_cap, cap)
                    assert got_refl == want_refl
                    assert {k: sorted(v) for k, v in got.items()} == \
                        {k: sorted(v) for k, v in want.items()}, \
                        (theta, level, mid, width, n_cap, cap)


def test_degenerate_middle_table_raises_only_for_beams_that_reach_it():
    # A pair table reflects its whole domain twice, so it builds middle
    # tables that a given beam may never use.  Make one of them degenerate:
    # a beam through another first-reflection cell must trace as before,
    # and only a beam that reaches the degenerate one raises.  One pair
    # step (cap 2) keeps each beam on the middle table of its own cell.
    q = unit_rhombus()
    clean = _Tracer(q, "0.3")
    first = clean._table(0, 0, _LAUNCH)
    poison = (1, first.classes[0], first.targets[0])
    other = next(i for i in range(len(first.los))
                 if (1, first.classes[i], first.targets[i]) != poison)

    def poisoned(key=poison):
        tracer = _Tracer(q, "0.3")
        build = tracer._build_table

        def build_table(odd, n, side):
            if (odd, n, side) == key:
                raise DegenerateDirection("poisoned middle table")
            return build(odd, n, side)
        tracer._build_table = build_table
        return tracer

    def beam(i):
        mid = (first.los[i] + first.his[i]) // 2
        return [(_LAUNCH, mid, mid + (1 << 20), 0, 0, 0)]

    want = clean.trace_states(beam(other), n_cap=None, reflection_cap=2)
    assert poisoned().trace_states(beam(other), n_cap=None,
                                   reflection_cap=2) == want
    assert _reflection_by_reflection(poisoned(), beam(other), None, 2) == want
    with pytest.raises(DegenerateDirection, match="poisoned"):
        poisoned().trace_states(beam(0), n_cap=None, reflection_cap=2)
    with pytest.raises(DegenerateDirection, match="poisoned"):
        _reflection_by_reflection(poisoned(), beam(0), None, 2)

    # Mid-chain: the narrow beam(0) takes two unsplit pair steps, away from
    # level 0, and first meets the middle table ``late`` on its third step.
    # Poisoned there, it raises on that step and stops cleanly at cap 4.
    st, middles = beam(0)[0], []
    for _ in range(3):
        (mid,), slivers = clean._advance(st)
        (st,), more = clean._advance(mid)
        assert not slivers and not more and st[3] != 0
        middles.append((1, mid[3], mid[0]))
    late = middles[2]
    assert late not in middles[:2]
    want = clean.trace_states(beam(0), n_cap=None, reflection_cap=4)
    assert want[1] == 4 and len(want[0]["active"]) == 1
    assert poisoned(late).trace_states(beam(0), n_cap=None,
                                       reflection_cap=4) == want
    assert _reflection_by_reflection(poisoned(late), beam(0), None, 4) == want
    with pytest.raises(DegenerateDirection, match="poisoned"):
        poisoned(late).trace_states(beam(0), n_cap=None, reflection_cap=6)
    with pytest.raises(DegenerateDirection, match="poisoned"):
        _reflection_by_reflection(poisoned(late), beam(0), None, 6)


def test_trace_states_rejects_odd_states():
    tracer = _Tracer(unit_rhombus(), "0.3")
    lo, hi = tracer.launch_span()
    with pytest.raises(ValueError):
        tracer.trace_states([(_LAUNCH, lo, hi, 0, 0, 1)], n_cap=None,
                            reflection_cap=10)


# --------------------------------------------------------------------------
# Escape sets
# --------------------------------------------------------------------------


def test_escape_sets_nested_and_gate_bounded():
    q = unit_rhombus()
    prev = None
    for f_n, rep in B.escape_sets(q, "0.3", [1, 2, 3, 4, 5], 100000):
        assert f_n.total_length <= rep.gate_width
        assert rep.j_N <= 2 * 4 * rep.N
        if prev is not None:
            assert f_n.is_subset_of(prev)
        prev = f_n
        with mp.workprec(320):
            assert rep.uncertain.total_length < mpf("1e-30")
        assert not rep.budget_exhausted


def test_escape_set_report_partition_widths():
    q = unit_rhombus()
    (f_1, rep), = B.escape_sets(q, "1.2", [1], 100000)
    width = launch_table(q, "1.2").width_exact
    with mp.workprec(320):
        total = rep.u_width + rep.r_width + rep.d_width
        assert 0 <= width - total < mpf("1e-35")
        assert rep.cohort_width == rep.d_width
    # the escaped set plus the returned set sit inside the cohort
    assert f_1.is_subset_of(rep.f_n_upper)
    assert rep.f_n_upper.total_length <= rep.cohort_width


def test_escape_set_up_variant_gate_tracks_sine():
    q = unit_rhombus()
    with mp.workprec(300):
        th = mpf("0.3")
        for f_n, rep in B.escape_sets(q, th, [1, 2, 3], 100000, variant="up"):
            assert f_n.total_length <= rep.gate_width
            bound = abs(mp.sin(th + 2 * rep.N * q.alpha))
            assert rep.gate_width <= bound * mpf("1.000001")
            assert f_n.is_subset_of(rep.f_n_upper)


def test_escape_set_rational_angle_shallow_levels_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q3 = B.rhombus("pi/3", 1)
    (f_1, _), = B.escape_sets(q3, "0.3", [1], 100000)
    assert f_1.total_length > 0
    for f_n, rep in B.escape_sets(q3, "0.3", [2, 3, 5], 100000):
        assert len(f_n) == 0
        assert f_n.total_length == 0
        assert not rep.budget_exhausted
    # the up side closes off the same way
    (f_up, _), = B.escape_sets(q3, "0.3", [3], 100000, variant="up")
    assert f_up.total_length == 0


def test_escape_set_budget_exhaustion_reported_not_raised():
    q = unit_rhombus()
    (f_n, rep), = B.escape_sets(q, "0.3", [30], 50)
    assert rep.budget_exhausted
    assert rep.active.total_length > 0
    assert rep.uncertain.total_length >= rep.active.total_length
    # the upper envelope still contains every possible escaper
    assert f_n.is_subset_of(rep.f_n_upper)


def test_escape_set_input_validation():
    q = unit_rhombus()
    with pytest.raises(ValueError):
        next(B.escape_sets(q, "0.3", [0], 1000))
    with pytest.raises(ValueError):
        next(B.escape_sets(q, "0.3", [1], 1000, variant="sideways"))


def test_escape_set_builds_one_tracer(monkeypatch):
    # one tracer serves every N of a schedule, gates included
    built = []

    class CountingTracer(_Tracer):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(B, "_Tracer", CountingTracer)
    for variant in ("down", "up"):
        built.clear()
        got = list(B.escape_sets(unit_rhombus(), "0.3", [1, 3, 7], 100000,
                                 variant=variant))
        assert [rep.N for _, rep in got] == [1, 3, 7]
        assert len(built) == 1


def _fresh_trace(q, theta, N, cap, variant):
    """Reference for one N: a new tracer traces the whole cohort to n_cap=N."""
    tracer = _Tracer(q, theta)
    (u, _, d), part_slivers = tracer.partition_states()
    out, max_refl = tracer.trace_states(d if variant == "down" else u,
                                        n_cap=N, reflection_cap=cap)
    uncertain = tracer.source_union(part_slivers + out["uncertain"]).union(
        tracer.source_union(out["active"]))
    return {"f_n": tracer.source_union(out["escaped"]),
            "returned": tracer.source_union(out["returned"]),
            "uncertain": uncertain,
            "j_N": sum(len(out[k]) for k in ("returned", "escaped", "active")),
            "max_reflections": max_refl,
            "budget_exhausted": bool(out["active"])}


@pytest.mark.parametrize("bits", [64, 256])
def test_escape_sets_match_independent_traces(bits):
    # caps 4 and 6 put escaped states exactly at refl == cap, where the
    # resumed trace must stop them on the budget, as a deeper trace would
    q = B.rhombus("pi*(sqrt(5)-1)/4", 1, precision_bits=bits)
    ns = [1, 2, 3, 7]
    for theta in ("0.3", "1.2", "5.9"):
        for variant in ("down", "up"):
            for cap in (4, 6, 10, 50, 1000):
                got = list(B.escape_sets(q, theta, ns, cap, variant))
                assert [rep.N for _, rep in got] == ns
                for n, (f_n, rep) in zip(ns, got):
                    ref = _fresh_trace(q, theta, n, cap, variant)
                    assert {"f_n": f_n, "returned": rep.returned,
                            "uncertain": rep.uncertain, "j_N": rep.j_N,
                            "max_reflections": rep.max_reflections,
                            "budget_exhausted": rep.budget_exhausted} == ref, \
                        (theta, variant, cap, n)


def test_escape_sets_survive_table_cache_eviction(monkeypatch):
    # a tiny cache limit clears the transit and pair tables together again
    # and again mid-trace; rebuilt tables must give the same escape sets
    # and reports
    q = B.rhombus("pi*(sqrt(5)-1)/4", 1, precision_bits=128)
    builds = {"_build_table": [], "_build_pair": []}

    def counting(name):
        build = getattr(_Tracer, name)

        def counting_build(self, *key):
            builds[name].append(key)
            return build(self, *key)
        return counting_build

    for name in builds:
        monkeypatch.setattr(_Tracer, name, counting(name))
    want = list(B.escape_sets(q, "0.3", [1, 2, 3], 1000))
    unpatched = {name: len(log) for name, log in builds.items()}
    for log in builds.values():
        log.clear()
    monkeypatch.setattr(B, "_TABLE_CACHE_LIMIT", 2)
    assert list(B.escape_sets(q, "0.3", [1, 2, 3], 1000)) == want
    for name, log in builds.items():
        assert len(log) > unpatched[name] > 0, name


@pytest.mark.parametrize("limit, want_builds", [
    (2, {"_build_table": 1376, "_build_pair": 506}),
    (5, {"_build_table": 470, "_build_pair": 189})])
def test_links_do_not_outlive_cache_eviction(monkeypatch, limit, want_builds):
    # Pair steps follow cell links instead of looking tables up.  Under a
    # tiny cache limit the tables are evicted again and again mid-chain; a
    # trace must rebuild exactly the tables that a tracer looking its pair
    # table up at every step rebuilds (the counts below), so it follows no
    # link into an evicted table.
    q = B.rhombus("pi*(sqrt(5)-1)/4", 1, precision_bits=64)

    def trace():
        tracer = _Tracer(q, "0.3")
        lo, hi = tracer.launch_span()
        return tracer.trace_states([(_LAUNCH, lo, hi, 0, 0, 0)], n_cap=4,
                                   reflection_cap=1000)

    want = trace()
    builds = dict.fromkeys(want_builds, 0)

    def counting(name):
        build = getattr(_Tracer, name)

        def counting_build(self, *key):
            builds[name] += 1
            return build(self, *key)
        return counting_build

    for name in builds:
        monkeypatch.setattr(_Tracer, name, counting(name))
    monkeypatch.setattr(B, "_TABLE_CACHE_LIMIT", limit)
    assert trace() == want
    assert builds == want_builds


@pytest.mark.parametrize("ns", [[], [0, 2], [2, 2], [3, 1]])
def test_escape_sets_reject_bad_schedules(ns):
    with pytest.raises(ValueError):
        list(B.escape_sets(unit_rhombus(), "0.3", ns, 1000))


def _two_tracer_gate_width(q, theta, N, variant):
    """Reference gate: a second tracer launched at the gate direction,
    rounded at P+48 bits, split at its own level 0."""
    tracer = _Tracer(q, theta)
    with mp.workprec(tracer.P + 48):
        sign = -1 if variant == "down" else 1
        gate_dir = (tracer.theta + sign * 2 * N * q.alpha) % (2 * mp.pi)
    gate = _Tracer(q, gate_dir)
    (g_u, _, g_d), _ = gate.partition_states()
    return gate.source_union(g_d if variant == "down" else g_u).total_length


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("alpha", ["pi*(sqrt(5)-1)/4", "1.0", "pi/4"])
def test_escape_gate_matches_two_tracer_reference(alpha, bits):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = B.rhombus(alpha, 1, precision_bits=bits)
    ulp = mpf(2) ** -bits
    for theta in ("0.3", "1.2", "5.9"):
        for variant in ("down", "up"):
            for f_n, rep in B.escape_sets(q, theta, [1, 2, 7, 25], 2000,
                                          variant=variant):
                ref = _two_tracer_gate_width(q, theta, rep.N, variant)
                with mp.workprec(bits + 64):
                    assert abs(rep.gate_width - ref) <= ulp
                assert f_n.total_length <= rep.gate_width


def test_escape_set_measure_preserved_between_source_and_image():
    q = unit_rhombus()
    tracer = _Tracer(q, "0.9")
    (u, r, d), _ = tracer.partition_states()
    out, _ = tracer.trace_states(d, n_cap=4, reflection_cap=100000)
    with mp.workprec(320):
        for rec in out["returned"] + out["escaped"]:
            _, lo, hi, _, _, _ = rec
            s_lo, s_hi = tracer.source_pair(rec)
            assert hi - lo == s_hi - s_lo  # exact isometry, image vs source


# --------------------------------------------------------------------------
# Perpendicular launches
# --------------------------------------------------------------------------


def test_perpendicular_rational_angle_everything_periodic():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = B.rhombus("pi/4", 1)
    res = B.perpendicular_periodicity(q, 500, 100000)
    assert res["returned"] >= 500 - 2
    assert res["periodic_fraction"] >= 1 - 2 / 500
    assert res["undecided_fraction"] <= 2 / 500
    # retraced samples return again with the identical period signature
    assert res["retrace_checked"] == 5
    assert res["retrace_returned"] == 5
    assert res["retrace_exact"] == 5


def test_perpendicular_irrational_angle_resolves_with_budget():
    q = unit_rhombus()
    res = B.perpendicular_periodicity(q, 200, 20000)
    assert res["undecided_fraction"] <= 0.05
    assert res["periodic_fraction"] + res["undecided_fraction"] == 1.0
    # returned samples return again (position may differ, return must not)
    assert res["retrace_returned"] == res["retrace_checked"] > 0


def test_perpendicular_undecided_shrinks_with_budget():
    q = unit_rhombus()
    fractions = []
    for cap in (10, 50, 300):
        res = B.perpendicular_periodicity(q, 200, cap)
        fractions.append(res["undecided_fraction"])
    assert fractions[0] >= fractions[1] >= fractions[2]
    assert fractions[2] <= 0.05


def test_perpendicular_rejects_non_rhombus():
    p = B.parallelogram("1.0", 2, 1)
    with pytest.raises(ValueError):
        B.perpendicular_periodicity(p, 10, 100)
    q = unit_rhombus()
    with pytest.raises(ValueError):
        B.perpendicular_periodicity(q, 0, 100)
