"""Tests for directional billiards in two-direction polygons.

The independent oracle here is a naive floating-point ray simulator:
side sequences produced by the fixed-point transit-table engine must
match plain geometry for dozens of reflections.  Everything else is
checked against exact conservation laws and closed-form projections.
"""

import collections
import functools
import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import mpf_cos_sin

from billiardlab import billiard as B
from billiardlab.billiard import _LAUNCH, _Tracer, SideClass
from billiardlab.circle import eval_number
from billiardlab.errors import (DegenerateDirection,
                                NotGeneralizedParallelogram, RationalAngle)
from billiardlab.experiments import ExperimentConfig, run_experiment
from billiardlab.fixedpoint import from_fixed, mpf_to_fraction, to_fixed


def unit_rhombus(alpha="1.0"):
    return B.rhombus(alpha, 1)


def staircase(steps: int, precision_bits: int = 256):
    """Non-convex staircase of ``steps`` unit-height slabs, slant angle
    1.0: the bottom slab has base ``steps``, each slab above is one
    shorter at its right end."""
    verts = [("0", "0"), (f"{steps}", "0")]
    for k in range(1, steps):
        verts += [(f"{steps - k + 1}+{k}*cos(1)", f"{k}*sin(1)"),
                  (f"{steps - k}+{k}*cos(1)", f"{k}*sin(1)")]
    verts += [(f"1+{steps}*cos(1)", f"{steps}*sin(1)"),
              (f"{steps}*cos(1)", f"{steps}*sin(1)")]
    return B.polygon_from_vertices(verts, "1.0", precision_bits)


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
            phi = float(mp.make_mpf(tracer._phi(odd, n)))
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


FRAME_POLYGONS = {  # name: (factory of precision_bits, alpha spec)
    "golden_rhombus": (lambda bits: B.rhombus("pi*(sqrt(5)-1)/4", 1, bits),
                       "pi*(sqrt(5)-1)/4"),
    "pi3_rhombus": (lambda bits: B.rhombus("pi/3", 1, bits), "pi/3"),
    "irrational_parallelogram": (
        lambda bits: B.parallelogram("0.7", "sqrt(2)", "pi/3", bits), "0.7"),
    "l_shape": (lambda bits: staircase(2, bits), "1.0"),
    "staircase3": (lambda bits: staircase(3, bits), "1.0"),
}
# directions with a tiny dx, a tiny dy, or a tiny component across the
# slant sides ({alpha} + ...), degenerate at some precisions only, and on
# either side of the guard 2^-(P//2) ({half} = P//2) of the degeneracy test
SPECIAL_THETAS = ("pi/2 + 1e-30", "3*pi/2 - 2**-200", "1e-25", "pi - 1e-60",
                  "{alpha} + 1e-40", "{alpha} + pi - 1e-100", "pi/2",
                  "0.75*2**-{half}", "1.5*2**-{half}",
                  "{alpha} + 0.75*2**-{half}", "{alpha} - 1.5*2**-{half}")


@functools.lru_cache(maxsize=None)
def frame_polygon(name, bits):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the pi/3 rhombus is rational
        return FRAME_POLYGONS[name][0](bits)


def mpf_frame(tracer, odd, n):
    """The frame of a direction as it was built in mpf before its integer
    form, each product rounded at P + 64 bits before its floor, and the
    exact values it floored: ((proj_i, along_i, deltas), (proj, along,
    offsets)) with the exact values as Fractions of the rounded inputs
    (vertices, cos and sin alpha, cos and sin phi); None for a direction
    refused as degenerate."""
    q, P = tracer.q, tracer.P
    phi = tracer._phi(odd, n)
    with mp.workprec(P + 64):
        cos_a, sin_a = mp.cos(q.alpha), mp.sin(q.alpha)
        lower = [min(q.side(i), key=lambda v: v[1])
                 for i in range(len(q.vertices))]
        heights = [vy * cos_a - vx * sin_a if cls is SideClass.SLANT else vy
                   for cls, (vx, vy) in zip(q.side_classes, lower)]
        dx, dy = map(mp.make_mpf, mpf_cos_sin(phi, P + 64, "n"))
        along = {SideClass.BASE: dx, SideClass.SLANT: dx * cos_a + dy * sin_a}
        gtol = mpf(2) ** (-(P // 2))
        if abs(dy) < gtol or abs(dy * cos_a - dx * sin_a) < gtol:
            return None
        nx, ny = -dy, dx
        proj_i = [to_fixed(vx * nx + vy * ny, P) for vx, vy in q.vertices]
        along_i = [to_fixed(vx * dx + vy * dy, P) for vx, vy in q.vertices]
        deltas = [to_fixed(2 * along[cls] * h, P)
                  for cls, h in zip(q.side_classes, heights)]
    F = mpf_to_fraction
    dx, dy, ca, sa = F(dx), F(dy), F(cos_a), F(sin_a)
    verts = [(F(vx), F(vy)) for vx, vy in q.vertices]
    exact_along = {SideClass.BASE: dx, SideClass.SLANT: dx * ca + dy * sa}
    offsets = [2 * exact_along[cls] * (F(vy) * ca - F(vx) * sa
                                       if cls is SideClass.SLANT else F(vy))
               for cls, (vx, vy) in zip(q.side_classes, lower)]
    return ((proj_i, along_i, deltas),
            ([vy * dx - vx * dy for vx, vy in verts],
             [vx * dx + vy * dy for vx, vy in verts], offsets))


def check_frame(poly, bits, theta, odd, n):
    """The integer frame of a direction is the exact floor of each exact
    product of its rounded inputs.  It equals the mpf frame, degenerate or
    not, except where a product lies within 2^-56 ulp of the grid, and
    every side through the origin has offset 0."""
    q = frame_polygon(poly, bits)
    tracer = _Tracer(q, theta.format(alpha=FRAME_POLYGONS[poly][1],
                                     half=bits // 2))
    ref = mpf_frame(tracer, odd, n)
    if ref is None:
        with pytest.raises(DegenerateDirection):
            tracer._frame(odd, n)
        return False
    _, proj_i, spans, _, deltas = tracer._frame(odd, n)
    along_i = [a for _, _, a, _ in spans]
    scale = 1 << bits
    for got, want, exact in zip((proj_i, along_i, deltas), *ref):
        for g, w, x in zip(got, want, exact):
            assert g == math.floor(x * scale)
            near = abs(x * scale - round(x * scale)) < Fraction(1, 1 << 56)
            assert g == w or near
    assert spans == list(zip(proj_i, proj_i[1:] + proj_i[:1],
                             along_i, along_i[1:] + along_i[:1]))
    vs = q.vertices
    for i, delta in enumerate(deltas):
        if (0, 0) in (vs[i], vs[(i + 1) % len(vs)]):
            assert delta == 0
    return True


@given(poly=st.sampled_from(sorted(FRAME_POLYGONS)),
       bits=st.sampled_from([64, 256, 512, 1024]),
       theta=st.one_of(st.floats(0, 6.3).map(repr),
                       st.sampled_from(SPECIAL_THETAS)),
       odd=st.integers(0, 1), n=st.integers(-5, 5))
@settings(max_examples=300, deadline=None)
def test_integer_frames_match_mpf_frames(poly, bits, theta, odd, n):
    check_frame(poly, bits, theta, odd, n)


def test_integer_frames_match_mpf_frames_on_special_directions():
    # Every special direction on every polygon and grid, at level 0 where
    # its tiny component stays tiny: some are degenerate, some not.
    kept = {check_frame(poly, bits, theta, odd, 0)
            for poly in FRAME_POLYGONS for bits in (64, 256, 512, 1024)
            for theta in SPECIAL_THETAS for odd in (0, 1)}
    assert kept == {True, False}


def check_cos_sin(tracer, odd, n, seen):
    """The rotation's cos and sin of a direction, where it answers, and the
    frame's, are mpf_cos_sin's at P + 64 bits, bit for bit; ``seen``
    counts the rotation's answers and its fallbacks."""
    phi = tracer._phi(odd, n)
    want = mpf_cos_sin(phi, tracer.P + 64, "n")
    got = tracer.rotation.cos_sin(phi, -1 if odd else 1, n)
    seen["fallback" if got is None else "rotation"] += 1
    assert got is None or got == want
    try:
        dxy = tracer._frame(odd, n)[3]
    except DegenerateDirection:
        return
    assert tuple(v._mpf_ for v in dxy) == want


def test_frame_cos_sin_equal_mpf_cos_sin():
    # Random and special directions at any level thm2_deep reaches (4.03e14)
    # and beyond, each on a fresh tracer, so its turn is a product of powers.
    seen = collections.Counter()

    @given(poly=st.sampled_from(sorted(FRAME_POLYGONS)),
           bits=st.sampled_from([64, 256, 512, 1024, 4096]),
           theta=st.one_of(st.floats(0, 6.3).map(repr),
                           st.sampled_from(SPECIAL_THETAS)),
           odd=st.integers(0, 1),
           n=st.one_of(st.integers(-300, 300),
                       st.integers(-10 ** 15, 10 ** 15)))
    @settings(max_examples=250, deadline=None)
    def check(poly, bits, theta, odd, n):
        theta = theta.format(alpha=FRAME_POLYGONS[poly][1], half=bits // 2)
        check_cos_sin(_Tracer(frame_polygon(poly, bits), theta), odd, n, seen)
        check_frame(poly, bits, theta, odd, n)

    check()
    assert seen["rotation"] and seen["fallback"]


@pytest.mark.parametrize("bits", [64, 1024, 4096])
def test_frame_cos_sin_equal_mpf_cos_sin_along_level_sweeps(bits):
    # Levels built in sequence, as beams reach them: each turn after the
    # first is its neighbour's times one step, so the error bounds add up.
    seen = collections.Counter()
    tracer = _Tracer(frame_polygon("golden_rhombus", bits), "2.5")
    for start in (0, -403_000_000_000_000):
        for n in range(start, start + 60):
            for odd in (0, 1):
                check_cos_sin(tracer, odd, n, seen)
        for n in range(start - 1, start - 30, -1):
            check_cos_sin(tracer, 1, n, seen)
    assert seen["rotation"] > 3 * seen["fallback"] > 0


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


def _plain_pair_walk(tracer, states, n_cap, reflection_cap):
    """Reference pair stepper without in-place steps: every popped
    state looks its pair table up and goes through ``_split``, and each
    child section state is classified on arrival."""
    out = {"returned": [], "escaped": [], "active": [], "uncertain": []}
    stack = list(states)
    max_refl = 0
    while stack:
        side, lo, hi, n, disp, refl = stack.pop()
        los, his, cells, *_ = tracer._pair(n, side)
        for i, a, b in B._split(los, his, lo, hi):
            if i < 0:
                out["uncertain"].append((side, a, b, n, disp, refl))
                continue
            t, d, k, mid = cells[i]
            if mid:
                assert mid is True  # no degenerate middle on these polygons
                out["uncertain"].append((t, d - b, d - a, k - n, d - disp,
                                         refl + 1))
                continue
            ch = (t, a + d, b + d, n + k, disp + d, refl + 2)
            max_refl = max(max_refl, refl + 2)
            if ch[3] == 0 or tracer.b_mod and ch[3] % tracer.b_mod == 0:
                out["returned"].append(ch)
            elif n_cap is not None and abs(ch[3]) > n_cap:
                out["escaped"].append(ch)
            elif refl + 2 >= reflection_cap:
                out["active"].append(ch)
            else:
                stack.append(ch)
    return out, max_refl


# (n_cap, reflection_cap), loosest first: records learned under one budget
# are clamped or refused under the tighter ones that follow
_BUDGETS = [(None, 100000), (40, 100000), (40, 5000), (None, 4999), (4, 5000),
            (3, 5000), (None, 401), (4, 64), (1, 64), (None, 9), (1, 4)]


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("shape", [("rhombus", "pi*(sqrt(5)-1)/4"),
                                   ("rhombus", "pi/3"),
                                   ("parallelogram", "1.0", 2, 1)])
def test_macro_steps_match_plain_pair_steps(shape, bits):
    # Narrow pieces from every launch pair cell at level 2 run long
    # single-cell chains, up to the 100000-reflection cap on the golden
    # rhombus, so the stepper learns macro-steps and jumps along them.  At
    # the rational angle pieces also start one period higher, where the
    # records learned a period lower meet n_cap 4.  One tracer serves every
    # budget, so records learned under a loose budget meet tighter ones.
    # Outputs must equal, in order, those of plain pair steps, and up to
    # cap 5000 those of single reflections.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = getattr(B, shape[0])(*shape[1:], precision_bits=bits)
    tracer, plain = _Tracer(q, "0.05"), _Tracer(q, "0.05")
    launches = [[(_LAUNCH, mid, min(mid + width, hi), level, 0, 0)]
                for level in sorted({2, 2 + (tracer.b_mod or 0)})
                for lo, hi in zip(*tracer._pair(level, _LAUNCH)[:2])
                for mid in [(lo + hi) // 2]
                for width in (1, 1 << bits // 4, 1 << bits - 20)]
    for n_cap, cap in _BUDGETS:
        for launch in launches:
            walk = _plain_pair_walk(plain, launch, n_cap, cap)
            assert tracer.trace_states(launch, n_cap=n_cap,
                                       reflection_cap=cap) == walk, \
                (launch, n_cap, cap)
            if cap <= 5000:  # the walker itself against single reflections
                want, want_refl = _reflection_by_reflection(plain, launch,
                                                            n_cap, cap)
                assert walk[1] == want_refl
                assert {k: sorted(v) for k, v in walk[0].items()} == \
                    {k: sorted(v) for k, v in want.items()}
    assert tracer.counts["jumps"] > 0
    # No record of an irrational angle spans level 0, where its learning
    # chain would have returned: a jump never needs to test for it.
    if tracer.b_mod is None:
        for key, pair in tracer.tables.items():
            if len(key) == 2:  # a pair table, keyed by (n, side)
                assert all(not key[0] + r[5] <= 0 <= key[0] + r[6]
                           for recs in pair[3] for r in recs)


@pytest.mark.parametrize("shape", [("rhombus", "pi*(sqrt(5)-1)/4"),
                                   ("rhombus", "pi/3"),
                                   ("parallelogram", "1.0", 2, 1)])
def test_over_budget_states_take_one_step(shape):
    # Input states at refl 10, whole launch pair cells (guard cells
    # included) and 5-ulp pieces of them, against budgets below, at and
    # above it.  One already past its budget takes no record in place but
    # goes through _split; each input state still takes one pair step, and
    # the outputs equal, in order, those of plain pair steps.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = getattr(B, shape[0])(*shape[1:], precision_bits=64)
    tracer, plain = _Tracer(q, "0.3"), _Tracer(q, "0.3")
    states = [st for level in (0, 2)
              for lo, hi in zip(*tracer._pair(level, _LAUNCH)[:2])
              for mid in [(lo + hi) // 2]
              for st in [(_LAUNCH, lo, hi, level, 0, 10),
                         (_LAUNCH, mid, mid + 5, level, 0, 10)]]
    for n_cap, cap in itertools.product((None, 1), (2, 4, 10, 12)):
        got = tracer.trace_states(states, n_cap=n_cap, reflection_cap=cap)
        assert got == _plain_pair_walk(plain, states, n_cap, cap), (n_cap, cap)
        assert all(st[5] > 10 for out in got[0].values() for st in out)


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
        # budget-stopped remnants would land here with their mass
        with mp.workprec(320):
            assert rep.uncertain.total_length < mpf("1e-30")


def test_escape_set_report_partition_widths():
    q = unit_rhombus()
    u, r, d = udr(_Tracer(q, "1.2"))
    width = launch_table(q, "1.2").width_exact
    with mp.workprec(320):
        total = u.total_length + r.total_length + d.total_length
        assert 0 <= width - total < mpf("1e-35")
    # each escape set sits inside the cohort it was traced from
    (f_down, _), = B.escape_sets(q, "1.2", [1], 100000)
    (f_up, _), = B.escape_sets(q, "1.2", [1], 100000, variant="up")
    assert f_down.total_length > 0 and f_up.total_length > 0
    assert f_down.is_subset_of(d)
    assert f_up.is_subset_of(u)


def test_escape_set_up_variant_gate_tracks_sine():
    q = unit_rhombus()
    with mp.workprec(300):
        th = mpf("0.3")
        u, _, _ = udr(_Tracer(q, th))
        for f_n, rep in B.escape_sets(q, th, [1, 2, 3], 100000, variant="up"):
            assert f_n.total_length <= rep.gate_width
            bound = abs(mp.sin(th + 2 * rep.N * q.alpha))
            assert rep.gate_width <= bound * mpf("1.000001")
            assert f_n.is_subset_of(u)


def test_escape_set_rational_angle_shallow_levels_empty():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q3 = B.rhombus("pi/3", 1)
    (f_1, _), = B.escape_sets(q3, "0.3", [1], 100000)
    assert f_1.total_length > 0
    for f_n, rep in B.escape_sets(q3, "0.3", [2, 3, 5], 100000):
        assert len(f_n) == 0
        assert f_n.total_length == 0
        with mp.workprec(320):
            assert rep.uncertain.total_length < mpf("1e-30")
    # the up side closes off the same way
    (f_up, _), = B.escape_sets(q3, "0.3", [3], 100000, variant="up")
    assert f_up.total_length == 0


def test_escape_set_budget_exhaustion_reported_not_raised():
    q = unit_rhombus()
    (f_n, rep), = B.escape_sets(q, "0.3", [30], 50)
    # the states a fresh trace stops on the budget are reported uncertain
    tracer = _Tracer(q, "0.3")
    (_, _, d), _ = tracer.partition_states()
    out, _ = tracer.trace_states(d, n_cap=30, reflection_cap=50)
    active = tracer.source_union(out["active"])
    assert active.total_length > 0
    assert active.is_subset_of(rep.uncertain)
    assert not f_n.intersect(rep.uncertain)


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
    out, _ = tracer.trace_states(d if variant == "down" else u,
                                 n_cap=N, reflection_cap=cap)
    uncertain = tracer.source_union(part_slivers + out["uncertain"]).union(
        tracer.source_union(out["active"]))
    return {"f_n": tracer.source_union(out["escaped"]),
            "uncertain": uncertain,
            "j_N": sum(len(out[k]) for k in ("returned", "escaped", "active"))}


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
                    assert {"f_n": f_n, "uncertain": rep.uncertain,
                            "j_N": rep.j_N} == ref, \
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
    # Each pair step and jump looks its next pair table up.  Under a tiny
    # cache limit the tables are evicted again and again mid-chain, and a
    # trace rebuilds exactly the tables that a tracer looking its pair
    # table up at every step rebuilds (the counts below).
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


def test_macro_steps_survive_cache_eviction(monkeypatch):
    # Under a tiny cache limit the tables, and with them the macro-steps
    # learned into them, are evicted again and again mid-trace, while
    # chains inside evicted tables go on jumping along their records.
    # Narrow pieces from the level-2 launch cells of the golden rhombus
    # run long chains, as in test_macro_steps_match_plain_pair_steps.
    q = B.rhombus("pi*(sqrt(5)-1)/4", 1, precision_bits=64)
    plain = _Tracer(q, "0.05")
    launch = [(_LAUNCH, mid, mid + (1 << 44), 2, 0, 0)
              for lo, hi in zip(*plain._pair(2, _LAUNCH)[:2])
              for mid in [(lo + hi) // 2]]
    want = _plain_pair_walk(plain, launch, None, 2000)
    builds = []
    build = _Tracer._build_pair
    monkeypatch.setattr(_Tracer, "_build_pair",
                        lambda self, *key: builds.append(key) or build(self, *key))
    monkeypatch.setattr(B, "_TABLE_CACHE_LIMIT", 5)
    tracer = _Tracer(q, "0.05")
    assert tracer.trace_states(launch, n_cap=None,
                               reflection_cap=2000) == want
    assert len(builds) > len(set(builds))  # evicted tables were rebuilt
    assert tracer.counts["records"] > 0 and tracer.counts["jumps"] > 0


def default_counts(monkeypatch, name):
    """The counts of every tracer of two default runs of ``name``, per run;
    each must count exactly what the other does."""
    tracers = []

    class RecordingTracer(_Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr(B, "_Tracer", RecordingTracer)
    runs = []
    for _ in range(2):
        tracers.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(ExperimentConfig.from_json_obj({}, name))
        runs.append([t.counts for t in tracers])
    assert runs[0] == runs[1], name
    return {k: sum(c[k] for c in runs[0]) for k in runs[0][0]}


def test_counts_add_up_to_the_plain_single_cell_steps(monkeypatch):
    # On each default config the plain steps and the steps that jumps skip
    # add up to the single-cell pair steps of stepping without macro-steps,
    # so each ray of perp_orbits is stepped exactly once, and a second run
    # counts exactly the same.
    for name, steps in [("thm1_cover", 260022), ("thm2_cover", 32387),
                        ("perp_orbits", 4504)]:
        total = default_counts(monkeypatch, name)
        assert total["plain"] + total["jumped"] == steps, name
        assert total["jumps"] > 0 and total["records"] > 0, name


@pytest.mark.parametrize("name, builds", [
    ("thm1_cover", (128, 248, 124, 0)), ("thm2_cover", (53, 96, 46, 0)),
    ("perp_orbits", (8, 15, 7, 0))])
def test_default_build_counts(monkeypatch, name, builds):
    # frames, transit and pair tables built, and cache evictions, summed
    # over a default run's tracers; a second run counts the same
    total = default_counts(monkeypatch, name)
    assert tuple(total[k] for k in ("frames", "transit", "pairs",
                                    "evictions")) == builds


def test_counts_tally_rebuilds_after_evictions(monkeypatch):
    # Under a tiny cache limit every eviction is counted, and so is each
    # frame, transit table and pair table built again after one.
    q = B.rhombus("pi*(sqrt(5)-1)/4", 1, precision_bits=64)
    builds = {"_frame": 0, "_build_table": 0, "_build_pair": 0}

    def counting(name):
        build = getattr(_Tracer, name)

        def counting_build(self, *key):
            if name != "_frame" or key not in self.frames:
                builds[name] += 1
            return build(self, *key)
        return counting_build

    for name in builds:
        monkeypatch.setattr(_Tracer, name, counting(name))
    monkeypatch.setattr(B, "_TABLE_CACHE_LIMIT", 5)
    tracer = _Tracer(q, "0.3")
    lo, hi = tracer.launch_span()
    tracer.trace_states([(_LAUNCH, lo, hi, 0, 0, 0)], n_cap=4,
                        reflection_cap=1000)
    counts = tracer.counts
    assert counts["evictions"] > 0
    assert (counts["frames"], counts["transit"], counts["pairs"]) == (
        builds["_frame"], builds["_build_table"], builds["_build_pair"])
    assert counts["frames"] > len(tracer.frames)


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


def _perp_per_ray(q, samples, reflection_cap):
    """Reference perpendicular periodicity: one trace_states call per ray,
    in sample order, and one per retrace.  Returns the result dict and
    the retraces' starts."""
    with mp.workprec(q.precision_bits + 48):
        theta = (q.alpha / 2 + mp.pi / 2) % (2 * mp.pi)
    tracer = _Tracer(q, theta)
    tracer.require_single_chord()
    dom_lo, dom_hi = tracer.launch_span()
    span = dom_hi - dom_lo

    def trace_ray(c0):
        out, _ = tracer.trace_states([(_LAUNCH, c0, c0 + 1, 0, 0, 0)],
                                     n_cap=None, reflection_cap=reflection_cap)
        status, (st,) = next((k, v) for k, v in out.items() if v)
        return status, st[1], st[5], st[4]

    counts = {"returned": 0, "uncertain": 0, "active": 0}
    first_returns = []
    for j in range(samples):
        status, c, refl, disp = trace_ray(
            dom_lo + ((2 * j + 1) * span) // (2 * samples))
        counts[status] += 1
        if status == "returned" and len(first_returns) < 5:
            first_returns.append((c, refl, disp))
    retrace_returned = retrace_exact = 0
    for c_ret, refl1, disp1 in first_returns:
        status2, _, refl2, disp2 = trace_ray(c_ret)
        if status2 == "returned":
            retrace_returned += 1
            retrace_exact += (refl2, disp2) == (refl1, disp1)
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
    }, [c for c, _, _ in first_returns]


@pytest.mark.parametrize("alpha, side, samples, caps", [
    ("pi/4", 1, 2000, (100000,)),  # the perp_orbits default
    # the budget runs out, at the cap and at its double (cap_doubling)
    ("pi*(sqrt(5)-1)/4", 1, 2000, (500, 1000)),
    # across batch boundaries, with a vertex-guard hit
    ("1.0", 1, 3001, (100000,)),
    ("0.7", 2, 2000, (3000,))])
def test_perpendicular_cohorts_match_per_ray_traces(monkeypatch, alpha, side,
                                                    samples, caps):
    # The rays go in batches, one trace_states call each, and the retraces
    # in one more call; these start where the first returns in sample
    # order came back, as one ray at a time would pick them.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = B.rhombus(alpha, side)
    want = [_perp_per_ray(q, samples, cap) for cap in caps]
    calls = []
    trace_states = _Tracer.trace_states

    def recording(self, states, **kwargs):
        calls.append([st[1] for st in states])
        return trace_states(self, states, **kwargs)

    monkeypatch.setattr(_Tracer, "trace_states", recording)
    for cap, (want_res, want_starts) in zip(caps, want):
        calls.clear()
        got = B.perpendicular_periodicity(q, samples, cap)
        assert got == want_res, cap
        assert got["undecided_fraction"] > 0 or alpha == "pi/4"
        assert len(calls) == -(-samples // B._PERP_BATCH) + 1
        assert calls[-1] == want_starts


def test_perpendicular_cohorts_raise_on_degenerate_directions():
    # at alpha = pi/5 a traced beam reaches a direction parallel to a side
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = B.rhombus("pi/5", 1)
    with pytest.raises(DegenerateDirection):
        B.perpendicular_periodicity(q, 2000, 40)
    with pytest.raises(DegenerateDirection):
        _perp_per_ray(q, 2000, 40)


def test_perpendicular_rejects_non_rhombus():
    p = B.parallelogram("1.0", 2, 1)
    with pytest.raises(ValueError):
        B.perpendicular_periodicity(p, 10, 100)
    q = unit_rhombus()
    with pytest.raises(ValueError):
        B.perpendicular_periodicity(q, 0, 100)
