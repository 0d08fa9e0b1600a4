"""Approximation scans against brute-force oracles and the ubiquity
deficiency functional."""

import warnings
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from billiardlab import dioph
from billiardlab.circle import CirclePoint
from billiardlab.dioph import (
    _grid,
    _hits,
    approx_solutions,
    minkowski_solutions,
    ubiquity_deficiency,
    ubiquity_rho,
)
from billiardlab.errors import OrbitPoint, RationalRotation
from billiardlab.fixedpoint import (from_fixed, mpf_to_fraction, power_floor,
                                    to_fixed)
from billiardlab.intervals import circle_pairs
from billiardlab.rng import Generator

GOLDEN = "(sqrt(5)-1)/2"


def exact_distance(t, omega, p):
    """||t + p*omega|| of the stored values, as an exact Fraction."""
    x = (mpf_to_fraction(t.value) + p * mpf_to_fraction(omega.value)) % 1
    return min(x, 1 - x)


def brute_approx(t, omega, mu, m, l, p_max, sign):
    """Direct mpf scan: the oracle for small p_max."""
    out = []
    with mp.workprec(320):
        tv, wv = t.value, omega.value
        for p_abs in range(1, p_max + 1):
            p = sign * p_abs
            if p % m != l:
                continue
            x = tv + p * wv
            x = x - mp.floor(x)
            d = min(x, 1 - x)
            if d < mpf(p_abs) ** (-mpf(mu)):
                out.append(p)
    return out


@pytest.mark.parametrize("mu,m,l,sign", [
    pytest.param(1.2, 1, 0, 1, id="1.2-1-0-+"),
    pytest.param(1.2, 1, 0, -1, id="1.2-1-0--"),
    pytest.param(2.0, 2, 1, 1, id="2.0-2-1-+"),
    pytest.param(1.01, 3, 2, -1, id="1.01-3-2--"),
    pytest.param(0.8, 2, 0, 1, id="0.8-2-0-+"),
])
def test_approx_solutions_match_brute_force(mu, m, l, sign):
    t = CirclePoint.make("1/pi")
    g = CirclePoint.make(GOLDEN)
    got = approx_solutions(t, g, mu, m, l, 2000, sign)
    assert [s.p for s in got] == brute_approx(t, g, mu, m, l, 2000, sign)
    for s in got:
        assert s.p % m == l
        assert abs(s.p) <= 2000
        assert s.distance < mpf(abs(s.p)) ** (-mpf(mu))
    assert [abs(s.p) for s in got] == sorted(abs(s.p) for s in got)


def test_planted_solution_near_1e9_is_found():
    # ||t + p0*omega|| = 1/(8*p0) by construction.  Near p = 10^9 the float64
    # error of p*omega (~3.5e-8) exceeds any fixed prefilter margin, so a
    # float scan loses such solutions; the exact enumeration may not.
    g = CirclePoint.make(GOLDEN, 256)
    p0 = 987654324
    with mp.workprec(256 + 64):
        x = -p0 * g.value
        t = CirclePoint(x - mp.floor(x) + mpf(1) / (8 * p0), 256)
    m = 10007
    got = approx_solutions(t, g, 1.0, m, p0 % m, 10**9, 1)
    mink = minkowski_solutions(t, g, 10**9)
    assert p0 in [s.p for s in got]
    assert p0 in [s.p for s in mink]
    for s in got + mink:
        assert mpf_to_fraction(s.distance) == exact_distance(t, g, s.p)
    for s in got:
        assert s.p % m == p0 % m and s.distance < mpf(s.p) ** -1
    for s in mink:
        assert s.distance < mpf(1) / (4 * abs(s.p))


@pytest.mark.parametrize("spec,bits", [
    (0.1, 256), (0.7, 64), ("1/pi", 256), (GOLDEN, 64), ("pi*1e-80", 256),
    ("1e-100", 512), ("1e-1000", 64), (0, 256),
])
def test_grid_is_exact(spec, bits):
    t = CirclePoint.make(spec, bits)
    g = CirclePoint.make(GOLDEN, bits)
    T, W, E = _grid(t, g)
    ft, fg = mpf_to_fraction(t.value), mpf_to_fraction(g.value)
    assert Fraction(T, 1 << E) == ft
    assert Fraction(W, 1 << E) == fg
    assert 0 <= T < 1 << E and 0 <= W < 1 << E
    # The scans work on E-bit integers: a tiny value v widens the grid by
    # its log2(1/v), and by at most bits + 15 beyond that.
    log2_min = min(f.numerator.bit_length() - f.denominator.bit_length()
                   for f in (ft, fg) if f)
    assert -log2_min <= E <= bits + 15 - log2_min


def test_grid_of_random_floats_is_at_most_53_bits():
    rng = Generator(7)
    for _ in range(200):
        t = CirclePoint.make(rng.random(), 256)
        g = CirclePoint.make(rng.random(), 256)
        assert _grid(t, g)[2] <= 53


@pytest.mark.parametrize("bits,p_max,sign,m,residue,span", [
    pytest.param(20, 3000, 1, 1, 0, 2 ** 18, id="1-1-0"),
    pytest.param(20, 3000, -1, 3, 2, 2 ** 18, id="-1-3-2"),
    pytest.param(20, 3000, 1, 5, 0, 2 ** 18, id="1-5-0"),
    # 8 bits: up to |p| = 127 a block's allowance covers the whole circle,
    # while an index's own allowance does so only up to |p| = 64
    pytest.param(8, 300, 1, 1, 0, 2 ** 13, id="whole-circle-blocks"),
    # fifteen bit-length blocks, the first ones holding no index at all;
    # the allowance 2^24/|p| finds two hits, a quarter of it none
    pytest.param(24, 20000, -1, 7, 4, 2 ** 24, id="many-blocks-m7"),
])
def test_candidates_are_exactly_the_fixed_point_allowance_hits(
        bits, p_max, sign, m, residue, span):
    # Coarse points on the 2^-bits grid keep the allowance span/|p| wide, so
    # the hit walk must return exactly the indices, and the distances, that
    # a direct check on the grid finds.
    scale = 1 << bits
    T = to_fixed(CirclePoint.make("1/pi").value, bits)
    W = to_fixed(CirclePoint.make(GOLDEN).value, bits)

    def allow(p_abs):
        return span // p_abs

    indices = [p for p in range(1, p_max + 1) if p % m == residue]
    expected = []
    for p_abs in indices:
        x = (T + sign * p_abs * W) % scale
        if min(x, scale - x) <= allow(p_abs):
            expected.append((p_abs, min(x, scale - x)))
    got = list(_hits(T, W, bits, sign, m, residue, p_max, allow))
    assert got == expected
    assert 0 < len(expected) < len(indices)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("mu", [0.9, 2.0, 1 / 3])
def test_power_allowance_bounds_full_precision_threshold(mu, bits):
    # The scan's threshold, power_floor, must sit at most one ulp below the
    # threshold as a much finer power rounds it (approx_solutions' allowance
    # power_floor + 1 absorbs that ulp), never above it, and never grow
    # with |p|.
    ps = set(range(1, 3000))
    for k in range(12, 30):
        ps.update((2 ** k - 1, 2 ** k, 2 ** k + 1, 3 ** (k * 2 // 3) + k))
    for j in range(1, 10 ** 9, 7_654_321):
        ps.update(range(j, j + 3))
    ps.add(10 ** 9)
    prev = None
    for p_abs in sorted(ps):
        with mp.workprec(bits + 256):
            ref = to_fixed(mpf(p_abs) ** (-mpf(mu)), bits)
        new = power_floor(p_abs, mpf(mu), bits)
        assert ref - 1 <= new <= ref, p_abs
        assert prev is None or new <= prev, p_abs
        prev = new


def test_approx_exact_hit_on_orbit():
    g = CirclePoint.make(GOLDEN)
    sols = approx_solutions(g, g, 2.0, 1, 0, 50, -1)
    assert any(s.p == -1 and s.distance == 0 for s in sols)


def test_approx_homogeneous_case_reduces_to_homogeneous_solutions():
    # t = 0: exactly the p with ||p*omega|| < p^(-2)
    g = CirclePoint.make(GOLDEN)
    t0 = CirclePoint.make(0)
    sols = approx_solutions(t0, g, 2.0, 1, 0, 100, 1)
    assert [s.p for s in sols] == brute_approx(t0, g, 2.0, 1, 0, 100, 1)
    # golden is badly approximable: only p = 1, 2 beat the p^(-2) threshold
    assert [s.p for s in sols] == [1, 2]


def test_approx_solutions_validation():
    t, g = CirclePoint.make("1/pi"), CirclePoint.make(GOLDEN)
    with pytest.raises(ValueError):
        approx_solutions(t, g, 0.0, 1, 0, 100, 1)
    with pytest.raises(ValueError):  # below the validated mu range
        approx_solutions(t, g, 2 ** -20, 1, 0, 100, 1)
    with pytest.raises(ValueError):
        approx_solutions(t, g, 2.0, 2, 2, 100, 1)
    with pytest.raises(ValueError):
        approx_solutions(t, g, 2.0, 2, 0, 1, 1)
    for sign in ("x", "pos", "positive", "neg", "negative",
                 "+", "-", 0, 2, -2, None):
        with pytest.raises(ValueError):
            approx_solutions(t, g, 2.0, 1, 0, 100, sign)


def test_minkowski_nonempty_at_scan_scale():
    t = CirclePoint.make("1/pi")
    g = CirclePoint.make(GOLDEN)
    sols = minkowski_solutions(t, g, 10**6)
    assert len(sols) >= 1
    for s in sols:
        assert 1 <= abs(s.p) <= 10**6
        assert s.distance < mpf(1) / (4 * abs(s.p))


@pytest.mark.parametrize("t_spec", ["1/pi", "sqrt(3)-1", "0.123456789"])
def test_minkowski_matches_brute_force_both_signs(t_spec):
    t = CirclePoint.make(t_spec)
    g = CirclePoint.make(GOLDEN)
    got = minkowski_solutions(t, g, 2000)
    expected = []
    with mp.workprec(320):
        for p in list(range(1, 2001)) + list(range(-1, -2001, -1)):
            x = t.value + p * g.value
            x = x - mp.floor(x)
            if min(x, 1 - x) < mpf(1) / (4 * abs(p)):
                expected.append(p)
    assert [s.p for s in got] == expected
    assert any(p < 0 for p in expected) and any(p > 0 for p in expected)
    for s in got:
        assert mpf_to_fraction(s.distance) == exact_distance(t, g, s.p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minkowski_on_random_floats_matches_brute_force(seed):
    # The float pairs of minkowski_scan, scanned on their 2^-53 grid.
    rng = Generator(seed)
    for _ in range(2):
        t = CirclePoint.make(rng.random(), 256)
        g = CirclePoint.make(rng.random(), 256)
        got = minkowski_solutions(t, g, 2000)
        expected = []
        with mp.workprec(320):
            for p in list(range(1, 2001)) + list(range(-1, -2001, -1)):
                x = t.value + p * g.value
                x = x - mp.floor(x)
                if min(x, 1 - x) < mpf(1) / (4 * abs(p)):
                    expected.append(p)
        assert [s.p for s in got] == expected
        assert any(p < 0 for p in expected) and any(p > 0 for p in expected)
        for s in got:
            assert mpf_to_fraction(s.distance) == exact_distance(t, g, s.p)


def planted_orbit_pair(W, E, p0, d, bits):
    """(t, omega) on the 2^-E grid with omega = W/2^E and
    t + p0*omega = d/2^E (mod 1)."""
    g = CirclePoint(from_fixed(W, E), bits)
    t = CirclePoint(from_fixed((d - p0 * W) % (1 << E), E), bits)
    assert _grid(t, g)[2] <= E
    return t, g


def test_minkowski_orbit_floor_is_pinned_on_a_fine_grid():
    # E = 64 >= bits // 2 = 32: a distance of exactly 2^-32 is a solution,
    # one grid step below it puts t on the orbit.
    bits, E, p0 = 64, 64, 1000
    W = to_fixed(CirclePoint.make(GOLDEN).value, E)
    t, g = planted_orbit_pair(W, E, p0, 1 << (E - bits // 2), bits)
    sols = minkowski_solutions(t, g, p0)
    assert [s.distance for s in sols if s.p == p0] == [mpf(2) ** -32]
    t, g = planted_orbit_pair(W, E, p0, (1 << (E - bits // 2)) - 1, bits)
    with pytest.raises(OrbitPoint, match=f"t \\+ {p0}\\*omega"):
        minkowski_solutions(t, g, p0)


def test_minkowski_threshold_is_strict_on_the_grid():
    # p0 = 2^10 puts 1/(4*p0) = 2^-12 on the grid: a distance of exactly
    # 2^-12 is no solution, one grid step below it is one.
    bits, E, p0 = 64, 64, 1 << 10
    W = to_fixed(CirclePoint.make(GOLDEN).value, E)
    for d, solves in (((1 << (E - 12)) - 1, True), (1 << (E - 12), False)):
        t, g = planted_orbit_pair(W, E, p0, d, bits)
        sols = minkowski_solutions(t, g, p0)
        assert (p0 in [s.p for s in sols]) == solves


def test_minkowski_orbit_floor_is_pinned_on_a_coarse_grid():
    # E = 31 < bits // 2 = 32: the least nonzero grid distance 2^-31 lies
    # above the floor 2^-32 and is a solution; only distance 0 is an orbit
    # point.
    bits, E, p0 = 64, 31, 100
    W = to_fixed(CirclePoint.make(GOLDEN).value, E)
    t, g = planted_orbit_pair(W, E, p0, 1, bits)
    sols = minkowski_solutions(t, g, p0)
    assert [s.distance for s in sols if s.p == p0] == [mpf(2) ** -31]
    t, g = planted_orbit_pair(W, E, p0, 0, bits)
    with pytest.raises(OrbitPoint, match=f"t \\+ {p0}\\*omega"):
        minkowski_solutions(t, g, p0)


def test_minkowski_orbit_point_raises():
    with pytest.raises(OrbitPoint):
        minkowski_solutions(CirclePoint.make("0.5"), CirclePoint.make("0.5"), 100)


def test_minkowski_rational_rotation_warns():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sols = minkowski_solutions(CirclePoint.make("0.25"), CirclePoint.make("0.5"), 100)
    assert any(w.category is RationalRotation for w in rec)
    assert sols == []


def test_minkowski_orbit_test_sees_negative_p():
    # t = 3*omega mod 1 is hit by p = -3 only; the orbit guard must fire.
    g = CirclePoint.make(GOLDEN)
    with mp.workprec(g.precision_bits + 16):
        t = CirclePoint((3 * g.value) % 1, g.precision_bits)
    with pytest.raises(OrbitPoint):
        minkowski_solutions(t, g, 100)


def test_minkowski_orbit_point_beyond_quarter_threshold():
    # At p0 = 2^31 + 1 the orbit floor 2^-32 exceeds 1/(4*p0): the orbit
    # test must not be limited to the Minkowski allowance.
    g = CirclePoint.make(GOLDEN, 64)
    p0 = 2 ** 31 + 1
    with mp.workprec(160):
        t = CirclePoint(-p0 * g.value, 64)
    with pytest.raises(OrbitPoint):
        minkowski_solutions(t, g, p0)


# -- ubiquity ----------------------------------------------------------------


def grid_arcs(monkeypatch, build, *args):
    """The (center, half) grid arcs that build(*args) hands to circle_pairs,
    in call order."""
    calls = []

    def spy(center, half, bits):
        calls.append((center, half))
        return circle_pairs(center, half, bits)

    monkeypatch.setattr(dioph, "circle_pairs", spy)
    build(*args)
    return calls


def test_ubiquity_arcs_lie_inside_their_real_arcs(monkeypatch):
    bits, m, l, N, K, eps = 256, 2, 1, 3, 0.01, 0.05
    g = CirclePoint.make(GOLDEN)
    arcs = grid_arcs(monkeypatch, ubiquity_deficiency, g, m, l, N, K, eps)
    rho = ubiquity_rho(m, l, N, K, eps, bits)
    with mp.workprec(bits + 32):
        real = [((g.value + i) / (k * m + l), rho)
                for k in range(N, 0, -1) for i in range(k * m + l)]
    assert len(arcs) == len(real)
    for (c, h), (rc, rh) in zip(arcs, real):
        rc, rh = mpf_to_fraction(rc), mpf_to_fraction(rh)
        assert rc - rh <= Fraction(c - h, 1 << bits)
        assert Fraction(c + h, 1 << bits) <= rc + rh


@pytest.mark.parametrize("spec,bits", [(GOLDEN, 256), ("1/pi", 64)])
def test_ubiquity_centers_are_exact_floors(monkeypatch, spec, bits):
    m, l, N, K, eps = 3, 2, 4, 0.001, 0.05
    w = CirclePoint.make(spec, bits)
    arcs = grid_arcs(monkeypatch, ubiquity_deficiency, w, m, l, N, K, eps)
    wf = mpf_to_fraction(w.value)
    exact = [((wf + i) / (k * m + l) * (1 << bits)).__floor__()
             for k in range(N, 0, -1) for i in range(k * m + l)]
    assert [c for c, _ in arcs] == exact


def test_ubiquity_degenerate_single_point():
    # N=1, m=1, l=0: one point with radius rho(1) = K*log(1)^...=0
    g = CirclePoint.make(GOLDEN)
    d = ubiquity_deficiency(g, 1, 0, 1, 1.0, 0.05)
    assert float(d) == pytest.approx(1.0)


def test_ubiquity_small_case_measure_arithmetic():
    # N=1, m=2, l=1: q=3 equally spaced points, radius rho
    g = CirclePoint.make(GOLDEN)
    rho = ubiquity_rho(2, 1, 1, 0.001, 0.05)
    d = ubiquity_deficiency(g, 2, 1, 1, 0.001, 0.05)
    with mp.workprec(80):
        expected = 1 - 3 * 2 * rho  # disjoint neighborhoods
        assert abs(d - expected) < mpf(2) ** -40


def test_ubiquity_monotone_in_K():
    g = CirclePoint.make(GOLDEN)
    ds = [float(ubiquity_deficiency(g, 2, 1, 3, K, 0.05)) for K in (0.001, 0.01, 0.1)]
    assert ds[0] >= ds[1] >= ds[2]


def test_ubiquity_silver_fixture_vanishes():
    s = CirclePoint.make("sqrt(2)-1")
    for N in (100, 1000, 10**4):
        assert float(ubiquity_deficiency(s, 2, 1, N, 1.0, 0.05)) == 0.0


def test_ubiquity_deterministic():
    g = CirclePoint.make(GOLDEN)
    a = ubiquity_deficiency(g, 2, 1, 5, 0.01, 0.05)
    b = ubiquity_deficiency(g, 2, 1, 5, 0.01, 0.05)
    assert a == b
