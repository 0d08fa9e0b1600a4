"""Circle points: validated continued fractions for the classical
fixtures, exact three-distance gaps, rational-angle detection and the
angle-to-circle map."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from billiardlab.circle import (
    CirclePoint,
    ContinuedFractionExpansion,
    angle_point,
    continued_fraction,
    detect_rational_angle,
    eval_number,
    three_distance_bounds,
)
from billiardlab.billiard import rhombus
from billiardlab.errors import DepthExceeded, RationalAngle, RationalDetected
from billiardlab.fixedpoint import from_fixed, mpf_to_fraction, to_fixed

GOLDEN = "(sqrt(5)-1)/2"
SILVER = "sqrt(2)-1"


# -- number specs ----------------------------------------------------------

# Every expression form the README documents, with the same operations
# spelled out directly in mpmath at eval_number's working precision.
README_FORMS = [
    ("0.3", lambda: mpf(3) / 10),
    ("1/3", lambda: mpf(1) / 3),
    ("pi*(sqrt(5)-1)/4", lambda: mp.pi * (mp.sqrt(5) - 1) / 4),
    ("(sqrt(5)-1)/2", lambda: (mp.sqrt(5) - 1) / 2),
    ("sqrt(2)-1", lambda: mp.sqrt(2) - 1),
    ("pi/3", lambda: mp.pi / 3),
    ("1.4/pi", lambda: mpf("1.4") / mp.pi),
    ("-pi/7", lambda: -mpf(mp.pi) / 7),
    ("2**0.5", lambda: mpf(2) ** mpf("0.5")),
]


@pytest.mark.parametrize("spec,direct", README_FORMS, ids=[s for s, _ in README_FORMS])
@pytest.mark.parametrize("bits", [64, 256])
def test_eval_number_readme_forms(spec, direct, bits):
    with mp.workprec(bits + 16):
        expected = direct()
    assert eval_number(spec, bits) == expected


@pytest.mark.parametrize("spec", [
    "().__class__.__base__.__subclasses__().__len__()",  # attribute access
    "(1).real",
    "[1, 2][0]",                                          # subscript
    "pi[0]",
    "(lambda: 1)()",                                      # lambda
    "lambda: 1",
    "x + 1",                                              # unknown names
    "__import__('os')",
    "mpf(1)",                                             # no injected mpf
    "mpf('0.3')",
    "sqrt",                                               # function as a value
    "pi(3)",                                              # constant as a call
    "sqrt(x=2)",
    "7 // 2",
    "'0.3'",
    "2 +",
    "sqrt(-2)",                                           # not a finite real
    "log(-1)",
    "(-8)**(1/3)",
    "log(0)",
    "1/0",                                                # division by zero
    "0**-1",
    "sqrt(1,2)",                                          # wrong arity
    "sqrt()",
    "exp(1e100000)",                                      # magnitude >= 2^1024
    "sin(1e100000)",
    "10**10**10",
    "2**1025",
    "1e100000000",
])
def test_eval_number_rejects_everything_else(spec):
    with pytest.raises(ValueError):
        eval_number(spec, 64)


def test_eval_number_rejects_deep_nesting():
    for spec in ("-" * 5000 + "1", "1" + "+1" * 20000):
        with pytest.raises(ValueError):
            eval_number(spec, 64)


# -- continued fractions ---------------------------------------------------

def test_golden_expansion():
    cf = continued_fraction(CirclePoint.make(GOLDEN), max_depth=10)
    assert cf.partial_quotients == [1] * 10
    assert [q for _, q in cf.convergents] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert cf.validated_depth == 10


def test_silver_expansion():
    cf = continued_fraction(CirclePoint.make(SILVER), max_depth=6)
    assert cf.partial_quotients == [2] * 6
    assert [q for _, q in cf.convergents] == [2, 5, 12, 29, 70, 169]


@pytest.mark.parametrize("fixture", [GOLDEN, SILVER, "1/pi", "log(2)"])
def test_convergent_recurrence_and_quality(fixture):
    point = CirclePoint.make(fixture)
    cf = continued_fraction(point, max_depth=40)
    assert cf.validated_depth == 40
    ps = [p for p, _ in cf.convergents]
    qs = [q for _, q in cf.convergents]
    a = cf.partial_quotients
    for i in range(2, len(qs)):
        assert qs[i] == a[i] * qs[i - 1] + qs[i - 2]
        assert ps[i] == a[i] * ps[i - 1] + ps[i - 2]
    assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))
    with mp.workprec(300):
        w = point.value
        for i, (p, q) in enumerate(cf.convergents):
            assert math.gcd(p, q) == 1
            assert abs(w - mpf(p) / q) < mpf(1) / (q * q)
            if i + 1 < len(qs):
                assert abs(w - mpf(p) / q) < mpf(1) / (q * qs[i + 1])
            # q * ||q*omega|| < 1
            x = (q * w) % 1
            assert q * min(x, 1 - x) < 1


def test_validated_depth_honest_across_precisions():
    lo = continued_fraction(CirclePoint.make(GOLDEN, 64), max_depth=1000)
    hi = continued_fraction(CirclePoint.make(GOLDEN, 256), max_depth=1000)
    assert lo.validated_depth < hi.validated_depth
    # the low-precision prefix must agree with the high-precision run
    assert hi.partial_quotients[: lo.validated_depth] == lo.partial_quotients


@pytest.mark.parametrize("spec", ["1/3", "0.25", "2/7", "0", "5/13"])
def test_rational_inputs_detected(spec):
    with pytest.raises(RationalDetected):
        continued_fraction(CirclePoint.make(spec), max_depth=64)


def test_detect_rational_angle():
    with mp.workprec(272):
        third = CirclePoint((mp.pi / 3) / mp.pi, 256)
        irr = CirclePoint(1 / mp.pi, 256)
    assert detect_rational_angle(third) == Fraction(1, 3)
    assert detect_rational_angle(CirclePoint((mp.pi / 4) / mp.pi, 256)) == Fraction(1, 4)
    assert detect_rational_angle(irr) is None
    assert detect_rational_angle(CirclePoint(0, 256)) == 0


def detect_rational_angle_reference(point):
    """detect_rational_angle as first written: the two-endpoint validated
    continued fraction on every call, then, if it detects rationality, a
    second single-endpoint Euclid run cut at the quotient blow-up."""
    bits = point.precision_bits
    w = to_fixed(point.value, bits)
    if w == 0:
        return Fraction(0)
    try:
        continued_fraction(point, max_depth=256)
    except RationalDetected:
        max_den = 1 << 24
        cut = max(1 << (bits // 4), 2 * max_den)
        quotients = []
        a, b = 1 << bits, w
        while b > 0:
            q, r = divmod(a, b)
            if q >= cut:
                break
            quotients.append(q)
            a, b = b, r
        p_prev, q_prev, p_cur, q_cur = 1, 0, 0, 1
        for q in quotients:
            p_prev, p_cur = p_cur, q * p_cur + p_prev
            q_prev, q_cur = q_cur, q * q_cur + q_prev
        if q_cur == 1 and p_cur == 0:
            return None
        if q_cur > max_den:
            return None
        return Fraction(p_cur, q_cur)
    return None


@given(data=st.data(), bits=st.integers(64, 1024))
@settings(max_examples=300, deadline=None)
def test_detect_rational_angle_matches_reference(data, bits):
    # grid points w/2^P: uniform ones, and ones within 2^k grid units of
    # p/q for denominators on both sides of the 2^24 cap
    scale = 1 << bits
    if data.draw(st.booleans()):
        w = data.draw(st.integers(0, scale - 1))
    else:
        q = data.draw(st.one_of(st.integers(1, 100), st.integers(1 << 23, 1 << 26)))
        p = data.draw(st.integers(0, q))
        k = data.draw(st.one_of(st.integers(0, 2), st.integers(0, bits // 2 + 8)))
        w = (p * scale // q + data.draw(st.integers(-(1 << k), 1 << k))) % scale
    point = CirclePoint(from_fixed(w, bits), bits)
    assert to_fixed(point.value, bits) == w
    assert detect_rational_angle(point) == detect_rational_angle_reference(point)


# -- three-distance gaps ---------------------------------------------------

def brute_gap(w: mpf, n: int) -> mpf:
    """min over n <= p1 < p2 <= 2n of the circle distance between p1*w and
    p2*w, in plain mpf arithmetic at the current precision."""
    pts = [(p * w) % 1 for p in range(n, 2 * n + 1)]
    best = mpf(1)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = abs(pts[i] - pts[j])
            best = min(best, d, 1 - d)
    return best


@pytest.mark.parametrize("fixture,r", [(GOLDEN, 4), (GOLDEN, 9), (SILVER, 3)])
def test_gap_matches_brute_force(fixture, r):
    point = CirclePoint.make(fixture)
    cf = continued_fraction(point, max_depth=12)
    gap = three_distance_bounds(cf, r)[0]
    with mp.workprec(280):
        assert abs(gap - brute_gap(point.value, cf.denominator(r))) < mpf(2) ** -240


def test_gap_single_pair_case():
    cf = continued_fraction(CirclePoint.make(GOLDEN), max_depth=5)
    assert cf.denominator(1) == 1
    gap = three_distance_bounds(cf, 1)[0]
    point = CirclePoint.make(GOLDEN)
    with mp.workprec(280):
        assert abs(gap - brute_gap(point.value, 1)) < mpf(2) ** -240


def test_gap_equals_smallest_orbit_distance_up_to_2n():
    # On [n, 2n] the minimal pairwise distance is realized by a difference
    # d = p2 - p1 <= n, so it equals min_{1<=d<=n} ||d*omega||.
    point = CirclePoint.make(GOLDEN)
    cf = continued_fraction(point, max_depth=16)
    for r in (2, 5, 8, 11):
        n = cf.denominator(r)
        gap = three_distance_bounds(cf, r)[0]
        orbit = from_fixed(cf.orbit_gap(n), point.precision_bits)
        with mp.workprec(280):
            assert abs(gap - orbit) < mpf(2) ** -240


def test_gap_true_lower_bound_from_convergents():
    # ||q_r * omega|| > 1/(q_{r+1} + q_r) is the sharp classical bound; the
    # [n, 2n] minimum gap inherits it.
    point = CirclePoint.make(GOLDEN)
    cf = continued_fraction(point, max_depth=20)
    for r in range(1, 15):
        n = cf.denominator(r)
        gap = three_distance_bounds(cf, r)[0]
        assert gap > mpf(1) / (cf.denominator(r + 1) + n)


def sorted_gap(cf, r: int) -> mpf:
    """Reference: the [n, 2n] minimum gap, n = q_r, by sorting the n+1
    fixed-point orbit points and taking the smallest neighbour gap."""
    n = cf.denominator(r)
    bits = cf.omega.precision_bits
    scale = 1 << bits
    w = to_fixed(cf.omega.value, bits)
    points = sorted((p * w) % scale for p in range(n, 2 * n + 1))
    best = min(b - a for a, b in zip(points, points[1:]))
    best = min(best, scale - points[-1] + points[0])
    if best > scale // 2:
        best = scale - best
    return from_fixed(best, bits)


def test_gap_identity_exact_on_default_audit_rows():
    # The rows of three_distance_audit at its defaults: both default omegas
    # at 256 bits, every r < validated depth with q_r <= 10^5.
    rows = 0
    for spec in (GOLDEN, SILVER):
        cf = continued_fraction(CirclePoint.make(spec, 256), max_depth=512)
        for r in range(1, cf.validated_depth):
            if cf.denominator(r) > 100000:
                break
            assert three_distance_bounds(cf, r)[0] == sorted_gap(cf, r), (spec, r)
            rows += 1
    assert rows == 37


@pytest.mark.parametrize("bits", [64, 256, 512])
@pytest.mark.parametrize("spec", [GOLDEN, SILVER, "e-2"])
def test_three_distance_bounds_verdicts_match_rounded_comparison(spec, bits):
    # the integer verdicts agree with comparing the gap against each bound
    # rounded at bits + 16, and with the exact rational comparison
    cf = continued_fraction(CirclePoint.make(spec, bits), max_depth=2048)
    for r in range(1, cf.validated_depth + 1):
        q = cf.denominator(r)
        gap, claimed, claimed_ok, classical, classical_ok = \
            three_distance_bounds(cf, r)
        assert gap == from_fixed(cf.orbit_gap(q), bits)
        exact = mpf_to_fraction(gap)
        with mp.workprec(bits + 16):
            assert claimed == mpf(1) / (q + 2)
            assert claimed_ok is bool(gap >= claimed)
            assert claimed_ok is (exact >= Fraction(1, q + 2))
            if r == cf.validated_depth:
                assert classical is None and classical_ok is None
                continue
            q_next = cf.denominator(r + 1)
            assert classical == mpf(1) / (q_next + q)
            assert classical_ok is bool(gap >= classical)
            assert classical_ok is (exact >= Fraction(1, q_next + q))


def _first_terms(spec, bits):
    """Expansion of spec at bits, or, where continued_fraction finds spec
    rational at working precision (0.1), the fixed-point value's own first
    Euclid step: quotient a1 = scale // w and remainder scale % w."""
    point = CirclePoint.make(spec, bits)
    try:
        return continued_fraction(point, max_depth=4)
    except RationalDetected:
        w = to_fixed(point.value, bits)
        a1, b1 = divmod(1 << bits, w)
        return ContinuedFractionExpansion(point, w, [a1], [(1, a1)], [b1], 1)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("spec", ["0.1", "sqrt(2)/20", "1/pi"])
def test_min_orbit_distance_matches_brute_force(spec, bits):
    # below q_1 = a_1 the minimum is ||omega|| itself (the q_0 = 1 term)
    cf = _first_terms(spec, bits)
    scale = 1 << bits
    w = to_fixed(cf.omega.value, bits)
    best = scale
    for n in range(1, cf.denominator(1) + 6):
        d = (n * w) % scale
        best = min(best, d, scale - d)
        assert cf.orbit_gap(n) == best, n


def test_min_orbit_distance_needs_positive_n():
    cf = continued_fraction(CirclePoint.make(GOLDEN), max_depth=5)
    with pytest.raises(ValueError):
        cf.orbit_gap(0)


def test_gap_depth_guard():
    cf = continued_fraction(CirclePoint.make(GOLDEN), max_depth=5)
    with pytest.raises(DepthExceeded):
        three_distance_bounds(cf, 6)


@given(data=st.data(), bits=st.integers(64, 1024))
@settings(max_examples=200, deadline=None)
def test_stored_gaps_are_the_folded_orbit_distances(data, bits):
    # each stored gap is ||q_r * omega|| * 2^P, computed by folding
    # (q_r * w) mod 2^P, for a dyadic omega = w / 2^P on the grid
    scale = 1 << bits
    w = data.draw(st.integers(1, scale - 1))
    try:
        cf = continued_fraction(CirclePoint(from_fixed(w, bits), bits),
                                max_depth=2048)
    except RationalDetected:
        assume(False)
    assert cf.w == w
    assert len(cf.gaps) == cf.validated_depth
    for (_, q), gap in zip(cf.convergents, cf.gaps):
        d = (q * w) % scale
        assert gap == min(d, scale - d), q


# -- the angle-to-circle map ----------------------------------------------

def reference_point(x: mpf, bits: int) -> mpf:
    """(x mod pi)/pi at twice the precision angle_point works at."""
    with mp.workprec(2 * (bits + 16)):
        return (x % mp.pi) / mp.pi


@pytest.mark.parametrize("spec", ["1.0", "3*pi/2", "-pi/7", "0.4 + pi", "7*pi"])
@pytest.mark.parametrize("bits", [64, 256])
def test_angle_point_matches_reference(spec, bits):
    with mp.workprec(2 * (bits + 16)):
        x = eval_number(spec, 2 * bits + 16)
    point = angle_point(x, bits)
    assert point.precision_bits == bits
    assert 0 <= point.value < 1
    with mp.workprec(2 * (bits + 16)):
        d = abs(point.value - reference_point(x, bits))
        assert min(d, 1 - d) < mpf(2) ** -(bits + 8)


def test_angle_to_circle_derived_example():
    with mp.workprec(272):
        t = angle_point(mpf("1.0"), 256)
        om = angle_point(2 * mpf("0.7"), 256)
    with mp.workprec(280):
        assert abs(t.value - 1 / mp.pi) < mpf(2) ** -250
        assert abs(om.value - mpf("1.4") / mp.pi) < mpf(2) ** -250


def test_angle_to_circle_mod_pi():
    with mp.workprec(272):
        t = angle_point(eval_number("3*pi/2", 256), 256)
    with mp.workprec(280):
        assert abs(t.value - mpf("0.5")) < mpf(2) ** -250


def test_angle_to_circle_pi_periodic_in_theta():
    for spec in ("0.4", "-pi/7", "7*pi"):
        with mp.workprec(272):
            x = eval_number(spec, 256)
            a, b = angle_point(x, 256), angle_point(x + mp.pi, 256)
        with mp.workprec(280):
            d = abs(a.value - b.value)
            assert min(d, 1 - d) < mpf(2) ** -250, spec


def test_rotation_number_of_quarter_pi_rhombus_is_one_half():
    bits = 256
    with pytest.warns(RationalAngle):
        q = rhombus("pi/4", precision_bits=bits)
    with mp.workprec(bits + 16):
        om = angle_point(2 * q.alpha, bits)
    assert detect_rational_angle(om) == Fraction(1, 2)
