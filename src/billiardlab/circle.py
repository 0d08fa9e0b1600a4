"""Circle points: number-spec parsing, the angle-to-circle map,
validated continued fractions, three-distance gaps and rational-angle
detection.

All values live on R/Z of unit length and are stored as mpmath floats
together with an explicit ``precision_bits`` tag.  Nothing here relies on
the global mpmath context: every operation runs inside a local working
precision derived from its operands.
"""

from __future__ import annotations

import ast
import operator
from bisect import bisect_right
from fractions import Fraction
from typing import List, Tuple, Union

from mpmath import mp, mpf

from .errors import DepthExceeded, RationalDetected
from .fixedpoint import from_fixed, to_fixed
from .intervals import DEFAULT_PRECISION
from .records import Frozen

NumberLike = Union[int, float, str, Fraction, mpf]

# Names allowed in textual number specs ("(sqrt(5)-1)/2", "pi/3", ...).
_EVAL_CONSTANTS = {"pi": mp.pi, "e": mp.e, "phi": mp.phi}
_EVAL_FUNCTIONS = {
    "sqrt": mp.sqrt,
    "log": mp.log,
    "exp": mp.exp,
    "sin": mp.sin,
    "cos": mp.cos,
}
_EVAL_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


#: Every literal and intermediate value of a number spec, and every value
#: eval_number returns, has mp.mag(x) <= _MAX_MAG, that is |x| < 2^1024.
#: Without the bound a short spec such as "sin(1e1000000)" needs millions
#: of bits of pi and runs far longer than a config check may.
_MAX_MAG = 1024


def _bounded(value, spec: NumberLike):
    """value, unless its magnitude reaches 2**_MAX_MAG; the spec is
    rendered as text only for the error."""
    if mp.mag(value) > _MAX_MAG:
        raise ValueError(f"number spec {str(spec)[:80]!r} has a value of "
                         f"magnitude 2**{_MAX_MAG} or more")
    return value


def _eval_node(node: ast.AST, source: str) -> mpf:
    """Evaluate one node of a parsed number spec at the current precision."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # Promote from the source digits: "1.4" is the decimal 1.4, not
        # its 53-bit rounding.
        return _bounded(mpf(ast.get_source_segment(source, node)), source)
    if isinstance(node, ast.BinOp) and type(node.op) in _EVAL_OPERATORS:
        return _bounded(_EVAL_OPERATORS[type(node.op)](
            _eval_node(node.left, source), _eval_node(node.right, source)), source)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EVAL_OPERATORS:
        return _EVAL_OPERATORS[type(node.op)](_eval_node(node.operand, source))
    if isinstance(node, ast.Name) and node.id in _EVAL_CONSTANTS:
        return mpf(_EVAL_CONSTANTS[node.id])
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EVAL_FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        return _bounded(_EVAL_FUNCTIONS[node.func.id](
            _eval_node(node.args[0], source)), source)
    raise ValueError(f"unsupported element {ast.get_source_segment(source, node)!r} "
                     "in number spec")


def eval_number(x: NumberLike, precision_bits: int = DEFAULT_PRECISION) -> mpf:
    """Evaluate a numeric spec at the requested binary precision.

    Strings are expressions built from numeric literals, + - * / **, unary
    + and -, parentheses, the constants pi, e, phi and one-argument calls
    of sqrt(), log(), exp(), sin(), cos(); anything else raises
    ValueError, as does a division by zero ("1/0", "0**-1"), a literal or
    intermediate value of magnitude 2^1024 or more ("2**1025",
    "exp(1e100000)"), or a value that is not a finite real ("sqrt(-2)",
    "log(0)", NaN).  Numeric literals are promoted from their digits to
    working precision before any arithmetic, so "0.3" and "1.4/pi" mean
    the decimals 0.3 and 1.4, not their 53-bit roundings.
    """
    with mp.workprec(precision_bits + 16):
        value = _eval_spec(x)
    if not isinstance(value, mpf) or not mp.isfinite(value):
        raise ValueError(f"number spec {str(x)[:80]!r} is not a finite real")
    return _bounded(value, x)


def _eval_spec(x: NumberLike):
    """eval_number before its finite-real check, at the current precision."""
    if isinstance(x, str):
        source = x.strip()
        try:
            return _eval_node(ast.parse(source, mode="eval").body, source)
        except (SyntaxError, RecursionError) as exc:
            raise ValueError(f"malformed or too deeply nested number spec "
                             f"{x[:80]!r}") from exc
        except ZeroDivisionError as exc:
            raise ValueError(f"number spec {x[:80]!r} divides by zero") from exc
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


class CirclePoint(Frozen):
    """A point on the circle R/Z: value in [0, 1) at a tagged precision."""

    __slots__ = ("value", "precision_bits")

    def __init__(self, value: mpf, precision_bits: int = DEFAULT_PRECISION):
        if precision_bits <= 0:
            raise ValueError("precision_bits must be positive")
        with mp.workprec(precision_bits + 16):
            v = mpf(value)
            v = v - mp.floor(v)
            if v >= 1:  # guard against rounding at the wrap point
                v = mpf(0)
        super().__init__(v, precision_bits)

    @classmethod
    def make(cls, x: NumberLike, precision_bits: int = DEFAULT_PRECISION) -> "CirclePoint":
        return cls(eval_number(x, precision_bits), precision_bits)


def angle_point(x: mpf, precision_bits: int) -> CirclePoint:
    """The circle point (x mod pi)/pi of an angle x, computed at
    precision_bits + 16: the target t of a ray angle theta, or the rotation
    number omega of 2*alpha.  The caller computes x itself at that precision
    or above."""
    with mp.workprec(precision_bits + 16):
        return CirclePoint((x % mp.pi) / mp.pi, precision_bits)


class ContinuedFractionExpansion(Frozen):
    """Validated continued fraction of a circle point.

    ``partial_quotients`` and ``convergents`` are certified up to
    ``validated_depth``: a quotient counts as validated only when both
    endpoints of the stored value's uncertainty interval agree on it.
    ``w`` is the stored omega on the grid, floor(omega * 2^P) at
    P = precision_bits, and ``gaps[r-1]`` is ||q_r * w/2^P|| * 2^P, an
    integer, for each validated convergent.
    """

    __slots__ = ("omega", "w", "partial_quotients", "convergents", "gaps",
                 "validated_depth")

    def denominator(self, r: int) -> int:
        """q_r, 1-indexed."""
        if not (1 <= r <= self.validated_depth):
            raise DepthExceeded(f"r={r} exceeds validated depth {self.validated_depth}")
        return self.convergents[r - 1][1]

    def orbit_gap(self, n: int) -> int:
        """min over 1 <= d <= n of ||d * w/2^P|| * 2^P, an integer.

        After validated step r the lo-endpoint remainder b_r of the Euclid
        run on (2^P, w) is |q_r*w - p_r*2^P|.  Each remainder is below
        half the number it was divided into, so b_r < 2^(P-1) and
        b_r = ||q_r*omega|| * 2^P exactly; the b_r decrease.  By best
        approximation ||d*omega|| >= ||q_r*omega|| for q_r <= d < q_(r+1),
        so the minimum is b_r for the largest validated q_r <= n.  Below
        q_1 = a_1 it is the q_0 = 1 term min(w, 2^P - w): if a_1 >= 2 then
        omega <= 1/2 and d*omega <= 1 - omega for every d < a_1.  Past the
        last validated q_R the value stays b_R, exact while n is below the
        next denominator of the stored omega.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        r = bisect_right(self.convergents, n, key=lambda pq: pq[1])
        if r:
            return self.gaps[r - 1]
        return min(self.w, (1 << self.omega.precision_bits) - self.w)


def continued_fraction(omega: CirclePoint, max_depth: int = 64) -> ContinuedFractionExpansion:
    """Continued fraction of omega with honestly validated depth.

    The expansion runs the Euclidean algorithm simultaneously on the two
    rationals W/2^P and (W+1)/2^P that bracket the stored value; quotients
    are emitted only while both endpoints agree on them.  Rationality at
    working precision is detected three ways: an endpoint expansion
    terminates exactly; a common quotient exceeds 2^(P/2) (the Gauss
    iterate dropped below the certification floor); or the endpoints
    disagree while a rational of low height (simplest rational of the
    bracket) lies inside the uncertainty interval.  A disagreement with no
    low-height rational nearby is ordinary precision exhaustion: the
    validated prefix is returned.
    """
    bits = omega.precision_bits
    scale = 1 << bits
    w = to_fixed(omega.value, bits)
    if w == 0:
        raise RationalDetected("omega is an integer at working precision")
    huge = 1 << (bits // 2)
    simple_cap = 1 << max(bits // 4, 8)

    # Euclid on (scale, w) and (scale, w+1): quotients of 1/omega.
    a_lo, b_lo = scale, w
    a_hi, b_hi = scale, w + 1
    quotients: List[int] = []
    convergents: List[Tuple[int, int]] = []
    gaps: List[int] = []
    p_prev, q_prev = 1, 0  # conventions p_{-1}=1, q_{-1}=0, p_0=0, q_0=1
    p_cur, q_cur = 0, 1
    while len(quotients) < max_depth:
        if b_lo == 0 or b_hi == 0:
            raise RationalDetected("expansion terminated: rational at working precision")
        q_lo, r_lo = divmod(a_lo, b_lo)
        q_hi, r_hi = divmod(a_hi, b_hi)
        if q_lo != q_hi:
            # Simplest rational strictly inside the bracket: the validated
            # prefix continued by min(q_lo, q_hi) + 1.
            q_simple = (min(q_lo, q_hi) + 1) * q_cur + q_prev
            if q_simple <= simple_cap:
                raise RationalDetected(
                    f"rational of denominator {q_simple} inside the uncertainty "
                    "interval at working precision")
            break
        if q_lo >= huge:
            raise RationalDetected(
                f"partial quotient {q_lo} exceeds 2^{bits // 2}: rational at working precision")
        quotients.append(q_lo)
        p_prev, p_cur = p_cur, q_lo * p_cur + p_prev
        q_prev, q_cur = q_cur, q_lo * q_cur + q_prev
        convergents.append((p_cur, q_cur))
        gaps.append(r_lo)
        a_lo, b_lo = b_lo, r_lo
        a_hi, b_hi = b_hi, r_hi

    return ContinuedFractionExpansion(omega, w, quotients, convergents, gaps,
                                      len(quotients))


def three_distance_bounds(cf: ContinuedFractionExpansion, r: int) -> tuple:
    """(gap, claimed, claimed_ok, classical, classical_ok) at n = q_r.

    gap is the exact minimum of d(p1*omega, p2*omega) over
    n <= p1 < p2 <= 2n.  The differences p2 - p1 cover 1..n, so it is
    cf.orbit_gap(n), which is cf.gaps[r-1]; it holds exactly for the stored
    fixed-point omega, whose continued fraction shares the validated
    convergents.  The published 1/(n + 2) and the classical 1/(q_(r+1) + n)
    (None, as its verdict, at the last validated r) are rounded at P + 16
    bits for printing.  A verdict compares integers, gap*2^P*d >= 2^P, which
    agrees with the rounded comparison: a P-bit gap other than 1/d differs
    from it by 1/(d*2^P) or more, above its rounding."""
    bits = cf.omega.precision_bits
    q = cf.denominator(r)
    gap_fp = cf.gaps[r - 1]

    def bound(d: int) -> tuple:  # 1/d, and whether gap >= 1/d
        with mp.workprec(bits + 16):
            return mpf(1) / d, gap_fp * d >= 1 << bits

    classical = ((None, None) if r == cf.validated_depth
                 else bound(cf.denominator(r + 1) + q))
    return (from_fixed(gap_fp, bits), *bound(q + 2), *classical)


def detect_rational_angle(point: CirclePoint) -> Union[Fraction, None]:
    """Return p/q if the point is rational with denominator at most 2^24 at
    working precision, else None.

    Used to recognize rational multiples of pi (alpha/pi, omega, ...).  A
    single-endpoint Euclid run on the stored value, cut at the first
    quotient blow-up, gives the candidate: the convergent just before the
    cut (possibly in its trailing-1 form, which Fraction normalizes).
    Convergent denominators only grow, so the run returns None as soon as
    one exceeds 2^24.  A candidate other than 0/1 is returned only if the
    validated continued fraction, to depth 256, detects rationality.
    """
    bits = point.precision_bits
    w = to_fixed(point.value, bits)
    if w == 0:
        return Fraction(0)
    max_den = 1 << 24
    cut = max(1 << (bits // 4), 2 * max_den)
    a, b = 1 << bits, w
    p_prev, q_prev, p_cur, q_cur = 1, 0, 0, 1
    while b > 0:
        q, r = divmod(a, b)
        if q >= cut:
            break
        p_prev, p_cur = p_cur, q * p_cur + p_prev
        q_prev, q_cur = q_cur, q * q_cur + q_prev
        if q_cur > max_den:
            return None
        a, b = b, r
    if q_cur == 1 and p_cur == 0:
        return None
    try:
        continued_fraction(point, max_depth=256)
    except RationalDetected:
        return Fraction(p_cur, q_cur)
    return None
