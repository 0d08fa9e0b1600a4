"""The escape-set experiments ``thm1_cover`` and ``thm2_cover``.

Both cover the escape sets F_N of a generalized parallelogram along a
Diophantine schedule and check that the H^s covering sums decay: for a
given direction and a δ-Diophantine schedule (Theorem 1), and for a
constructed two-sided well-approximable direction (Theorem 2).
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Mapping, Tuple

from mpmath import mp, mpf

from .billiard import build_polygon, escape_sets, rhombus
from .circle import CirclePoint, angle_point, continued_fraction, eval_number
from .dimension import escape_cover, hs_sum
from .dioph import approx_solutions
from .errors import ConfigError, ScheduleNotFound
from .experiments import (_ANGLE, _BITS, _COUNT, _INF, _UNIT, Check,
                          ExperimentConfig, RunReport, _expr, _optional,
                          _polygon, _real)
from .fixedpoint import mpf_to_fraction, power_floor
from .intervals import _dps_for, fmt

__all__ = ["construct_twosided_target", "run_thm1", "run_thm2"]

_GOLDEN_RHOMBUS = {"kind": "rhombus", "alpha": "pi*(sqrt(5)-1)/4", "side": 1}

_SCHEMA: Dict[str, Dict[str, Tuple[Any, Check]]] = {
    "thm1_cover": {
        "precision_bits": (256, _BITS),
        "polygon": _polygon(_GOLDEN_RHOMBUS, "rhombus", "parallelogram"),
        "theta": ("0.3", _expr()),
        # approx_solutions takes the schedule exponent 1 - delta >= 2^-19
        "delta": (0.1, _real(0, 1 - 2 ** -19, "(]")),
        "eps": (0.1, _UNIT),
        "s": (None, _optional(_UNIT)),
        "p_max": (4096, _COUNT),
        "schedule_steps": (3, _COUNT),
        "schedule_shrink": (0.5, _real(0, 1, "(]")),
        "reflection_cap": (100000, _COUNT),
        "control_alpha": ("pi/3", _optional(_ANGLE)),
        "control_max_n": (64, _COUNT),
    },
    "thm2_cover": {
        "precision_bits": (512, _BITS),
        "polygon": _polygon(_GOLDEN_RHOMBUS, "rhombus", "parallelogram"),
        "mu": (2.0, _real(1, _INF, "[)")),
        "eps": (0.1, _UNIT),
        "construct_steps": (6, _COUNT),
        "p_max": (4096, _COUNT),
        "n_cap": (100, _COUNT),
        "reflection_cap": (20000, _COUNT),
    },
}


def _thm1_points(theta, alpha: mpf, bits: int):
    """(theta mod 2*pi, t_up, t_down, omega) of thm1_cover: the targets
    (theta mod pi)/pi and ((theta - alpha) mod pi)/pi of a ray angle
    ``theta`` (a number spec) and the rotation number (2*alpha mod pi)/pi."""
    with mp.workprec(bits + 16):
        theta = eval_number(theta, bits) % (2 * mp.pi)
        return (theta, angle_point(theta, bits),
                angle_point(theta - alpha, bits), angle_point(2 * alpha, bits))


def _check_across(opts: Mapping[str, Any]) -> None:
    """The rules that tie one option to another."""
    name = opts["experiment"]
    if name == "thm1_cover":
        # A target t scans on a grid of up to bits + 15 - log2(t) bits
        # (dioph._grid), so a tiny nonzero one would cost without bound.
        bits = opts["precision_bits"]
        alpha = eval_number(opts["polygon"]["alpha"], bits + 48)
        _, t_up, t_down, _ = _thm1_points(opts["theta"], alpha, bits)
        for side, t in (("up", t_up), ("down", t_down)):
            if 0 < t.value < mpf(2) ** -bits:
                raise ConfigError(
                    f"theta gives the {side} target {fmt(t.value, 6)}, "
                    f"nonzero and below 2^-{bits}; a thm1 target must be 0 "
                    f"or at least 2^-precision_bits")
    # the Hausdorff-sum exponent the run derives must lie in (0, 1]
    if name == "thm1_cover" and opts["s"] is None and 0.5 + opts["eps"] > 1:
        raise ConfigError(f"s = 0.5 + eps must be <= 1 when s is null, "
                          f"got eps={opts['eps']}")
    if name == "thm2_cover":
        s_main = 1 / (opts["mu"] + 1) + opts["eps"]
        if s_main > 1:
            raise ConfigError(f"cover exponent 1/(mu+1) + eps must be <= 1, "
                              f"got {s_main:g}")


# --------------------------------------------------------------------------
# escape-set covers along Diophantine schedules
# --------------------------------------------------------------------------

def _deltadio_schedule(t: CirclePoint, omega: CirclePoint, delta: float,
                       p_max: int, sign: int, steps: int,
                       shrink: float) -> List[int]:
    """Indices N with ||t + sign*N*omega|| < N^-(1-delta), distance-sparsified.

    The inequality is vacuous while N^-(1-delta) >= 1/2 (no circle distance
    exceeds 1/2), so indices with N^(1-delta) <= 2 are skipped outright.
    Past that, the schedule keeps the greedy subsequence along which the
    distance shrinks by at least ``shrink`` per kept step, which singles
    out genuine approximation events while every entry remains a solution
    of the defining inequality.
    """
    sols = approx_solutions(t, omega, 1.0 - delta, 1, 0, p_max, sign)
    ns: List[int] = []
    best = None
    for sol in sols:
        n = abs(sol.p)
        if n ** (1.0 - delta) <= 2:
            continue
        distance = mpf_to_fraction(sol.distance)
        if best is not None and not distance <= Fraction(shrink) * best:
            continue
        ns.append(n)
        best = distance
        if len(ns) == steps:
            break
    if not ns:
        raise ScheduleNotFound(
            f"no solutions of ||t + p*omega|| < |p|^-{1 - delta:g} with "
            f"|p| <= {p_max}; enlarge p_max")
    return ns


_COVER_HEADER = ("side,n,count,piece_length,gate_width,escape_length,"
                 "uncertain_length,hs_sum")


def _covers(q, theta, ns: List[int], reflection_cap: int, side: str,
            exponents: List[float]) -> Iterator[tuple]:
    """Cover F_N for each N in ns on one side, yielding per N the cover
    row's fields from n to uncertain_length, the piece count and the H^s
    sum at each exponent."""
    for f_n, rep in escape_sets(q, theta, ns, reflection_cap, side):
        count, piece = escape_cover(f_n, rep.gate_width)
        fields = [str(rep.N), str(count), fmt(piece), fmt(rep.gate_width),
                  fmt(f_n.total_length), fmt(rep.uncertain.total_length)]
        yield fields, count, [hs_sum(count, piece, rep.uncertain, s)
                              for s in exponents]


def _cover_schedule(entry: Dict[str, Any], q, theta, side: str, ns: List[int],
                    reflection_cap: int, exponents: List[Tuple[str, float]],
                    rows: List[str], notes: List[str], violations: List[str],
                    scope: str = "") -> None:
    """Cover F_N for each n in ns on one side.  For each (suffix, s) in
    exponents, add the H^s rows labelled side+suffix and
    entry["hs_sums" + suffix]; the strict-decay verdict reads the sums at
    the first exponent."""
    covers = list(_covers(q, theta, ns, reflection_cap, side,
                          [s for _, s in exponents]))
    for i, (suffix, _) in enumerate(exponents):
        rows.extend(",".join([side + suffix, *fields, fmt(sums[i])])
                    for fields, _, sums in covers)
        entry["hs_sums" + suffix] = [fmt(sums[i]) for _, _, sums in covers]
    sums = [sums[0] for _, _, sums in covers]
    if len(sums) >= 2:
        decay = all(b < a for a, b in zip(sums, sums[1:]))
        entry["decay_strict"] = decay
        if not decay:
            violations.append(f"{side}: H^s sums do not strictly decrease "
                              f"along schedule {ns}")
    else:
        entry["decay_strict"] = None
        notes.append(f"{side}: schedule has {len(ns)} step(s){scope}; decay "
                     "not assessable")


def run_thm1(cfg: ExperimentConfig) -> RunReport:
    """Escape-set Hausdorff sums along a two-sided Diophantine schedule."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    q = build_polygon(cfg.polygon, bits)
    violations: List[str] = []
    notes: List[str] = []
    delta, eps = float(cfg.delta), float(cfg.eps)
    if not delta < eps:
        msg = (f"exponent ordering 1 > eps > delta > 0 violated "
               f"(eps={eps:g}, delta={delta:g}); decay is not guaranteed")
        warnings.warn(msg, UserWarning)
        notes.append("warning: " + msg)
    s = float(cfg.s) if cfg.s is not None else 0.5 + eps
    theta, t_up, t_down, om = _thm1_points(cfg.theta, q.alpha, bits)
    side_specs = (("up", t_up, +1), ("down", t_down, -1))
    rows: List[str] = []
    sides: Dict[str, Any] = {}
    for side, target, sign in side_specs:
        entry: Dict[str, Any] = {"sign": sign, "target": fmt(target.value, 30)}
        try:
            ns = _deltadio_schedule(target, om, delta, cfg.p_max, sign,
                                    cfg.schedule_steps,
                                    shrink=float(cfg.schedule_shrink))
        except ScheduleNotFound as exc:
            entry["schedule_found"] = False
            entry["note"] = str(exc)
            notes.append(f"{side}: {exc}")
            sides[side] = entry
            continue
        entry["schedule_found"] = True
        entry["schedule"] = ns
        _cover_schedule(entry, q, theta, side, ns, cfg.reflection_cap,
                        [("", s)], rows, notes, violations)
        sides[side] = entry
    control: Dict[str, Any] = {}
    if cfg.control_alpha is not None:
        q_ctl = rhombus(cfg.control_alpha, side=cfg.polygon["side"],
                        precision_bits=bits)
        n, ctl_ns = 1, []
        while n <= cfg.control_max_n:
            ctl_ns.append(n)
            n *= 2
        ctl_sums = []
        residual = None
        for fields, count, (hs,) in _covers(q_ctl, theta, ctl_ns,
                                            cfg.reflection_cap, "up", [s]):
            ctl_sums.append(fmt(hs))
            rows.append(",".join(["control_up", *fields, ctl_sums[-1]]))
            # The certified escape cover is empty once no pieces and no
            # escape length remain; the H^s sum then carries only the
            # 2-ulp guard shards around singular vertex rays, which the
            # exact engine keeps as explicit uncertainty instead of
            # rounding to zero.
            if not count:
                residual = fields[-1]  # the uncertain length
                break
        control = {"alpha": cfg.control_alpha, "schedule": ctl_ns[:len(ctl_sums)],
                   "hs_sums": ctl_sums,
                   "certified_empty": residual is not None,
                   "residual_uncertain": residual}
        if residual is None:
            violations.append("control: escape cover never certified empty "
                              "on the rational-angle fixture")
    data = {"s": fmt(s), "delta": fmt(delta), "eps": fmt(eps),
            "theta": fmt(theta, full), "omega": fmt(om.value, full),
            "sides": sides, "control": control}
    return RunReport("thm1_cover", violations, notes,
                     {"covers": (_COVER_HEADER, rows)}, data, cfg)


# --------------------------------------------------------------------------
# two-sided well-approximable targets
# --------------------------------------------------------------------------

def construct_twosided_target(omega: CirclePoint, mu: float,
                              steps: int) -> Dict[str, Any]:
    """Build t whose orbit satisfies ||t + sign*p*omega|| < p^-mu alternately.

    Witnesses alternate (sign=-1, p odd) and (sign=+1, p even), starting
    with the odd/minus pair.  Each step jumps by an odd continued-fraction
    denominator D with ||D*omega|| below a third of the current interval's
    half-width, so the new witness interval nests inside the previous one;
    the returned target is the center of the innermost interval.  The
    construction and the final witness verification both run in exact
    fixed-point arithmetic with a drift allowance of one ulp per orbit step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not mu >= 1:
        raise ValueError("mu must be >= 1")
    bits = omega.precision_bits
    scale = 1 << bits
    cf = continued_fraction(omega, max_depth=2048)
    w = cf.w
    with mp.workprec(bits + 64):
        mu_m = mpf(mu)
        p = 3
        while power_floor(p, mu_m, bits) >= scale // 16:
            p += 2
        sign = -1
        c = (p * w) % scale
        h = power_floor(p, mu_m, bits) // 2
        witnesses = [(sign, p)]
        for _ in range(1, steps):
            sign = -sign
            target = h // 3
            D = None
            for (_, qd), gap in zip(cf.convergents, cf.gaps):
                if qd % 2 == 1 and qd > 2 * p and gap <= target:
                    D = qd
                    break
            if D is None:
                raise ScheduleNotFound(
                    f"no odd denominator jump below {target}/2^{bits} within "
                    f"{len(cf.convergents)} validated convergents")
            p_next = D - p
            c_next = ((-sign) * p_next * w) % scale
            dd = (c_next - c) % scale
            dd = min(dd, scale - dd)
            if dd > h // 3:
                raise AssertionError("jump left the nesting window")
            h_next = min(power_floor(p_next, mu_m, bits) // 2, h // 3)
            if h_next < (p_next << 16):
                raise ScheduleNotFound(
                    f"witness index {p_next} needs more than {bits} bits of "
                    "precision; raise precision_bits or lower construct_steps")
            witnesses.append((sign, p_next))
            p, c, h = p_next, c_next, h_next
        t_fp = c % scale
        t = CirclePoint(mpf(t_fp) / scale, bits)
        rows = []
        all_ok = True
        for sgn, pw in witnesses:
            d_fp = (t_fp + sgn * pw * w) % scale
            d_fp = min(d_fp, scale - d_fp)
            ok = d_fp + pw + 2 < power_floor(pw, mu_m, bits)
            all_ok = all_ok and ok
            dist = mpf(d_fp) / scale
            normalized = dist * mp.power(pw, mu_m)
            rows.append({"sign": sgn, "p": pw, "parity": pw % 2,
                         "distance": dist, "normalized": normalized,
                         "certified": bool(ok)})
    return {"t": t, "witnesses": rows, "all_certified": all_ok}


def run_thm2(cfg: ExperimentConfig) -> RunReport:
    """Escape covers for a constructed two-sided well-approximable direction."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    q = build_polygon(cfg.polygon, bits)
    violations: List[str] = []
    notes: List[str] = []
    mu, eps = float(cfg.mu), float(cfg.eps)
    om_alpha = angle_point(q.alpha, bits)
    built = construct_twosided_target(om_alpha, mu, cfg.construct_steps)
    # t is the last witness's own orbit point: its level p // 2 is degenerate
    last = built["witnesses"][-1]["p"]
    if last // 2 <= cfg.n_cap:
        raise ScheduleNotFound(
            f"the target is the orbit point of its last witness p={last}, whose "
            f"level {last // 2} lies within n_cap={cfg.n_cap}; lower n_cap")
    t = built["t"]
    with mp.workprec(bits + 16):
        theta = t.value * mp.pi
    wit_rows = []
    evens, odds = [], []
    for row in built["witnesses"]:
        side = "up" if row["parity"] == 0 else "down"
        wit_rows.append(",".join([str(row["p"]), str(row["sign"]),
                                  str(row["parity"]), side,
                                  fmt(row["distance"], 25),
                                  fmt(row["normalized"], 10),
                                  str(row["certified"])]))
        (evens if row["parity"] == 0 else odds).append(row)
    if not built["all_certified"]:
        violations.append("a constructed witness failed exact verification")
    if len(evens) < 3 or len(odds) < 3:
        violations.append(f"need >= 3 even and >= 3 odd witnesses, got "
                          f"{len(evens)} even / {len(odds)} odd")
    refound = {"checked": 0, "found": 0}
    for sgn, l in ((-1, 1), (+1, 0)):
        sols = approx_solutions(t, om_alpha, mu, 2, l, cfg.p_max, sgn)
        have = {abs(s.p) for s in sols}
        for row in built["witnesses"]:
            if row["sign"] == sgn and row["p"] % 2 == (l % 2) and row["p"] <= cfg.p_max:
                refound["checked"] += 1
                if row["p"] in have:
                    refound["found"] += 1
                else:
                    violations.append(f"witness p={row['p']} not re-found by "
                                      "the residue-class solution scan")
    s_main = 1.0 / (mu + 1.0) + eps
    s_low = max(1.0 / (mu + 1.0) - eps, 0.02)
    cover_rows: List[str] = []
    schedules: Dict[str, Any] = {}
    for side, parity in (("down", 1), ("up", 0)):
        ns = sorted({row["p"] // 2 for row in built["witnesses"]
                     if row["parity"] == parity and 1 <= row["p"] // 2 <= cfg.n_cap})
        entry: Dict[str, Any] = {"schedule": ns}
        if not ns:
            notes.append(f"{side}: no witness level within n_cap={cfg.n_cap}")
            schedules[side] = entry
            continue
        _cover_schedule(entry, q, theta, side, ns, cfg.reflection_cap,
                        [("", s_main), ("_low_s", s_low)], cover_rows, notes,
                        violations, scope=f" within n_cap={cfg.n_cap}")
        schedules[side] = entry
    data = {"mu": fmt(mu), "eps": fmt(eps), "s": fmt(s_main),
            "s_low": fmt(s_low), "theta": fmt(theta, full),
            "t": fmt(t.value, full),
            "omega_alpha": fmt(om_alpha.value, full),
            "witness_counts": {"even": len(evens), "odd": len(odds)},
            "refound": refound, "schedules": schedules}
    tables = {
        "witnesses": ("p,sign,parity,side,distance,normalized,certified",
                      wit_rows),
        "covers": (_COVER_HEADER, cover_rows),
    }
    return RunReport("thm2_cover", violations, notes, tables, data, cfg)


_RUNNERS = {"thm1_cover": run_thm1, "thm2_cover": run_thm2}
