"""End-to-end acceptance checks.

Each test prints one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``) and then asserts the same condition, so the verbose test
report doubles as the acceptance scoreboard.  Tolerances and budgets are
stated inline next to each check.
"""

import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from billiardlab.billiard import _LAUNCH, _Tracer, escape_sets, rhombus
from billiardlab.cantor import build_hierarchy, select_sequence
from billiardlab.circle import CirclePoint, continued_fraction
from billiardlab.dimension import average_length_cover, box_count, dim_lb_estimate
from billiardlab.dioph import minkowski_solutions
from billiardlab.experiments import (ExperimentConfig, run_experiment,
                                     write_report)
from billiardlab.fixedpoint import from_fixed, to_fixed
from billiardlab.intervals import IntervalUnion

SEED = 20260818
BITS = 256


def _line(num, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def _cfg(experiment, **options):
    return ExperimentConfig.from_json_obj(dict(options), experiment=experiment)


# ---------------------------------------------------------------------------
# 1. box-counting dimension of the middle-third Cantor set
# ---------------------------------------------------------------------------

def test_criterion_01_cantor_box_dimension():
    start = time.time()
    with mp.workprec(BITS + 16):
        pairs = [(mpf(0), mpf(1))]
        for _ in range(12):
            nxt = []
            for lo, hi in pairs:
                w = (hi - lo) / 3
                nxt.append((lo, lo + w))
                nxt.append((hi - w, hi))
            pairs = nxt
        u = IntervalUnion.make([(to_fixed(lo, BITS), to_fixed(hi, BITS))
                                for lo, hi in pairs], BITS)
        scale_sets = [(mpf(3) ** -k / 2, u) for k in range(4, 13)]
    fit = dim_lb_estimate(scale_sets)
    with mp.workprec(BITS + 16):
        err = abs(fit.slope - mp.log(2) / mp.log(3))
    elapsed = time.time() - start
    ok = err <= mpf("0.03") and elapsed < 1.0
    assert _line(1, ok, f"slope={mp.nstr(fit.slope, 8)} err={mp.nstr(err, 4)} "
                        f"({elapsed:.2f}s)")
    assert err <= mpf("0.03")
    assert elapsed < 1.0


def test_criterion_01_box_dimension_off_ties():
    # At piece lengths c*3^-k with c < 1 no piece length equals a level
    # length, so the greedy counts do not turn on sub-ulp rounding of the
    # 3-adic endpoints and the fitted slope is log 2/log 3 to far below
    # the 0.03 tolerance the tie scales above need.
    with mp.workprec(BITS + 16):
        pairs = [(mpf(0), mpf(1))]
        for _ in range(12):
            pairs = [piece for lo, hi in pairs
                     for piece in ((lo, lo + (hi - lo) / 3),
                                   (hi - (hi - lo) / 3, hi))]
        u = IntervalUnion.make([(to_fixed(lo, BITS), to_fixed(hi, BITS))
                                for lo, hi in pairs], BITS)
    for c in ("0.6", "0.9"):
        with mp.workprec(BITS + 16):
            scales = [(mpf(3) ** -k * mpf(c) / 2, u) for k in range(4, 13)]
        fit = dim_lb_estimate(scales)
        with mp.workprec(BITS + 16):
            assert abs(fit.slope - mp.log(2) / mp.log(3)) <= mpf("1e-6"), c


# ---------------------------------------------------------------------------
# 2. three-distance minimum gap against the 1/(q_r+2) floor
# ---------------------------------------------------------------------------

def test_criterion_02_three_distance_floor():
    start = time.time()
    failures = []
    rows = 0
    for expr in ("(sqrt(5)-1)/2", "sqrt(2)-1"):
        om = CirclePoint.make(expr, BITS)
        cf = continued_fraction(om, max_depth=512)
        w, scale = to_fixed(om.value, BITS), 1 << BITS
        for r in range(1, cf.validated_depth):
            q_r = cf.denominator(r)
            if q_r > 100000:
                break
            rows += 1
            # the orbit points as exact fixed-point integers, gap in ulps
            pts = sorted((p * w) % scale for p in range(q_r, 2 * q_r + 1))
            gap = min(b - a for a, b in zip(pts, pts[1:]))
            gap = min(gap, scale - pts[-1] + pts[0])
            if not gap * (q_r + 2) >= scale:
                failures.append((expr, r, q_r, mp.nstr(from_fixed(gap, BITS), 8)))
    elapsed = time.time() - start
    ok = not failures and elapsed < 30.0
    assert _line(2, ok, f"{len(failures)}/{rows} rows below 1/(q_r+2) "
                        f"({elapsed:.1f}s)")
    assert not failures, failures[:5]
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. average-length packing stays within 3n pieces
# ---------------------------------------------------------------------------

def test_criterion_03_packing_piece_bound():
    start = time.time()
    rng = np.random.default_rng(SEED)
    violations = 0
    for i in range(10000):
        j = int(rng.integers(1, 1001))
        lens = rng.integers(1, 1 << 30, size=j, dtype=np.int64)
        total = int(lens.sum())
        count = int(((lens * j) // total).sum()) + j
        if count > 3 * j:
            violations += 1
        if i < 25:  # exact cross-check against the rational-arithmetic cover
            rep = average_length_cover([Fraction(int(a)) for a in lens],
                                       Fraction(total))
            assert rep.count == count
            assert rep.bound_3n_ok == (count <= 3 * j)
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 10.0
    assert _line(3, ok, f"violations={violations}/10000 ({elapsed:.1f}s)")
    assert violations == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4. inhomogeneous Minkowski solutions at every random target
# ---------------------------------------------------------------------------

def test_criterion_04_minkowski_solution_count():
    start = time.time()
    rep = run_experiment(_cfg("minkowski_scan"))  # 100 pairs, |p| <= 1e6
    elapsed = time.time() - start
    ok = rep.passed and rep.data["min_count"] >= 5 and elapsed < 120.0
    assert _line(4, ok, f"min={rep.data['min_count']} "
                        f"max={rep.data['max_count']} over 100 pairs "
                        f"({elapsed:.1f}s)")
    assert rep.passed, rep.violations
    assert rep.data["min_count"] >= 5
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. the traced partition of a cross-section conserves width
# ---------------------------------------------------------------------------

def test_criterion_05_beam_width_conservation():
    start = time.time()
    q = rhombus("1.0", side=1, precision_bits=BITS)
    tracer = _Tracer(q, "0.3")
    (u, r, d), _ = tracer.partition_states()
    parts = [tracer.source_union(states) for states in (u, r, d)]
    # source widths summed as exact integers on the 2^-BITS grid; beams
    # stopped on the budget count as uncertain
    widths = dict.fromkeys(("returned", "escaped", "uncertain"), 0)
    total = sum(hi - lo for part in parts for lo, hi in part)
    for part in parts:
        for lo, hi in part:
            out, _ = tracer.trace_states([(_LAUNCH, lo, hi, 0, 0, 0)],
                                         n_cap=600, reflection_cap=1000)
            for status, kids in out.items():
                widths["uncertain" if status == "active" else status] += sum(
                    b - a for a, b in map(tracer.source_pair, kids))
    accounted = sum(widths.values())
    with mp.workprec(BITS + 16):
        rel = mpf(abs(accounted - total)) / total
    elapsed = time.time() - start
    ok = rel <= mpf("1e-9") and elapsed < 60.0
    shown = {k: mp.nstr(from_fixed(w, BITS), 6) for k, w in widths.items()}
    assert _line(5, ok, f"rel_err={mp.nstr(rel, 4)} "
                        f"returned={shown['returned']} "
                        f"escaped={shown['escaped']} "
                        f"uncertain={shown['uncertain']} ({elapsed:.1f}s)")
    assert rel <= mpf("1e-9")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. gate width / |sin theta| stays bounded and stable under refinement
# ---------------------------------------------------------------------------

def test_criterion_06_gate_ratio_bounded():
    start = time.time()
    q = rhombus("1.0", side=1, precision_bits=BITS)

    def ratios(thetas):
        out = []
        for th in thetas:
            tracer = _Tracer(q, th)
            (_, _, d_states), _ = tracer.partition_states()
            d_union = tracer.source_union(d_states)
            with mp.workprec(BITS + 16):
                out.append(d_union.total_length / abs(mp.sin(th)))
        return out

    with mp.workprec(BITS + 16):
        lo, hi = mpf("0.01"), mp.pi - mpf("0.01")
        base = [lo + (hi - lo) * k / 49 for k in range(50)]
        refined = sorted(base + [(base[i] + base[i + 1]) / 2
                                 for i in range(49)])
    max_50 = max(ratios(base))
    max_99 = max(ratios(refined))
    with mp.workprec(BITS + 16):
        drift = abs(max_99 - max_50) / max_50
    elapsed = time.time() - start
    ok = max_99 < mpf(1000) and drift <= mpf("0.01") and elapsed < 60.0
    assert _line(6, ok, f"max50={mp.nstr(max_50, 8)} max99={mp.nstr(max_99, 8)} "
                        f"drift={mp.nstr(drift, 4)} ({elapsed:.1f}s)")
    assert max_99 < mpf(1000)
    assert drift <= mpf("0.01")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. escape-set structure: piece count, gate bound, nesting
# ---------------------------------------------------------------------------

def test_criterion_07_escape_set_structure():
    start = time.time()
    q = rhombus("1.0", side=1, precision_bits=BITS)
    vertices = len(q.vertices)
    pairs = 0
    for theta in ("0.3", "0.8", "1.2", "1.9", "2.6"):
        prev = None
        for f_n, rep in escape_sets(q, theta, [1, 2, 3, 4], 20000,
                                    variant="down"):
            n = rep.N
            pairs += 1
            assert rep.j_N <= 2 * vertices * n, (theta, n, rep.j_N)
            assert f_n.total_length <= rep.gate_width, (theta, n)
            if prev is not None:
                assert f_n.is_subset_of(prev), (theta, n)
            prev = f_n
    elapsed = time.time() - start
    ok = pairs == 20 and elapsed < 300.0
    assert _line(7, ok, f"{pairs} (theta, N) pairs, all three invariants "
                        f"({elapsed:.1f}s)")
    assert pairs == 20
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. escape covers: H^s decay on both sides, empty cover at a rational angle
# ---------------------------------------------------------------------------

def test_criterion_08_cover_decay_and_rational_control():
    start = time.time()
    with pytest.warns(UserWarning):  # default exponents sit on the boundary
        rep = run_experiment(_cfg("thm1_cover", s=0.6))
    elapsed = time.time() - start
    sides = rep.data["sides"]
    decay = all(sides[side]["decay_strict"] for side in ("up", "down"))
    control = rep.data["control"]["certified_empty"]
    ok = rep.passed and decay and control and elapsed < 900.0
    assert _line(8, ok,
                 f"up={sides['up']['hs_sums']} down={sides['down']['hs_sums']} "
                 f"control_empty={control} ({elapsed:.1f}s)")
    assert rep.passed, rep.violations
    assert decay and control
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 9. mass hierarchy: local dimensions, exact masses, nesting
# ---------------------------------------------------------------------------

def test_criterion_09_mass_hierarchy():
    start = time.time()
    rep = run_experiment(_cfg("cantor_dim"))  # 512 bits, mu=2, m=1, depth 4
    deepest = mpf(rep.data["local_dimensions"][-1][1])
    # independent exact mass audit of the deepest materialized level
    materialized = [lev for lev in rep.data["hierarchy"]["levels"]
                    if "intervals" in lev]
    masses = [Fraction(node["mass"])
              for node in materialized[-1]["intervals"]]
    mass_sum = sum(masses)
    elapsed = time.time() - start
    depth = len(rep.data["hierarchy"]["levels"])
    ok = (rep.passed and depth >= 4 and deepest >= mpf("0.4")
          and mass_sum == 1 and elapsed < 600.0)
    assert _line(9, ok, f"depth={depth} deepest={mp.nstr(deepest, 6)} "
                        f"mass_sum={mass_sum} ({elapsed:.1f}s)")
    assert rep.passed, rep.violations
    assert depth >= 4
    assert deepest >= mpf("0.4")
    assert mass_sum == 1
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 10. perpendicular orbits: periodic at a rational angle, decided otherwise
# ---------------------------------------------------------------------------

def test_criterion_10_perpendicular_orbits():
    start = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rational = run_experiment(_cfg("perp_orbits"))  # alpha = pi/4
        irrational = run_experiment(_cfg(
            "perp_orbits", cap_doubling=True,
            polygon={"kind": "rhombus", "alpha": "1.0", "side": 1}))
    elapsed = time.time() - start
    pf = float(rational.data["results"]["base"]["periodic_fraction"])
    uf = float(irrational.data["results"]["base"]["undecided_fraction"])
    uf2 = float(irrational.data["results"]["doubled_cap"]["undecided_fraction"])
    ok = (rational.passed and irrational.passed and pf >= 1 - 10 / 2000
          and uf <= 0.05 and uf2 <= uf and elapsed < 600.0)
    assert _line(10, ok, f"periodic={pf} undecided={uf}->{uf2} "
                         f"({elapsed:.1f}s)")
    assert rational.passed, rational.violations
    assert irrational.passed, irrational.violations
    assert pf >= 1 - 10 / 2000
    assert uf <= 0.05 and uf2 <= uf
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 11. shrinking-arc coverage deficiency
# ---------------------------------------------------------------------------

def test_criterion_11_coverage_deficiency():
    start = time.time()
    rep = run_experiment(_cfg("ubiquity"))  # sqrt(2)-1, m=2, l=1, K=1
    defs = [mpf(v) for v in rep.data["deficiencies"]]
    elapsed = time.time() - start
    monotone = all(b <= a for a, b in zip(defs, defs[1:]))
    ok = rep.passed and monotone and defs[-1] < mpf("0.05") and elapsed < 60.0
    assert _line(11, ok, f"deficiencies={rep.data['deficiencies']} "
                         f"({elapsed:.1f}s)")
    assert rep.passed, rep.violations
    assert monotone and defs[-1] < mpf("0.05")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 12. byte-identical reports on re-run for every experiment
# ---------------------------------------------------------------------------

SMALL_CONFIGS = {
    "thm1_cover": {"p_max": 512, "reflection_cap": 20000, "control_max_n": 8},
    "thm2_cover": {"precision_bits": 256, "construct_steps": 4,
                   "reflection_cap": 5000},
    "cantor_dim": {"precision_bits": 192, "depth": 3},
    "ubiquity": {"n_values": [100, 400]},
    "minkowski_scan": {"pairs": 5, "p_max": 20000, "min_solutions": 1},
    "perp_orbits": {"samples": 40, "reflection_cap": 20000},
    "three_distance_audit": {"q_max": 1000, "e1_trials": 200,
                             "e1_check_sample": 10},
}


def test_criterion_12_reports_reproducible(tmp_path):
    start = time.time()
    unstable = []
    for experiment, options in SMALL_CONFIGS.items():
        out = tmp_path / experiment

        def run_once():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = run_experiment(_cfg(experiment, **options))
            names = write_report(rep, str(out))
            return {name: (out / name).read_bytes() for name in names}

        if run_once() != run_once():
            unstable.append(experiment)
    elapsed = time.time() - start
    ok = not unstable and elapsed < 600.0
    assert _line(12, ok, f"{len(SMALL_CONFIGS) - len(unstable)}/"
                         f"{len(SMALL_CONFIGS)} experiments byte-identical "
                         f"({elapsed:.1f}s)")
    assert not unstable, unstable
    assert elapsed < 600.0
