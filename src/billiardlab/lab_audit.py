"""The ``three_distance_audit`` experiment: the three-distance minimum
gap along convergent denominators, and the average-length packing count."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .circle import CirclePoint, continued_fraction, three_distance_bounds
from .dimension import average_length_cover
from .experiments import (_BITS, _COUNT, Check, ExperimentConfig, RunReport,
                          _expr, _integer, _list)
from .intervals import fmt
from .rng import Generator

__all__ = ["run_audits"]

_SCHEMA: Dict[str, Dict[str, Tuple[Any, Check]]] = {
    "three_distance_audit": {
        "precision_bits": (256, _BITS),
        "omegas": (["(sqrt(5)-1)/2", "sqrt(2)-1"], _list(_expr())),
        "q_max": (100000, _COUNT),
        "e1_trials": (10000, _COUNT),
        # j is drawn on numpy's 32-bit path, the one rng.Generator reproduces
        "e1_j_max": (1000, _integer(1, (1 << 32) - 1)),
        "e1_check_sample": (50, _integer(0)),
    },
}


def run_audits(cfg: ExperimentConfig) -> RunReport:
    """Three-distance minimum-gap audit plus the average-length packing audit.

    A packing trial draws j lengths a_k and counts Σ⌊a_k·j/Σa⌋ + j pieces.
    Each floor is at most a_k·j/Σa, so the count is at most 2j < 3j: no
    trial can break the 3j bound.  So only the trials the report reads are
    drawn, the first max(e1_check_sample, 10) of the e1_trials, and the rest
    are settled by that identity; stopping the stream early changes none
    of the values drawn before the cutoff."""
    bits = cfg.precision_bits
    violations: List[str] = []
    notes: List[str] = []
    gap_rows = []
    claimed_violations = 0
    for expr in cfg.omegas:
        om = CirclePoint.make(expr, bits)
        cf = continued_fraction(om, max_depth=512)
        for r in range(1, cf.validated_depth):
            q_r = cf.denominator(r)
            if q_r > cfg.q_max:
                break
            q_next = cf.denominator(r + 1)
            gap, claimed, claimed_ok, true_bound, true_ok = \
                three_distance_bounds(cf, r)
            gap_rows.append(",".join([json.dumps(expr), str(r), str(q_r),
                                      str(q_next), fmt(gap, 15),
                                      fmt(claimed, 15), str(claimed_ok),
                                      fmt(true_bound, 15), str(true_ok)]))
            if not claimed_ok:
                claimed_violations += 1
                violations.append(f"omega={expr}, r={r}: min gap "
                                  f"{fmt(gap, 10)} < 1/(q_r+2)")
            if not true_ok:
                violations.append(f"omega={expr}, r={r}: min gap below "
                                  "1/(q_(r+1)+q_r)")
    rng = Generator(cfg.seed)
    packing_violations = 0
    cross_checked = 0
    cross_failures = 0
    example_rows = []
    for i in range(min(cfg.e1_trials, max(cfg.e1_check_sample, 10))):
        j = rng.integers(1, cfg.e1_j_max + 1)
        lens = rng.integers(1, 1 << 30, size=j)
        total = sum(lens)
        count = sum(a * j // total for a in lens) + j
        ok = count <= 3 * j
        if not ok:
            packing_violations += 1
        if i < cfg.e1_check_sample:
            rep = average_length_cover(lens, total)
            cross_checked += 1
            if rep.count != count or rep.bound_3n_ok != ok:
                cross_failures += 1
        if i < 10:
            example_rows.append(",".join([str(i), str(j), str(count),
                                          str(3 * j), str(ok)]))
    if packing_violations:
        violations.append(f"{packing_violations} packing trials exceeded the "
                          "3n piece bound")
    if cross_failures:
        violations.append(f"{cross_failures} integer-arithmetic packing counts "
                          "disagreed with average_length_cover")
    data = {"q_max": cfg.q_max, "omegas": list(cfg.omegas),
            "gap_rows": len(gap_rows),
            "claimed_bound_violations": claimed_violations,
            "packing": {"trials": cfg.e1_trials, "j_max": cfg.e1_j_max,
                        "violations": packing_violations,
                        "cross_checked": cross_checked,
                        "cross_failures": cross_failures}}
    tables = {
        "three_distance": ("omega,r,q_r,q_next,min_gap,claimed_bound,"
                           "claimed_ok,true_bound,true_ok", gap_rows),
        "packing": ("index,j,count,bound_3j,ok", example_rows),
    }
    return RunReport("three_distance_audit", violations, notes,
                     tables, data, cfg)


_RUNNERS = {"three_distance_audit": run_audits}
