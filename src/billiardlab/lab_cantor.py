"""The ``cantor_dim`` experiment: a nested mass hierarchy built along a
continued-fraction subsequence, and its local dimension ladder."""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Tuple

from .cantor import (DEFAULT_MATERIALIZE_CAP, DEFAULT_SCAN_CAP,
                     local_dimension_report, select_sequence, separation_report)
from .circle import CirclePoint, continued_fraction
from .experiments import (_BITS, _COUNT, _INF, _UNIT, Check, ExperimentConfig,
                          RunReport, _expr, _integer, _optional, _real)
from .intervals import _dps_for, fmt

__all__ = ["run_cantor"]

_SCHEMA: Dict[str, Dict[str, Tuple[Any, Check]]] = {
    "cantor_dim": {
        "precision_bits": (512, _BITS),
        "omega": ("(sqrt(5)-1)/2", _expr()),
        "mu": (2.0, _real(1, _INF)),
        "m": (1, _COUNT),
        "depth": (4, _integer(2)),
        "growth_margin": (0.1, _UNIT),
        "scan_cap": (DEFAULT_SCAN_CAP, _COUNT),
        "materialize_cap": (DEFAULT_MATERIALIZE_CAP, _COUNT),
        "ratio_floor": (None, _optional(_UNIT)),
    },
}


def run_cantor(cfg: ExperimentConfig) -> RunReport:
    """Build a nested mass hierarchy and audit its local dimension ladder."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    violations: List[str] = []
    notes: List[str] = []
    om = CirclePoint.make(cfg.omega, bits)
    cf = continued_fraction(om, max_depth=2048)
    mu, m = float(cfg.mu), cfg.m
    h = select_sequence(cf, mu, m, cfg.depth, cfg.growth_margin,
                        scan_cap=cfg.scan_cap,
                        materialize_cap=cfg.materialize_cap)
    dims = local_dimension_report(h)
    floor = (float(cfg.ratio_floor) if cfg.ratio_floor is not None
             else 1.0 / mu - 0.1)
    deepest = dims[-1][1]
    if not deepest >= floor:
        violations.append(f"deepest local dimension ratio {fmt(deepest, 10)} "
                          f"fell below the floor {floor:g}")
    for k in range(1, h.depth + 1):
        if h.level(k).mass_total() != Fraction(1):
            violations.append(f"level {k} masses do not sum to 1 exactly")
    unions = [h.level_union(k) if h.level(k).materialized else None
              for k in range(1, h.depth + 1)]
    for k in range(1, h.depth):
        outer, inner = unions[k - 1], unions[k]
        if outer is None or inner is None:
            notes.append(f"nesting of level {k + 1} in level {k} verified "
                         "during construction (counted level)")
            continue
        if not inner.is_subset_of(outer):
            violations.append(f"level {k + 1} union escapes level {k}")
    level_rows = []
    for k in range(1, h.depth + 1):
        lvl = h.level(k)
        level_rows.append(",".join([str(k), str(lvl.n_k), str(lvl.count),
                                    str(lvl.half_fp),
                                    str(lvl.max_mass()),
                                    fmt(dims[k - 1][1], 12)]))
    sep_rows = []
    for row in separation_report(h):
        sep_rows.append(",".join([str(row["level"]), str(row["n_k"]),
                                  fmt(row["orbit_min_distance"], 15),
                                  fmt(row["measured_min_distance"], 15)
                                  if row["measured_min_distance"] is not None else "",
                                  fmt(row["claimed_bound"], 15),
                                  str(row["claimed_ok"]),
                                  fmt(row["companion_bound"], 15),
                                  str(row["companion_ok"])]))
    data = {"omega": fmt(om.value, full), "mu": fmt(mu), "m": m,
            "sequence": list(h.sequence), "ratio_floor": fmt(floor),
            "local_dimensions": [[k, fmt(r, 12)] for k, r in dims],
            "hierarchy": h.to_json_obj()}
    tables = {
        "levels": ("k,n_k,count,half_width_ulps,max_mass,local_dim", level_rows),
        "separation": ("level,n_k,orbit_min,measured_min,claimed_bound,"
                       "claimed_ok,companion_bound,companion_ok", sep_rows),
    }
    return RunReport("cantor_dim", violations, notes, tables, data, cfg)


_RUNNERS = {"cantor_dim": run_cantor}
