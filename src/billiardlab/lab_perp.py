"""The ``perp_orbits`` experiment: periodicity statistics of the
direction perpendicular to a side of a rhombus."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from mpmath import mpf

from .billiard import build_polygon, perpendicular_periodicity
from .experiments import (_BITS, _COUNT, _UNIT, Check, ExperimentConfig,
                          RunReport, _boolean, _integer, _polygon)
from .intervals import _dps_for, fmt

__all__ = ["run_perp"]

_SCHEMA: Dict[str, Dict[str, Tuple[Any, Check]]] = {
    "perp_orbits": {
        "precision_bits": (256, _BITS),
        "polygon": _polygon({"kind": "rhombus", "alpha": "pi/4", "side": 1},
                            "rhombus"),
        "samples": (2000, _COUNT),
        "reflection_cap": (100000, _COUNT),
        "singular_allowance": (10, _integer(0)),
        "undecided_threshold": (0.05, _UNIT),
        "cap_doubling": (False, _boolean),
    },
}


def _perp_row(cap: int, res: Mapping[str, Any]) -> str:
    return ",".join([str(cap), str(res["samples"]), str(res["returned"]),
                     str(res["vertex_uncertain"]), str(res["budget_exhausted"]),
                     fmt(res["periodic_fraction"], 12),
                     fmt(res["undecided_fraction"], 12),
                     str(res["retrace_checked"]), str(res["retrace_returned"]),
                     str(res["retrace_exact"])])


def run_perp(cfg: ExperimentConfig) -> RunReport:
    """Periodicity statistics of the perpendicular direction in a rhombus."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    q = build_polygon(cfg.polygon, bits)
    violations: List[str] = []
    notes: List[str] = []
    # omega = 2*alpha/pi mod 1 is rational exactly when alpha/pi is
    rational = None if q.alpha_rational is None else 2 * q.alpha_rational % 1
    res = perpendicular_periodicity(q, cfg.samples, cfg.reflection_cap)
    rows = [_perp_row(cfg.reflection_cap, res)]
    results = {"base": {k: (fmt(v, 15) if isinstance(v, mpf) else v)
                        for k, v in res.items()}}
    if rational is not None:
        mode = "rational"
        if res["returned"] < cfg.samples - cfg.singular_allowance:
            violations.append(
                f"periodic fraction {fmt(res['periodic_fraction'], 10)} below "
                f"1 - {cfg.singular_allowance}/{cfg.samples}")
        notes.append(f"rotation number is rational ({rational}); expecting "
                     "periodicity off a singular set")
    else:
        mode = "irrational"
        thr = float(cfg.undecided_threshold)
        if not res["undecided_fraction"] <= thr:
            violations.append(f"undecided fraction "
                              f"{fmt(res['undecided_fraction'], 10)} exceeds "
                              f"{thr:g}")
    if cfg.cap_doubling:
        res2 = perpendicular_periodicity(q, cfg.samples, 2 * cfg.reflection_cap)
        rows.append(_perp_row(2 * cfg.reflection_cap, res2))
        results["doubled_cap"] = {k: (fmt(v, 15) if isinstance(v, mpf) else v)
                                  for k, v in res2.items()}
        if res2["undecided_fraction"] > res["undecided_fraction"]:
            violations.append("undecided fraction increased when the "
                              "reflection budget doubled")
    data = {"mode": mode,
            "rotation_number": str(rational) if rational is not None else None,
            "alpha": fmt(q.alpha, full), "results": results}
    header = ("reflection_cap,samples,returned,vertex_uncertain,"
              "budget_exhausted,periodic_fraction,undecided_fraction,"
              "retrace_checked,retrace_returned,retrace_exact")
    return RunReport("perp_orbits", violations, notes,
                     {"periodicity": (header, rows)}, data, cfg)


_RUNNERS = {"perp_orbits": run_perp}
