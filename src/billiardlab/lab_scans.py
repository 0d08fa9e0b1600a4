"""The ``ubiquity`` and ``minkowski_scan`` experiments: coverage of the
circle by shrinking arcs along a residue class, and Minkowski's
inhomogeneous solutions for random pairs."""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Mapping, Tuple

from .circle import CirclePoint
from .dioph import minkowski_solutions, ubiquity_deficiency, ubiquity_rho
from .errors import ConfigError
from .experiments import (_BITS, _COUNT, _UNIT, Check, ExperimentConfig,
                          RunReport, _collect_warnings, _expr, _integer, _list,
                          _real)
from .intervals import _dps_for, fmt
from .rng import Generator

__all__ = ["run_minkowski", "run_ubiquity"]

_SCHEMA: Dict[str, Dict[str, Tuple[Any, Check]]] = {
    "ubiquity": {
        "precision_bits": (256, _BITS),
        "omega": ("sqrt(2)-1", _expr()),
        "m": (2, _COUNT),
        "l": (1, _integer(0)),
        "coverage_constant": (1.0, _real(0, 10 ** 9)),
        "eps": (0.05, _UNIT),
        "n_values": ([100, 1000, 10000], _list(_COUNT, increasing=True)),
        "threshold": (0.05, _UNIT),
    },
    "minkowski_scan": {
        "precision_bits": (256, _BITS),
        "pairs": (100, _COUNT),
        "p_max": (1000000, _COUNT),
        "min_solutions": (5, _COUNT),
    },
}


def _check_across(opts: Mapping[str, Any]) -> None:
    """The rules that tie one option to another."""
    if opts["experiment"] == "ubiquity" and opts["l"] >= opts["m"]:
        raise ConfigError(f"residue l={opts['l']} must be < m={opts['m']}")


def run_ubiquity(cfg: ExperimentConfig) -> RunReport:
    """Coverage deficiency of shrinking arcs along a residue class."""
    bits = cfg.precision_bits
    full = _dps_for(bits) - 1  # digits of a full-precision field
    om = CirclePoint.make(cfg.omega, bits)
    m, l = cfg.m, cfg.l
    K, eps = float(cfg.coverage_constant), float(cfg.eps)
    violations: List[str] = []
    notes: List[str] = []
    rows = []
    deficiencies = []
    for n in cfg.n_values:
        rho = ubiquity_rho(m, l, n, K, eps, bits=bits)
        defi = ubiquity_deficiency(om, m, l, n, K, eps)
        deficiencies.append(defi)
        rows.append(",".join([str(n), fmt(rho, 15), fmt(defi, 15)]))
    for a, b in zip(deficiencies, deficiencies[1:]):
        if b > a:
            violations.append("coverage deficiency increased along the N ladder")
            break
    threshold = float(cfg.threshold)
    if not deficiencies[-1] < threshold:
        violations.append(f"final deficiency {fmt(deficiencies[-1], 10)} is "
                          f"not below {threshold:g}")
    data = {"omega": fmt(om.value, full), "m": m, "l": l,
            "coverage_constant": fmt(K), "eps": fmt(eps),
            "n_values": list(cfg.n_values),
            "deficiencies": [fmt(v, 15) for v in deficiencies]}
    return RunReport("ubiquity", violations, notes,
                     {"deficiency": ("n,rho,deficiency", rows)}, data, cfg)


def run_minkowski(cfg: ExperimentConfig) -> RunReport:
    """Random (t, omega) pairs each admit ||t + p*omega|| < 1/(4p) solutions."""
    bits = cfg.precision_bits
    violations: List[str] = []
    notes: List[str] = []
    rng = Generator(cfg.seed)
    rows = []
    counts = []
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        for i in range(cfg.pairs):
            tv = rng.random()
            ov = rng.random()
            t = CirclePoint.make(tv, bits)
            om = CirclePoint.make(ov, bits)
            sols = minkowski_solutions(t, om, cfg.p_max)
            count = len(sols)
            pos = sum(1 for s in sols if s.p > 0)
            counts.append(count)
            rows.append(",".join([str(i), repr(tv), repr(ov), str(count),
                                  str(pos), str(count - pos)]))
            if count < cfg.min_solutions:
                violations.append(f"pair {i}: only {count} integer solutions "
                                  f"with |p| <= {cfg.p_max}")
    _collect_warnings(records, notes)
    data = {"pairs": cfg.pairs, "p_max": cfg.p_max,
            "min_solutions_required": cfg.min_solutions,
            "min_count": min(counts) if counts else 0,
            "max_count": max(counts) if counts else 0}
    return RunReport("minkowski_scan", violations, notes,
                     {"pairs": ("index,t,omega,count,positive_p,negative_p",
                                rows)},
                     data, cfg)


_RUNNERS = {"ubiquity": run_ubiquity, "minkowski_scan": run_minkowski}
