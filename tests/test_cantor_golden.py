"""Same-bytes gate beyond the defaults: each non-default config below
must write reports whose SHA-256 digests match ``golden.json``, or raise
the exception class and message recorded there.  The bench digests cover
only the default configs.  The ``cantor_dim`` configs also reach other
rotation numbers, another exponent, a stored level over three residue
classes, the scan cap, and a counted level under 10,580 parents at 1,024
bits; the others reach a finer ``thm1_cover`` grid, a ``thm2_cover``
parallelogram, ``perp_orbits`` on an irrational rhombus, and the family
subtraction of ``ubiquity`` with its failing verdict.

The same file holds digests of a library output that no report shows:
every transit table (or the exception its build raises) of five polygons,
two of them non-convex staircases, at four directions, both parities,
levels -3..3 and every source side.

    PYTHONPATH=src python tests/test_cantor_golden.py --regen

rewrites the file.  Run it only to accept a deliberate change of output.
"""

import hashlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from mpmath import mpf

from billiardlab.billiard import _LAUNCH, _Tracer, parallelogram, rhombus
from billiardlab.errors import DegenerateDirection
from billiardlab.experiments import ExperimentConfig, run_experiment, write_report
from billiardlab.fixedpoint import mpf_to_fraction
from test_billiard import staircase

GOLDEN = Path(__file__).resolve().parent / "golden.json"

CONFIGS = {  # name: (experiment, overrides)
    "sqrt2_depth3": ("cantor_dim", {"omega": "sqrt(2)-1", "depth": 3}),
    "sqrt3_depth3": ("cantor_dim", {"omega": "sqrt(3)-1", "depth": 3}),
    "e_depth3": ("cantor_dim", {"omega": "e-2", "depth": 3}),
    "e_depth4_bits1024": ("cantor_dim", {"omega": "e-2", "depth": 4,
                                         "precision_bits": 1024}),
    "mu3_depth3": ("cantor_dim", {"mu": 3.0, "depth": 3}),
    "m3_depth2": ("cantor_dim", {"m": 3, "depth": 2}),
    "m3_depth3": ("cantor_dim", {"m": 3, "depth": 3}),           # DepthUnreachable
    "pi_depth3": ("cantor_dim", {"omega": "pi-3", "depth": 3}),  # CapTooSmall
    "thm1_bits512": ("thm1_cover", {"precision_bits": 512}),
    "thm1_cap1e6": ("thm1_cover", {"reflection_cap": 1000000}),
    "thm2_base2": ("thm2_cover",
                   {"polygon": {"kind": "parallelogram", "base": 2}}),
    "perp_alpha07": ("perp_orbits", {"polygon": {"alpha": "0.7"},
                                     "samples": 300, "reflection_cap": 5000}),
    "ubiquity_m3": ("ubiquity", {"m": 3, "coverage_constant": 0.001,
                                 "n_values": [10, 30, 100]}),
}
CANTOR = sorted(k for k, (exp, _) in CONFIGS.items() if exp == "cantor_dim")
OTHERS = sorted(set(CONFIGS) - set(CANTOR))

POLYGONS = {  # name: polygon factory
    "golden_rhombus": lambda: rhombus("pi*(sqrt(5)-1)/4"),
    "pi3_rhombus": lambda: rhombus("pi/3"),                   # b_mod 3
    "a07_parallelogram_64": lambda: parallelogram("0.7", "sqrt(2)", 1, 64),
    "l_shape": lambda: staircase(2),
    "staircase3": lambda: staircase(3),
}
THETAS = ("0.3", "1.3", "2.2", "4.0")
TABLES = {f"tables_{poly}_{theta}": (poly, theta)
          for poly in POLYGONS for theta in THETAS}

def outcome(name: str) -> dict:
    """The config, and the digest of each report it writes or the
    exception it raises.  Run from an empty working directory, so that the
    default relative out_dir echoed in the reports stays "lab_out"."""
    experiment, overrides = CONFIGS[name]
    try:
        cfg = ExperimentConfig.from_json_obj(overrides, experiment)
        files = write_report(run_experiment(cfg), cfg.out_dir)
    except Exception as exc:  # a refused config's message is its output
        return {"config": overrides, "error": f"{type(exc).__name__}: {exc}"}
    return {"config": overrides,
            "files": {f: hashlib.sha256((Path(cfg.out_dir) / f).read_bytes())
                      .hexdigest() for f in files}}


def _exact(value):
    """A JSON-ready value: an mpf as its exact rational, the rest as is."""
    return str(mpf_to_fraction(value)) if isinstance(value, mpf) else value


def table_outcome(poly: str, theta: str) -> dict:
    """The digest of every ``_build_table`` outcome of one polygon at one
    direction: its fields, or the exception class and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the pi/3 rhombus is rational
        q = POLYGONS[poly]()
    tracer = _Tracer(q, theta)
    digest = hashlib.sha256()
    counts = {"builds": 0, "errors": 0, "multi_chord": 0}
    for odd in (0, 1):
        for n in range(-3, 4):
            for side in (_LAUNCH, *range(len(q.vertices))):
                counts["builds"] += 1
                try:
                    t = tracer._build_table(odd, n, side)
                except DegenerateDirection as exc:
                    counts["errors"] += 1
                    record = f"{type(exc).__name__}: {exc}"
                else:
                    counts["multi_chord"] += t.max_chords > 1
                    record = [t.dom_lo, t.dom_hi, t.los, t.his, t.targets,
                              t.deltas, t.classes, t.raw_cells, t.max_chords,
                              _exact(t.width_exact)]
                digest.update(json.dumps(record).encode() + b"\n")
    return dict(counts, digest=digest.hexdigest())


def _matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outcome(name) == golden[name]


@pytest.mark.parametrize("name", CANTOR)
def test_cantor_config_matches_golden(name, tmp_path, monkeypatch):
    _matches_golden(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", OTHERS)
def test_config_matches_golden(name, tmp_path, monkeypatch):
    _matches_golden(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_transit_tables_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert table_outcome(*TABLES[name]) == golden[name]


def _regen() -> None:
    table = {}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            table[name] = outcome(name)
    for name, (poly, theta) in TABLES.items():
        table[name] = table_outcome(poly, theta)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(table)} outcomes to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    _regen()
