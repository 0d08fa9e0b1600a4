"""Print one digest per default experiment of every tracer table it builds.

    python3 tools/table_digest.py [--src DIR]

Imports ``billiardlab`` from ``DIR`` (by default this checkout's ``src/``)
and runs each of the seven experiments in process at its default config,
without writing reports.  Wrappers on ``_Tracer._frame``,
``_Tracer._build_table`` and ``_Tracer._build_pair`` feed, in build order,
every frame built (all five fields of the frame tuple: the direction phi
and its cos and sin as exact rationals, ``proj_i``, ``spans`` and
``deltas``), every
transit table (the fields that ``tests/golden.json`` pins) and every pair
table as first built (cells and single-step records) into one SHA-256 per
experiment; a build that raises feeds its exception instead.  It prints
the digest, the number of frames, transit and pair tables built, and the
``counts`` of the run's tracers, summed.

Run it with ``--src`` pointing at another tree's ``src/`` to check that
two revisions build the same tables in the default runs, deep levels
included: the digests and build numbers must match line for line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _exact(value):
    """A JSON-ready value: an mpf as its exact rational, an exception as its
    class and message, a sequence item by item, the rest as is."""
    from billiardlab.fixedpoint import mpf_to_fraction
    from mpmath import mpf

    if isinstance(value, mpf):
        return str(mpf_to_fraction(value))
    if isinstance(value, Exception):
        return f"{type(value).__name__}: {value}"
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def digest_defaults() -> dict:
    """{experiment: (digest, builds, counts)} over the seven default runs."""
    from billiardlab import billiard as B
    from billiardlab.experiments import (EXPERIMENTS, ExperimentConfig,
                                         run_experiment)

    tracer_cls = B._Tracer
    state = {}

    def feed(kind, key, build, *args):
        try:
            made = build(*args)
        except Exception as exc:
            state["hash"].update(json.dumps(
                [kind, key, _exact(exc)]).encode() + b"\n")
            raise
        state["builds"][kind] += 1
        return made

    def record(kind, key, fields):
        state["hash"].update(json.dumps(
            [kind, key, _exact(fields)]).encode() + b"\n")

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        state["tracers"].append(self)

    def frame(self, odd, n):
        if (odd, n) in self.frames:
            return orig_frame(self, odd, n)
        f = feed("frame", [odd, n], orig_frame, self, odd, n)
        record("frame", [odd, n], list(f))
        return f

    def build_table(self, odd, n, side):
        t = feed("transit", [odd, n, side], orig_table, self, odd, n, side)
        record("transit", [odd, n, side],
               [t.dom_lo, t.dom_hi, t.los, t.his, t.targets, t.deltas,
                t.classes, t.raw_cells, t.max_chords, t.width_exact])
        return t

    def build_pair(self, n, side):
        p = feed("pair", [n, side], orig_pair, self, n, side)
        record("pair", [n, side], p)
        return p

    orig_init, orig_frame = tracer_cls.__init__, tracer_cls._frame
    orig_table, orig_pair = tracer_cls._build_table, tracer_cls._build_pair
    tracer_cls.__init__, tracer_cls._frame = init, frame
    tracer_cls._build_table, tracer_cls._build_pair = build_table, build_pair
    out = {}
    try:
        for name in sorted(EXPERIMENTS):
            state.update(hash=hashlib.sha256(), tracers=[],
                         builds=dict.fromkeys(("frame", "transit", "pair"), 0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_experiment(ExperimentConfig.from_json_obj({}, name))
            counts = {}
            for tracer in state["tracers"]:
                for key, value in tracer.counts.items():
                    counts[key] = counts.get(key, 0) + value
            out[name] = (state["hash"].hexdigest(), state["builds"], counts)
    finally:
        tracer_cls.__init__, tracer_cls._frame = orig_init, orig_frame
        tracer_cls._build_table, tracer_cls._build_pair = orig_table, orig_pair
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory that holds the billiardlab package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    for name, (digest, builds, counts) in digest_defaults().items():
        print(f"{name} {digest} {json.dumps(builds)} "
              f"{json.dumps(counts, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
