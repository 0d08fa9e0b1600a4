"""Record one point of the benchmark trajectory.

    python3 tools/bench_record.py LABEL

Exports the committed tree (``HEAD``) with ``git archive`` into a new
temporary directory, laid out as ``tools/bench_pairs.py`` lays out the
revision it compares, and runs ``bench/run.py --trace 0`` there once for
each workload that ``BENCHMARK.json`` declares, one after another and for
that file's ``run_seconds`` each.  It writes ``BENCH_<LABEL>.json`` at the
root of this checkout.  Per workload the file holds the result line of
``bench/run.py`` (``correct``, ``attempted``, ``failed`` and the median of
each end-to-end metric), the quartiles of those metrics and the
environment from the run's record; beside them, the commit (``git
describe --always``) and the Python version.  ``lab_defaults`` maps each
``lab`` experiment to the wall seconds of one run of the export at its
default config, in a fresh process (interpreter start and import
included) whose working directory is a new temporary directory.
Uncommitted changes are not measured, so the commit recorded is the code
measured.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, TMP_PREFIX, export


def lab_default_seconds(tree: Path) -> dict:
    """Wall seconds of one default-config ``lab`` run per experiment.

    An exit status of 2 (a run that reports a violated invariant, as
    three_distance_audit does by design) still counts as a completed run.
    """
    sys.path.insert(0, str(tree / "src"))
    from billiardlab.experiments import EXPERIMENTS

    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    seconds = {}
    for name in sorted(EXPERIMENTS):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "config.json").write_text("{}")
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "billiardlab.cli", name,
                 "--config", "config.json"],
                cwd=tmp, env=env, capture_output=True, text=True)
            seconds[name] = time.perf_counter() - start
        if proc.returncode not in (0, 2):
            raise RuntimeError(f"lab {name} exited {proc.returncode}:\n"
                               f"{proc.stdout}{proc.stderr}")
        print(f"lab {name}: {seconds[name]:.3f} s")
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    commit = subprocess.run(["git", "describe", "--always"], cwd=ROOT,
                            capture_output=True, check=True,
                            text=True).stdout.strip()
    workloads = {}
    with tempfile.TemporaryDirectory(prefix=TMP_PREFIX) as tmp:
        tree = Path(tmp, "rev")
        export("HEAD", tree)
        for name in names:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name,
                 "--trace", "0", "--seconds", str(seconds)],
                cwd=tree, capture_output=True, text=True)
            if proc.returncode:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (tree / ".bench_work" / f"{name}.trace0.json").read_text())
            workloads[name] = dict(result, end_to_end=record["end_to_end"],
                                   env=record["env"])
            print(f"{name}: {json.dumps(result)}")
        lab_defaults = lab_default_seconds(tree)
    out = {"label": args.label, "commit": commit,
           "python": platform.python_version(), "seconds": seconds,
           "workloads": workloads, "lab_defaults": lab_defaults}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
