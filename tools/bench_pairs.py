"""Compare a revision with the working tree in alternating benchmark runs.

    python3 tools/bench_pairs.py REV [--workload W] [--pairs N] [--seconds S]
                                     [--seed N]

Exports ``REV`` with ``git archive`` into a new temporary directory and
copies this checkout's working tree (the files git lists, tracked or not
ignored, as they are on disk) into a sibling one, so that both sides run
from fresh directories of the same kind.  It then runs ``bench/run.py
--trace 0`` for ``--seconds`` each, alternately in the two directories,
``--pairs`` times per workload.  The side that runs first alternates from
pair to pair, so a drift in host speed favours neither.
``--workload`` may be repeated; by default every workload that
``BENCHMARK.json`` declares is run.  ``--seed`` is passed on to
``bench/run.py`` (its default seed when not given), so that a claim can be
checked on a seed other than the one it was measured on.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints, for the revision's and for the change's run values, the median
over the pairs and the quartiles, then the interquartile range of the
revision's values and the number of pairs in which the change was
better.  It exits non-zero if any run fails or reports ``correct:
false`` or ``failed > 0``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
# bench_record.py measures in a directory named like the "rev" side here,
# so that its end-to-end figures compare with these runs
TMP_PREFIX = "bench_pairs_"


def bench_run(tree: Path, workload: str, seconds: float,
              seed: Optional[int]) -> dict:
    """The result line of one ``bench/run.py --trace 0`` run in ``tree``."""
    seed_args = [] if seed is None else ["--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace",
         "0", "--seconds", str(seconds), *seed_args],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}"
                           f":\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} in {tree}: correct "
                           f"{result['correct']}, failed {result['failed']}"
                           f"\n{proc.stdout}")
    return result


def export(rev: str, dest: Path) -> None:
    """Extract the committed tree of ``rev`` into the new directory ``dest``
    with ``git archive``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    """Copy the files of this checkout that git lists, tracked or untracked
    but not ignored, as they are on disk, to ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        if (ROOT / rel).is_file():  # a deleted tracked file is still listed
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, dest / rel)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in bench["workloads"]]
    names = args.workload or declared
    unknown = sorted(set(names) - set(declared))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json "
                     f"declares {declared}")
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]

    with tempfile.TemporaryDirectory(prefix=TMP_PREFIX) as tmp:
        # equal-length names, so neither side gets the longer paths
        sides = {"rev": Path(tmp, "rev"), "change": Path(tmp, "new")}
        export(args.rev, sides["rev"])
        copy_working_tree(sides["change"])
        for name in names:
            values = {"rev": [], "change": []}
            for k in range(args.pairs):
                order = ("rev", "change") if k % 2 == 0 else ("change", "rev")
                for side in order:
                    try:
                        result = bench_run(sides[side], name, args.seconds,
                                           args.seed)
                    except RuntimeError as exc:
                        print(f"bench_pairs: {exc}", file=sys.stderr)
                        return 1
                    values[side].append({m: result["metrics"][m]["value"]
                                         for m, _ in metrics})
                print(f"{name} pair {k + 1}: " + "  ".join(
                    f"{m} {values['rev'][-1][m]:.4g} -> "
                    f"{values['change'][-1][m]:.4g}" for m, _ in metrics),
                    flush=True)
            for m, better in metrics:
                rev = [v[m] for v in values["rev"]]
                change = [v[m] for v in values["change"]]
                wins = sum(c < r if better == "lower" else c > r
                           for r, c in zip(rev, change))
                q1, q3 = quartiles(rev)
                c1, c3 = quartiles(change)
                print(f"{name:13} {m:12} {args.rev} median "
                      f"{statistics.median(rev):.4g} (quartiles {q1:.4g} "
                      f"{q3:.4g}, IQR {q3 - q1:.3g})  change median "
                      f"{statistics.median(change):.4g} (quartiles "
                      f"{c1:.4g} {c3:.4g})  change better in "
                      f"{wins}/{args.pairs} pairs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
