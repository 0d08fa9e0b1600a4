"""Rewrite ``digests.json`` from one untraced pass of every workload.

    python3 bench/make_digests.py

Run it only to accept a deliberate change of report bytes: the digests
are the benchmark's correctness check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    table = {}
    for workload in workloads.WORKLOADS:
        cwd = run.WORK / workload
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        res = run.run_pass(workload, workloads.DEFAULT_SEED, cwd, None, "",
                           run.DEADLINE_S)
        for outcome in res["outcomes"]:
            if outcome["error"] is not None:
                print(f"{outcome['experiment']}: {outcome['error']}",
                      file=sys.stderr)
                return 1
            for rel in outcome["files"]:
                path = cwd / rel
                table[path.name] = run.sha256(path.read_bytes())
    run.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
