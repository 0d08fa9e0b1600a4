"""One pass of a workload in a fresh process, as one ``lab`` call pays it.

Run by ``run.py`` with the report directory as working directory, so each
config keeps the default relative ``out_dir`` and its reports match the
checked-in digests.  Prints one JSON line: the monotonic time at which
set-up ended, the outcome and wall time of each experiment, the times of
the reference kernel run after set-up and after each experiment, the peak
resident memory and the environment.  With ``--spans PATH``
the public calls into every library module are traced and the spans
written to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sits beside this file)


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python job of loop, dict and big-integer
    work, the mix the library runs.  It gauges how fast the machine is at
    the moment; never change it, as it defines the unit of scaled times."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(100_000):
        total += (i * 7919) % 104729
        table[i & 1023] = total
    x, m = 3 ** 2000, 10 ** 600 + 7
    for _ in range(500):
        x = x * x % m
    return time.perf_counter() - start


def environment() -> dict:
    import mpmath
    import numpy as np
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "limits": "process-local timing only; no CPU pinning; "
                  "no cache dropping",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    from billiardlab import experiments
    if not Path(experiments.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"billiardlab loaded from {experiments.__file__}, "
                         f"not from {ROOT / 'src'}")
    configs = [experiments.ExperimentConfig.from_json_obj(obj, name)
               for name, obj in workloads.config_objects(args.workload,
                                                         args.seed)]
    setup_done = time.monotonic()
    kernel_s = [reference_kernel()]

    recorder = None
    if args.spans:
        import tracing
        recorder = tracing.Recorder(args.run_id)
        tracing.install(recorder)

    outcomes = []
    for cfg in configs:
        outcome = {"experiment": cfg.experiment, "passed": None, "files": [],
                   "error": None}
        start = time.perf_counter()
        try:
            report = experiments.run_experiment(cfg)
            files = experiments.write_report(report, cfg.out_dir)
        except Exception as exc:  # a failed experiment counts; the pass goes on
            traceback.print_exc()
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        else:
            outcome["passed"] = report.passed
            outcome["files"] = [os.path.join(cfg.out_dir, f) for f in files]
        outcome["wall_s"] = time.perf_counter() - start
        kernel_s.append(reference_kernel())
        outcomes.append(outcome)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if recorder is not None:
        recorder.write(args.spans)
    print(json.dumps({"setup_done": setup_done, "kernel_s": kernel_s,
                      "peak_rss_mb": peak_kb / 1024, "outcomes": outcomes,
                      "spans": len(recorder.spans) if recorder else 0,
                      "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
