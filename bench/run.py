"""billiardlab benchmark: run one workload for a fixed time and report.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Passes of the workload (see
``workloads.py``) run one after another, each in a fresh process started
by ``one_pass.py``: a closed loop with one client.  Passes start until
``--seconds`` have elapsed (at least three of each kind).

``--trace 0`` passes are untraced and give the end-to-end metrics:
``run_s`` (one pass: the experiments and their ``write_report``) and
``setup_s`` (process start until ``billiardlab`` is imported and the
configs are validated), each the median over the passes, and
``peak_rss_mb`` (peak resident memory of the pass process), the mean.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``; the traced ``run_s`` over the
untraced one is the tracing overhead.

Times are scaled to a reference machine speed.  The host this benchmark
was built on changes speed by up to half within minutes (other guests
share its cores), and wall time alone then says more about the host than
about the program.  Each pass process times a fixed pure-Python kernel
(``one_pass.reference_kernel``) right after set-up and after each
experiment; a time reported in seconds is the measured wall time times
``KERNEL_REF_S`` over the kernel time next to it (set-up uses the kernel
run right after it, each experiment the mean of the runs around it).  The
unscaled wall times are printed and recorded beside the scaled ones.

Every experiment run is checked: it must not raise, must report the
expected verdict, and its report files must match the SHA-256 digests in
``digests.json`` (taken at the default seed; at other seeds the echoed
``seed`` option is set back first, and seed-dependent files must repeat
exactly from pass to pass).  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
above it print every metric with its unit, quartiles and sample count,
the report digests and the environment.  A full record goes to
``.bench_work/<workload>.trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

MIN_PASSES = 3
KERNEL_REF_S = 0.025  # median reference-kernel time on a 2-vCPU x86 VM
DEADLINE_S = 170  # the whole invocation must end within 180 s

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
WALL = [("run_wall_s", "s"), ("setup_wall_s", "s")]  # printed, not bounded


class PassError(RuntimeError):
    """A pass process failed as a whole (it could not run the workload)."""


def normalized(path: Path, seed: int) -> bytes:
    """Report bytes as the default seed would write them, for files that
    depend on the seed only through the echoed ``seed`` option."""
    raw = path.read_bytes()
    if seed == workloads.DEFAULT_SEED or path.suffix != ".json":
        return raw
    obj = json.loads(raw)
    if "seed" in obj:
        obj["seed"] = workloads.DEFAULT_SEED
    obj["config"]["seed"] = workloads.DEFAULT_SEED
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pass(workload: str, seed: int, cwd: Path, spans: Path | None,
             run_id: str, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans), "--run-id", run_id]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise PassError(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"pass exited with {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if any(o["error"] for o in result["outcomes"]):
        sys.stderr.write(proc.stderr)
    kernel = result["kernel_s"]
    walls = [o["wall_s"] for o in result["outcomes"]]
    result["setup_wall_s"] = result["setup_done"] - started
    result["setup_s"] = result["setup_wall_s"] * KERNEL_REF_S / kernel[0]
    result["run_wall_s"] = sum(walls)
    result["run_s"] = sum(w * KERNEL_REF_S / ((a + b) / 2)
                          for w, a, b in zip(walls, kernel, kernel[1:]))
    result["scale"] = result["run_s"] / result["run_wall_s"]
    return result


class Checker:
    """Correctness of each experiment run against the checked-in reports."""

    def __init__(self, seed: int, cwd: Path):
        self.seed = seed
        self.cwd = cwd
        self.expected = json.loads(DIGESTS.read_text())
        self.first_seen: dict = {}  # seed-dependent file -> digest, this run
        self.digests: dict = {}     # file -> raw digest of the latest pass
        self.problems: list = []

    def check(self, outcome: dict) -> bool:
        name = outcome["experiment"]
        if outcome["error"] is not None:
            self.problems.append(f"{name}: raised {outcome['error']}")
            return False
        ok = True
        want = workloads.EXPECTED_PASSED.get(name, True)
        if outcome["passed"] is not want:
            self.problems.append(f"{name}: passed={outcome['passed']}, "
                                 f"expected {want}")
            ok = False
        files = sorted(os.path.basename(f) for f in outcome["files"])
        expected_files = sorted(f for f in self.expected
                                if f.split(".")[0] == name)
        if files != expected_files:
            self.problems.append(f"{name}: wrote {files}, expected "
                                 f"{expected_files}")
            ok = False
        for rel in outcome["files"]:
            path = self.cwd / rel
            fname = path.name
            self.digests[fname] = sha256(path.read_bytes())
            got = sha256(normalized(path, self.seed))
            if fname in workloads.SEEDED_FILES and self.seed != workloads.DEFAULT_SEED:
                want_digest = self.first_seen.setdefault(fname, got)
            else:
                want_digest = self.expected.get(fname)
            if got != want_digest:
                self.problems.append(f"{name}: {fname} digest {got[:16]} "
                                     f"differs from {str(want_digest)[:16]}")
                ok = False
        return ok


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile) as statistics gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one billiardlab workload and report its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.monotonic()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error(f"--seconds must lie in (0, 120] to end within "
                     f"{DEADLINE_S} s")
    if not (ROOT / "src" / "billiardlab" / "__init__.py").is_file():
        print(f"run.py: no billiardlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    cwd = WORK / args.workload
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    checker = Checker(args.seed, cwd)
    samples = {"plain": [], "traced": []}
    layer_samples, inclusive_shares = [], []
    attempted = failed = 0
    env = None
    i = 0
    while i < MIN_PASSES * len(kinds) or time.monotonic() - began < args.seconds:
        kind = kinds[i % len(kinds)]
        spans = cwd / f"spans-{i}.jsonl" if kind == "traced" else None
        run_id = f"{args.workload}-{args.seed}-{i}"
        try:
            res = run_pass(args.workload, args.seed, cwd, spans, run_id,
                           DEADLINE_S - (time.monotonic() - began))
        except PassError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        env = res["env"]
        for outcome in res["outcomes"]:
            attempted += 1
            failed += not checker.check(outcome)
        samples[kind].append(res)
        if spans is not None:
            span_list = tracing.read_spans(str(spans))
            layer_samples.append(tracing.layer_metrics(
                tracing.aggregate(span_list), res["run_s"], len(span_list),
                res["scale"]))
            inclusive_shares.append({
                layer: ns / 1e9 / res["run_wall_s"]
                for layer, ns in tracing.inclusive_ns(span_list).items()})
        i += 1

    e2e = {name: spread([r[name] for r in samples["plain"]])
           for name, _ in END_TO_END + WALL}
    # Resident memory comes in whole pages, so the median of a run often
    # equals that of the next; the mean keeps the digits the passes differ in.
    e2e["peak_rss_mb"] = (statistics.mean(r["peak_rss_mb"]
                                          for r in samples["plain"]),
                          *e2e["peak_rss_mb"][1:])
    metrics = {}
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(samples['plain'])} untraced, {len(samples['traced'])} traced")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{'metric':44} {'unit':6} {'value':>12} {'q1':>12} {'q3':>12}  n")
    for name, unit in END_TO_END + WALL:
        med, q1, q3 = e2e[name]
        print(f"{name:44} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g}  "
              f"{len(samples['plain'])}")
        if not args.trace and (name, unit) in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
    print(f"{'failed_frac':44} {'ratio':6} {failed / attempted:12.6g}"
          f"{'':26}  {attempted}")
    if args.trace:
        for name in tracing.COUNT_METRICS:
            values = {m[name] for m in layer_samples}
            if len(values) > 1:
                checker.problems.append(f"{name} differs between traced "
                                        f"passes: {sorted(values)}")
                correct = False
        traced_run_s = spread([r["run_s"] for r in samples["traced"]])[0]
        for name, unit, _ in tracing.METRICS:
            if name == "trace.overhead_ratio":
                med = q1 = q3 = traced_run_s / e2e["run_s"][0]
            elif name in tracing.COUNT_METRICS:  # exact, checked equal above
                med = q1 = q3 = layer_samples[0][name]
            else:
                med, q1, q3 = spread([m[name] for m in layer_samples])
            print(f"{name:44} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g}  "
                  f"{len(layer_samples)}")
            metrics[name] = {"value": med, "unit": unit}
        shares = {layer: metrics[f"{layer}.self_s"]["value"] / traced_run_s
                  for layer in tracing.LAYERS}
        print("self-time share of traced run_s: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
        with_callees = {layer: statistics.median(s.get(layer, 0)
                                                 for s in inclusive_shares)
                        for layer in tracing.LAYERS}
        print("share with callees in other layers: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in with_callees.items()))
    for fname, digest in sorted(checker.digests.items()):
        print(f"digest {fname} {digest}")
    for problem in checker.problems[:20]:
        print(f"FAIL {problem}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, env=env, digests=checker.digests,
                  problems=checker.problems,
                  end_to_end={k: dict(zip(("value", "q1", "q3"), v))
                              for k, v in e2e.items()},
                  samples={k: [{m: r[m] for m in ("setup_s", "run_s",
                                                  "setup_wall_s", "run_wall_s",
                                                  "kernel_s", "peak_rss_mb")}
                               for r in v] for k, v in samples.items()})
    (WORK / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
