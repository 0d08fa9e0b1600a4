"""Checks of the benchmark itself (not part of the library suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads


def traced_pass(workload, cwd, i):
    spans = cwd / f"spans-{i}.jsonl"
    res = run.run_pass(workload, workloads.DEFAULT_SEED, cwd, spans,
                       f"test-{i}", run.DEADLINE_S)
    span_list = tracing.read_spans(str(spans))
    assert len(span_list) == res["spans"]
    assert {s["run"] for s in span_list} == {f"test-{i}"}
    return res, tracing.layer_metrics(tracing.aggregate(span_list),
                                      res["run_s"], len(span_list),
                                      res["scale"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_repeats_counts_and_reports(workload, tmp_path):
    first_res, first = traced_pass(workload, tmp_path, 0)
    second_res, second = traced_pass(workload, tmp_path, 1)
    assert {n: first[n] for n in tracing.COUNT_METRICS} == \
        {n: second[n] for n in tracing.COUNT_METRICS}
    checker = run.Checker(workloads.DEFAULT_SEED, tmp_path)
    for outcome in first_res["outcomes"] + second_res["outcomes"]:
        assert checker.check(outcome), checker.problems
    # The top-level spans cover the pass: one run_experiment and one
    # write_report per experiment, and the layers hold most of run_s.
    layer_s = sum(first[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0.9 * first_res["run_s"] < layer_s <= first_res["run_s"]


def test_seed_normalization_is_byte_exact(tmp_path):
    """At the default seed, re-serializing a report JSON gives its bytes, so
    resetting the echoed seed at other seeds compares like with like."""
    res = run.run_pass("escape_thm2", workloads.DEFAULT_SEED, tmp_path, None,
                       "", run.DEADLINE_S)
    for rel in res["outcomes"][0]["files"]:
        path = tmp_path / rel
        if path.suffix == ".json":
            raw = path.read_bytes()
            assert (json.dumps(json.loads(raw), sort_keys=True, indent=2)
                    + "\n").encode() == raw


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w["why"] for name, w in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.METRICS


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "escape_thm2", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
