"""Same-bytes gate: every report of the benchmark workloads, regenerated at
the default seed, must hash to the SHA-256 recorded in
``bench/digests.json``.  Both bench files are only read."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from billiardlab.experiments import ExperimentConfig, run_experiment, write_report

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_workload_reports_match_bench_digests(workload, tmp_path, monkeypatch):
    # From tmp_path the default relative out_dir, echoed in the reports,
    # stays "lab_out", as in the runs that recorded the digests.
    monkeypatch.chdir(tmp_path)
    written = []
    for name, obj in WORKLOADS.config_objects(workload, WORKLOADS.DEFAULT_SEED):
        cfg = ExperimentConfig.from_json_obj(obj, name)
        files = write_report(run_experiment(cfg), cfg.out_dir)
        written += [Path(cfg.out_dir) / f for f in files]
    assert written
    mismatched = [p.name for p in written
                  if hashlib.sha256(p.read_bytes()).hexdigest() != DIGESTS.get(p.name)]
    assert not mismatched
