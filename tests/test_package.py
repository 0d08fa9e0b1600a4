"""Package-level guards: the public exports exist, no library module
hands a string to ``eval`` or ``exec`` or calls ``nstr``, no default run
converts an mpf to decimal through mpmath, none sets the global mpmath
precision (reports must not depend on the ambient context), the
``lab`` runtime loads neither numpy nor ``dataclasses`` and ``inspect``,
an experiment loads only the modules it uses, no module nears the
parser's token cliff, the escape runs make a pinned number of elementary
mpmath calls, and the bench tracer still finds the library names it
wraps."""

import ast
import json
import os
import subprocess
import sys
import tokenize
import warnings
from pathlib import Path

import pytest

import billiardlab
from billiardlab.experiments import (EXPERIMENTS, ExperimentConfig,
                                     run_experiment, write_report)


def _library_nodes():
    for path in sorted(Path(billiardlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def _called_name(node):
    """The name a call calls: ``f`` in ``f(...)`` and in ``m.f(...)``."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_exports_resolve_and_no_eval_or_exec():
    missing = [name for name in billiardlab.__all__ if not hasattr(billiardlab, name)]
    assert not missing

    offenders = []
    for fname, node in _library_nodes():
        if isinstance(node, ast.Call) and _called_name(node) in ("eval", "exec"):
            offenders.append(f"{fname}:{node.lineno}")
    assert not offenders


def test_no_library_module_calls_nstr():
    # intervals.fmt_fixed writes every decimal from integers
    offenders = [f"{fname}:{node.lineno}" for fname, node in _library_nodes()
                 if isinstance(node, ast.Call) and _called_name(node) == "nstr"]
    assert not offenders


def test_no_default_run_formats_through_mpmath(tmp_path, monkeypatch):
    # mp.nstr, str(mpf) and repr(mpf) all end in libmpf.to_str; refuse it
    # under every name a loaded module binds it to, then run and write the
    # seven default configs.
    import mpmath
    from mpmath.libmp import libmpf

    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath decimal conversion was called")

    to_str = libmpf.to_str
    monkeypatch.setattr(mpmath.mp, "nstr", refuse)
    for module in list(sys.modules.values()):
        if vars(module).get("to_str") is to_str:
            monkeypatch.setattr(module, "to_str", refuse)
    with pytest.raises(AssertionError):
        str(mpmath.mpf("0.5"))
    monkeypatch.chdir(tmp_path)
    for name in sorted(EXPERIMENTS):
        cfg = ExperimentConfig.from_json_obj({}, name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert write_report(run_experiment(cfg), cfg.out_dir)


_ELEMENTARY_PROBE = """
import collections, json, sys, warnings
from mpmath.libmp import libelefun
from billiardlab.experiments import ExperimentConfig, run_experiment
from billiardlab.fixedpoint import Rotation

names = ("mpf_cos_sin", "mpf_log", "mpf_exp")
codes = {getattr(libelefun, name).__code__: name for name in names}
rotate = Rotation.cos_sin
out = {}
for experiment in ("thm1_cover", "thm2_cover"):
    calls = collections.Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[f"{codes[frame.f_code]}@{frame.f_locals['prec']}"] += 1

    def cos_sin(self, *args):
        answer = rotate(self, *args)
        calls["fallback frames" if answer is None else "rotated frames"] += 1
        return answer

    Rotation.cos_sin = cos_sin
    cfg = ExperimentConfig.from_json_obj({}, experiment)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys.setprofile(count)
        try:
            run_experiment(cfg)
        finally:
            sys.setprofile(None)
    out[experiment] = dict(sorted(calls.items()))
print(json.dumps(out))
"""


def test_escape_runs_pin_their_elementary_mpmath_calls():
    # libelefun's mpf_cos_sin, mpf_log and mpf_exp calls by precision, under
    # any name (a profile hook sees each call), in a fresh process.
    # - Frames call mpf_cos_sin at P + 64 bits (320, 576) only where the
    #   rotation falls back, beside 14 and 8 calls outside the frames, and
    #   at W + 16 bits (368, 624) for each tracer's two bases.
    # - approx_solutions' enclosures take log and exp at 96 bits, and no
    #   grid distance falls inside its band, so no power above 96 bits.
    # - hs_sum raises each distinct length to s once, at bits + 16 bits.
    assert json.loads(_run_probe(_ELEMENTARY_PROBE)) == {
        "thm1_cover": {"fallback frames": 20, "rotated frames": 108,
                       "mpf_cos_sin@320": 20 + 14, "mpf_cos_sin@368": 3 * 2,
                       "mpf_exp@96": 88, "mpf_log@96": 88,
                       "mpf_exp@272": 22, "mpf_log@282": 22},
        "thm2_cover": {"fallback frames": 9, "rotated frames": 44,
                       "mpf_cos_sin@576": 9 + 8, "mpf_cos_sin@624": 2 * 2,
                       "mpf_exp@96": 25, "mpf_log@96": 25,
                       "mpf_exp@528": 18, "mpf_log@538": 18}}


def test_no_module_assigns_global_precision():
    # mp.prec = ..., mp.dps += ..., (mp.prec, x) = ... all store an attribute
    offenders = [f"{fname}:{node.lineno}" for fname, node in _library_nodes()
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store)
                 and node.attr in ("prec", "dps")]
    assert not offenders


def _run_probe(probe: str) -> str:
    """Stdout of ``probe`` run in a fresh interpreter on this checkout."""
    src = str(Path(billiardlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_lab_runtime_does_not_import_numpy():
    # numpy is a test dependency only; the experiments draw from
    # billiardlab.rng.  Validating every default config loads every runner.
    probe = ("import sys, billiardlab.cli\n"
             "from billiardlab.experiments import EXPERIMENTS, ExperimentConfig\n"
             "for name in EXPERIMENTS:\n"
             "    ExperimentConfig.from_json_obj({}, name)\n"
             "assert {f'billiardlab.{m}' for m in EXPERIMENTS.values()} "
             "<= set(sys.modules)\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert _run_probe(probe) == "[]"


def test_lab_runtime_does_not_import_dataclasses_or_inspect():
    # The records are plain slotted classes, so set-up and a run skip
    # dataclasses and the inspect, dis and tokenize modules it loads.
    probe = ("import sys, billiardlab.cli\n"
             "from billiardlab.experiments import (EXPERIMENTS, ExperimentConfig,\n"
             "                                     run_experiment)\n"
             "for name in EXPERIMENTS:\n"
             "    ExperimentConfig.from_json_obj({}, name)\n"
             "assert run_experiment(ExperimentConfig.from_json_obj(\n"
             "    {}, 'minkowski_scan')).passed\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert _run_probe(probe) == "[]"


def test_minkowski_scan_loads_no_tracer_or_cantor_module():
    # Loading the command line loads no runner module either.
    probe = ("import sys, billiardlab.cli\n"
             "from billiardlab.experiments import ExperimentConfig, run_experiment\n"
             "print(sorted(m for m in sys.modules if m.startswith('billiardlab.lab_')))\n"
             "cfg = ExperimentConfig.from_json_obj({'pairs': 2, 'p_max': 1000, "
             "'min_solutions': 1}, 'minkowski_scan')\n"
             "assert run_experiment(cfg).passed\n"
             "print(sorted({'billiardlab.billiard', 'billiardlab.cantor',\n"
             "              'billiardlab.dimension'} & set(sys.modules)))")
    assert _run_probe(probe).splitlines() == ["[]", "[]"]


def test_validation_loads_the_runner_module():
    # The bench ends set-up after validation, so the runner's imports are
    # paid there and not inside the timed run.
    probe = ("import sys\n"
             "from billiardlab.experiments import ExperimentConfig\n"
             "ExperimentConfig.from_json_obj({}, 'thm1_cover')\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m in ('billiardlab.lab_escape', 'billiardlab.cantor')))")
    assert _run_probe(probe) == "['billiardlab.lab_escape']"


def test_every_export_imports_in_a_fresh_process():
    names = ", ".join(billiardlab.__all__)
    assert _run_probe(f"from billiardlab import {names}\nprint('ok')") == "ok"


def test_no_module_near_the_parser_token_cliff():
    # CPython 3.11's parser doubles its token array past 8,192 tokens, and
    # each bench pass compiles the sources afresh: a module that crosses it
    # adds about 0.47 MB to peak RSS.  Keep every module 1,000 tokens clear.
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    counts = {}
    for path in sorted(Path(billiardlab.__file__).parent.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.name] = sum(1 for tok in tokenize.tokenize(fh.readline)
                                    if tok.type not in skipped)
    assert {name: n for name, n in counts.items() if n >= 7192} == {}


def test_bench_tracer_installs_on_the_library():
    # bench/tracing.py wraps IntervalUnion's set operations by name, so a
    # deletion of one of them breaks traced bench passes.  The tracer
    # patches the library globally, hence the subprocess; it loads the
    # file by path and writes no bytecode next to it.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    probe = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracing', "
        f"{str(root / 'bench' / 'tracing.py')!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.install(tracing.Recorder('t'))\n"
        "from billiardlab.intervals import IntervalUnion\n"
        "print(all(hasattr(getattr(IntervalUnion, op), '__wrapped__')\n"
        "          for op in ('intersect', 'complement')))\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "True"


def test_pytest_refuses_a_pythonpath_tree_it_does_not_import(tmp_path):
    # A decoy package on PYTHONPATH: pytest must stop with a usage error
    # before collecting, not quietly test this checkout.  --collect-only
    # keeps a missed guard from running anything.
    decoy = tmp_path / "src" / "billiardlab"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("", encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--collect-only", "tests/test_package.py"],
        cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 4, run.stdout + run.stderr  # USAGE_ERROR
    assert str(decoy.resolve()) in run.stderr
    assert "run pytest from that tree" in run.stderr
