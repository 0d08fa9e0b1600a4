"""Package-level guards: the public exports exist, no library module
hands a string to ``eval`` or ``exec``, only ``intervals.fmt`` calls
``nstr``, none sets the global mpmath precision (reports must not
depend on the ambient context), the
``lab`` runtime loads neither numpy nor ``dataclasses`` and ``inspect``,
an experiment loads only the modules it uses, no module nears the
parser's token cliff, and the bench tracer still finds the library names
it wraps."""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import billiardlab


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


def test_only_fmt_calls_nstr():
    # intervals.fmt is the one decimal rendering of a number
    offenders = []
    for path in sorted(Path(billiardlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fmt in ast.walk(tree)
                   if path.name == "intervals.py"
                   and isinstance(fmt, ast.FunctionDef) and fmt.name == "fmt"
                   for node in ast.walk(fmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in allowed
                    and _called_name(node) == "nstr"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


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
