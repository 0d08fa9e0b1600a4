"""Package-level guards: the public exports exist, no library module
hands a string to ``eval`` or ``exec``, none sets the global mpmath
precision (reports must not depend on the ambient context), and the
``lab`` runtime does not load numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import billiardlab


def _library_nodes():
    for path in sorted(Path(billiardlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_exports_resolve_and_no_eval_or_exec():
    missing = [name for name in billiardlab.__all__ if not hasattr(billiardlab, name)]
    assert not missing

    offenders = []
    for fname, node in _library_nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("eval", "exec"):
            offenders.append(f"{fname}:{node.lineno}")
    assert not offenders


def test_no_module_assigns_global_precision():
    # mp.prec = ..., mp.dps += ..., (mp.prec, x) = ... all store an attribute
    offenders = [f"{fname}:{node.lineno}" for fname, node in _library_nodes()
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store)
                 and node.attr in ("prec", "dps")]
    assert not offenders


def test_lab_runtime_does_not_import_numpy():
    # numpy is a test dependency only; the experiments draw from billiardlab.rng.
    src = str(Path(billiardlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, billiardlab.experiments, billiardlab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
