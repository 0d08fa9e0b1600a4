"""Package-level guards: the public exports exist, no library module
hands a string to ``eval`` or ``exec``, and none sets the global mpmath
precision (reports must not depend on the ambient context)."""

import ast
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
