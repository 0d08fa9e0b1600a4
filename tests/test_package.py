"""Package-level guards: the public exports exist, and no library module
hands a string to ``eval`` or ``exec``."""

import ast
from pathlib import Path

import billiardlab


def test_exports_resolve_and_no_eval_or_exec():
    missing = [name for name in billiardlab.__all__ if not hasattr(billiardlab, name)]
    assert not missing

    offenders = []
    for path in sorted(Path(billiardlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("eval", "exec"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders
