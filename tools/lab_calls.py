"""List the library functions that no default ``lab`` run calls.

    python3 tools/lab_calls.py

Sets a ``sys.setprofile`` hook before ``billiardlab`` is imported from this
checkout's ``src/``, then runs ``lab <experiment> --config config.json``
in process once for each of the seven experiments, with ``{}`` as the
config, from a new temporary working directory (so the reports are
written under its default ``out_dir``).  It then compiles every module
under ``src/billiardlab/`` and prints, as ``file:line qualname``, each
function and method whose code the hook never saw entered, the records'
``__init__``, ``__eq__`` and other dunders among them.  A function
nested in one that was never called is not listed on its own; lambdas
and comprehensions are not listed.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _key(code) -> tuple:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def run_defaults() -> set:
    """The keys of every code object entered during the seven runs."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(hook)
    try:
        from billiardlab.cli import main
        from billiardlab.experiments import EXPERIMENTS

        cwd = os.getcwd()
        for name in sorted(EXPERIMENTS):
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    Path("config.json").write_text("{}", encoding="utf-8")
                    with contextlib.redirect_stdout(io.StringIO()), \
                            warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        status = main([name, "--config", "config.json"])
                finally:
                    os.chdir(cwd)
            if status not in (0, 2):  # 2: a reported invariant violation
                raise RuntimeError(f"lab {name} exited {status}")
    finally:
        sys.setprofile(None)
    return {_key(code) for code in entered}


def uncalled(entered: set) -> list:
    """(file, line, qualname) of each function under src/billiardlab/
    whose code is not in entered, skipping those nested in an uncalled
    function."""
    out = []

    def walk(code, parent_called: bool) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_code") or const.co_name.startswith("<"):
                continue
            called = _key(const) in entered
            if parent_called and not called:
                qualname = getattr(const, "co_qualname", const.co_name)
                out.append((path.name, const.co_firstlineno, qualname))
            walk(const, called)

    for path in sorted((SRC / "billiardlab").glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"),
                     os.path.realpath(path), "exec"), True)
    return out


def main() -> int:
    rows = uncalled(run_defaults())
    for fname, line, qualname in rows:
        print(f"{fname}:{line} {qualname}")
    print(f"{len(rows)} functions not called by the default lab runs",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
