"""Session guard: the suite tests the tree it is run from.

``pyproject.toml`` puts this checkout's ``src`` on ``sys.path`` ahead of
``PYTHONPATH``, so pointing ``PYTHONPATH`` at another tree's ``src`` would
silently test this checkout instead.  Such a run stops with a usage error.
"""

import os
from pathlib import Path

import pytest

import billiardlab


def pytest_configure(config):
    imported = Path(billiardlab.__file__).resolve()
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    for entry in filter(None, entries):
        init = Path.cwd() / entry / "billiardlab" / "__init__.py"
        if init.is_file() and init.resolve() != imported:
            raise pytest.UsageError(
                f"PYTHONPATH holds {init.resolve().parent}, but the tests "
                f"import {imported.parent} (pyproject.toml's pythonpath comes "
                f"first); run pytest from that tree instead")
