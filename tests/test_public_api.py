"""The package's import surface: every name a y11 module lists in `__all__`
exists, so `from y11.<module> import *` works, and importing the package root
or the CLI loads no numpy."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import y11

MODULES = ["y11"] + [
    f"y11.{m.name}" for m in pkgutil.iter_modules(y11.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_root_and_cli_imports_leave_numpy_unloaded():
    # Y11_THREADS caps the BLAS pools only if numpy loads after the CLI sets them.
    src = str(Path(y11.__file__).resolve().parent.parent)
    code = "import sys, y11, y11.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
