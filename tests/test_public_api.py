"""Every name a y11 module lists in `__all__` exists, so `from y11.<module> import *` works."""
import importlib
import pkgutil

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
