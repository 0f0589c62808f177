import importlib
import pkgutil

import pytest

import tthjb

MODULES = ["tthjb"] + [f"tthjb.{info.name}" for info in pkgutil.iter_modules(tthjb.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_exports_resolve(module_name):
    # a stale name in __all__ breaks `from tthjb.x import *` only when used
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
