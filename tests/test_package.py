import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_traced_names_resolve():
    # the benchmark wraps these by name; one deleted here would break only
    # a traced benchmark run, so pin them (tracing imports only the stdlib)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _, _ in tracing.TRACED]
    names += [("tthjb.policy", "initial_policy"), ("tthjb.policy", "policy_iterate")]
    for module, attr in names:
        importlib.import_module(module)
        assert callable(tracing._resolve(module, attr)[2]), (module, attr)
