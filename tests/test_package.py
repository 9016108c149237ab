import importlib
import pkgutil

import pytest

import slowflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(slowflow.__path__))


def test_package_all_names_resolve():
    for attr in slowflow.__all__:
        assert hasattr(slowflow, attr), f"slowflow.__all__ lists missing {attr!r}"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    # tools walk the public surface by name (the benchmark tracer wraps every
    # entry); a stale entry in __all__ would only fail there
    mod = importlib.import_module(f"slowflow.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"slowflow.{name}.__all__ lists missing {attr!r}"
