"""Every exported name resolves: a deleted class or function must also
leave the ``__all__`` lists that name it."""

import importlib
import pkgutil

import pytest

import weakslit

MODULES = sorted(info.name for info in pkgutil.iter_modules(weakslit.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"weakslit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"weakslit.{name}.__all__ names missing {missing}"


def test_package_exports_resolve():
    missing = [n for n in weakslit.__all__ if not hasattr(weakslit, n)]
    assert not missing
    namespace: dict = {}
    exec("from weakslit import *", namespace)
    assert set(weakslit.__all__) <= namespace.keys()

