"""Each module's ``__all__`` is the one list of its public names: the
package exports the lists of the modules it re-exports, in import order,
and keeps none of its own, so a deleted class or function leaves one
list."""

import importlib
import pkgutil

import pytest

import weakslit
from weakslit import (channels, config, errors, grid, moments, outputs,
                      pointer, runner, states, weak_values)

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


def test_package_exports_are_the_module_lists():
    assert weakslit.__all__ == [
        "__version__", *errors.__all__, *grid.__all__, *states.__all__,
        *channels.__all__, *weak_values.__all__, *moments.__all__,
        *pointer.__all__, *config.__all__, *runner.__all__, *outputs.__all__]


def test_every_public_name_is_listed_once():
    listed = [n for name in MODULES
              for n in importlib.import_module(f"weakslit.{name}").__all__]
    twice = sorted({n for n in listed if listed.count(n) > 1})
    assert not twice, f"listed in more than one __all__: {twice}"
    assert len(set(weakslit.__all__)) == len(weakslit.__all__)
