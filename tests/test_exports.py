"""Each module's ``__all__`` is the one list of its public names: the
package exports the lists of the modules it re-exports, in import order,
and keeps none of its own, so a deleted class or function leaves one
list."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import weakslit
from weakslit import (channels, config, errors, grid, moments, outputs,
                      pointer, runner, states, weak_values)

ROOT = Path(__file__).resolve().parents[1]
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


def _owner(name: str) -> str:
    """The file of the module whose ``__all__`` lists ``name``."""
    for module in MODULES:
        if name in importlib.import_module(f"weakslit.{module}").__all__:
            return f"{module}.py"
    return "__init__.py"


@pytest.mark.parametrize("name", weakslit.__all__)
def test_every_public_name_is_used(name):
    """A public name occurs, as a word, in README.md, in the acceptance
    claims or in a module of the package other than its own: no name
    is exported for the tests alone."""
    src = ROOT / "src" / "weakslit"
    texts = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
             *(p for p in sorted(src.glob("*.py")) if p.name != _owner(name))]
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert any(word.search(p.read_text(encoding="utf-8")) for p in texts)
