"""The benchmark's traced run wraps package names: each must still exist.

``perfbench/layers.py`` patches every ``(owner, attr)`` in its
``TARGETS``; a refactor that drops one of those names would crash
``perfbench/run.py --trace 1``.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves():
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
               for owner, attr, span in layers.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing
