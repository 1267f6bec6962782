"""The benchmark's traced run calls package names: each must still exist.

``perfbench/layers.py`` patches every ``(owner, attr)`` in its
``TARGETS`` and builds its scaling set through ``ScenarioConfig``
methods; a refactor that drops one of those names would crash
``perfbench/run.py --trace 1``.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_resolves(layers):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
               for owner, attr, span in layers.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing


@pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
def test_scaling_set_runs(layers, monkeypatch):
    monkeypatch.setattr(layers, "SCALING_SIZES", (1024,))
    metrics = layers.scaling_metrics()
    assert sorted(metrics) == ["weak_values.transfer15_s.n1024",
                               "weak_values.transfer_full_s.n1024"]
    assert all(unit == "s" and seconds >= 0.0
               for seconds, unit in metrics.values())
