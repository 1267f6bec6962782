"""The benchmark's traced run calls package names: each must still exist.

``perfbench/layers.py`` patches every ``(owner, attr)`` in its
``TARGETS`` and builds its scaling set through ``ScenarioConfig``
methods; a refactor that drops one of those names would crash
``perfbench/run.py --trace 1``, and one that calls around them would
leave a layer's time at zero.
"""

import dataclasses
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


#: A layer no command reaches any more; its name waits for a benchmark change.
UNREACHED = {"weak_values.joint_wvp"}


@pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
@pytest.mark.parametrize("workload", ["paper-cli", "full-tiling", "large-grid"])
def test_every_layer_is_timed(layers, tmp_path, workload):
    """Each layer a workload reports is recorded as a span by some command,
    so a call that bypasses its traced name is caught here."""
    tracer = layers.Tracer()
    tracer.install()
    seen = set()
    try:
        for cmd in layers.Plan(workload, 1).commands:
            small = dataclasses.replace(
                cmd, argv=cmd.argv + ("--set", "grid.n_points=4096"))
            out = tmp_path / cmd.label
            out.mkdir()
            run = layers.run_in_process(tracer, small, out, traced=True)
            assert run.code == 0, (cmd.label, run.code)
            seen.update(name for name, *_ in run.spans)
    finally:
        tracer.uninstall()
    assert sorted(set(layers.LAYERS[workload]) - seen) == sorted(
        UNREACHED & set(layers.LAYERS[workload]))
