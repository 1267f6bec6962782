"""The benchmark's traced run calls package names: each must still exist.

``perfbench/layers.py`` patches every ``(owner, attr)`` in its
``TARGETS`` and builds its scaling set through ``ScenarioConfig``
methods; a refactor that drops one of those names would crash
``perfbench/run.py --trace 1``, and one that calls around them would
leave a layer's time at zero.

Four of those names are hooks that only the benchmark reads:
``joint_wvp``, ``pointer.run_tagged``, ``ScenarioConfig.sim_grid`` and
``ScenarioConfig.window_width_internal``, plus the field
``TransferDistribution.windows``.  This file pins what each returns,
and that nothing else names them but their definitions and
``runner.py``, whose module globals the benchmark patches.
"""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from weakslit import (conditional_wvp, eraser_curves, from_dict,
                      transfer_distribution)
from weakslit.pointer import run_tagged
from weakslit.weak_values import joint_wvp

from conftest import WINDOW_WIDTH

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
HOOKS = ("joint_wvp", "run_tagged", "sim_grid", "window_width_internal")


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


class TestHooksReturnTheDirectNames:
    def test_run_tagged_is_conditional_wvp(self, slit_state, wwm,
                                           focus_window):
        hook = run_tagged(slit_state, wwm, *focus_window)
        direct = conditional_wvp(slit_state, wwm, *focus_window)
        for field in ("values", "joint", "density", "strong"):
            np.testing.assert_array_equal(getattr(hook, field),
                                          getattr(direct, field))

    def test_joint_wvp_is_the_unerased_joint(self, slit_state, wwm,
                                             focus_window):
        np.testing.assert_array_equal(
            joint_wvp(slit_state, wwm, *focus_window),
            eraser_curves(slit_state, wwm, *focus_window,
                          ("none",))["none"].joint)

    def test_config_hooks_are_its_fields(self):
        cfg = from_dict({"grid": {"n_points": 1024}})
        assert cfg.sim_grid() is cfg.grid
        assert cfg.window_width_internal() == cfg.window_width

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    @pytest.mark.parametrize("indices", [range(-7, 8), [0, 10 ** 6],
                                         [3, 3, -1]])
    def test_windows_are_the_indices(self, slit_state, wwm, indices):
        """``windows`` repeats the call's indices, an index whose window
        holds no sample and a repeated one included."""
        dist = transfer_distribution(slit_state, wwm, WINDOW_WIDTH, indices)
        assert dist.windows == tuple(indices)


def _outside_hook_definitions(path: Path) -> str:
    """The text of ``path`` without the definitions of the hooks."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return text
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.FunctionDef) and node.name in HOOKS:
            for k in range(node.lineno - 1, node.end_lineno):
                lines[k] = ""
    return "\n".join(lines)


def test_only_the_benchmark_names_the_hooks():
    """Tests, README.md and the package call the direct names; a hook
    is named only where it is defined, in ``runner.py`` and here."""
    src = ROOT / "src" / "weakslit"
    paths = [ROOT / "README.md",
             *(p for p in sorted((ROOT / "tests").glob("*.py"))
               if p.name != Path(__file__).name),
             *(p for p in sorted(src.glob("*.py")) if p.name != "runner.py")]
    word = re.compile(rf"\b({'|'.join(HOOKS)})\b")
    found = [f"{p.relative_to(ROOT)}: {m.group()}" for p in paths
             for m in word.finditer(_outside_hook_definitions(p))]
    assert not found, found
