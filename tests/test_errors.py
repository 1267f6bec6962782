"""The exit-code contract: one exception class per CLI exit code.

Every ``raise`` in the package raises ``ConfigError`` (exit 2),
``NumericError`` (exit 3) or ``OutputError`` (exit 4), or re-raises, so
an error class added without an exit code fails here instead of leaving
the CLI with exit 1 and a traceback.
"""

import ast
from pathlib import Path

import pytest

import weakslit
from weakslit import ConfigError, NumericError, OutputError, errors
from weakslit.cli import main

SOURCES = sorted(Path(weakslit.__file__).parent.glob("*.py"))
RAISABLE = {"ConfigError", "NumericError", "OutputError"}


def test_errors_exports_one_class_per_exit_code():
    assert errors.__all__ == ["ConfigError", "NumericError", "OutputError",
                              "CoverageWarning"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_has_an_exit_code(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    stray = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and not (isinstance(node.exc, ast.Call)
                      and isinstance(node.exc.func, ast.Name)
                      and node.exc.func.id in RAISABLE)]
    assert not stray, f"raises without an exit code at {stray}"


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError("bad"), 2, "config error: bad\n"),
    (NumericError("refused"), 3, "numeric error: refused\n"),
    (MemoryError(), 3, "numeric error: out of memory; lower grid.n_points\n"),
    (OutputError("unwritable"), 4, "i/o error: unwritable\n"),
    (OSError("disk full"), 4, "i/o error: disk full\n"),
], ids=["config", "numeric", "memory", "output", "os"])
def test_main_maps_each_class_to_its_exit_code(error, code, prefix, tmp_path,
                                               monkeypatch, capsys):
    def fail(config, command):
        raise error

    monkeypatch.setattr("weakslit.cli.run", fail)
    assert main(["wvp", "--set", "grid.n_points=1024",
                 "--out", str(tmp_path / "x")]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == prefix
