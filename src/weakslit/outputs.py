"""File emission for scenario results: CSV tables, a JSON summary, SVGs.

All writers are deterministic — rerunning the same bundle produces
byte-identical files — so output directories diff cleanly.
"""

import json
from pathlib import Path

import numpy as np

from .errors import OutputError
from .runner import ResultBundle
from .svg import render_plot

__all__ = ["emit_outputs"]


#: Rows formatted by one ``%`` operation and written at once.  The bound
#: keeps the argument tuple and the text in memory at one block, whatever
#: the table's length.
_BLOCK_ROWS = 4096


def _table_csv(table):
    """Yield the table as CSV text: the header line, then one block of
    rows at a time.

    Every number is printed as ``%.12g``, which spells undefined samples
    ``nan`` and infinities ``inf``/``-inf``; a bool column reads 0/1.
    Each block stacks only its own slice of the columns and is one ``%``
    operation on a repeated row template, so formatting costs no Python
    call per value.
    """
    yield ",".join(f"{name} [{unit}]" for name, unit in table.columns) + "\n"
    row = ",".join(["%.12g"] * len(table.data)) + "\n"
    for start in range(0, len(table.data[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS]
                                 for c in table.data])
        yield row * len(block) % tuple(block.ravel().tolist())


def _write(path: Path, chunks) -> None:
    """Write the strings of *chunks* to *path* one after another."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def emit_outputs(bundle: ResultBundle, out_dir) -> list:
    """Write all artefacts for *bundle* under *out_dir*; return the paths."""
    root = Path(out_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {root}: {exc}") from exc

    written = []
    for name, table in sorted(bundle.tables.items()):
        path = root / f"{name}.csv"
        _write(path, _table_csv(table))
        written.append(path)

    summary_doc = {
        "command": bundle.command,
        "summary": bundle.summary,
        "provenance": bundle.provenance,
    }
    path = root / "summary.json"
    # A numpy int or bool is not JSON; a numpy float is a float already.
    _write(path, (json.dumps(summary_doc, sort_keys=True, indent=2,
                             default=lambda v: v.item()), "\n"))
    written.append(path)

    for fig in bundle.figures:
        path = root / f"{fig.name}.svg"
        _write(path, (render_plot(
            fig.series, title=fig.title, xlabel=fig.xlabel, ylabel=fig.ylabel,
            x2label=fig.x2label, x2scale=fig.x2scale),))
        written.append(path)
    return written
