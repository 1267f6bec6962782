"""File emission for scenario results: CSV tables, a JSON summary, SVGs.

All writers are deterministic — rerunning the same bundle produces
byte-identical files — so output directories diff cleanly.
"""

import json
from pathlib import Path

from .errors import OutputError
from .runner import ResultBundle
from .svg import render_plot

__all__ = ["emit_outputs"]


#: Rows formatted by one ``%`` operation.  The bound keeps the argument
#: tuple small: one tuple for a whole 2^16-row table raises peak memory.
_BLOCK_ROWS = 4096


def _table_csv(table) -> str:
    """The table as CSV text: a header, then one line per row.

    Every number is printed as ``%.12g``, which spells undefined samples
    ``nan`` and infinities ``inf``/``-inf``.  Each block of rows is one
    ``%`` operation on a repeated row template, so formatting costs no
    Python call per value.
    """
    header = ",".join(f"{name} [{unit}]" for name, unit in table.columns)
    data = table.data
    row = ",".join(["%.12g"] * data.shape[1])
    parts = [header]
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start:start + _BLOCK_ROWS]
        parts.append("\n".join([row] * len(block))
                     % tuple(block.ravel().tolist()))
    return "\n".join(parts) + "\n"


def _json_ready(obj):
    """Recursively convert numpy scalars so json.dumps accepts the summary."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if hasattr(obj, "item"):
        return obj.item()
    return obj


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
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
        _write_text(path, _table_csv(table))
        written.append(path)

    summary_doc = {
        "command": bundle.command,
        "summary": _json_ready(bundle.summary),
        "provenance": _json_ready(bundle.provenance),
    }
    path = root / "summary.json"
    _write_text(path, json.dumps(summary_doc, sort_keys=True, indent=2) + "\n")
    written.append(path)

    for fig in bundle.figures:
        path = root / f"{fig.name}.svg"
        _write_text(path, render_plot(
            fig.series, title=fig.title, xlabel=fig.xlabel, ylabel=fig.ylabel,
            x2label=fig.x2label, x2scale=fig.x2scale))
        written.append(path)
    return written
