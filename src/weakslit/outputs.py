"""File emission for scenario results: CSV tables, a JSON summary, SVGs.

All writers are deterministic — rerunning the same bundle produces
byte-identical files — so output directories diff cleanly.

Formatting CSV rows costs more than computing them, and the ``%``
operator holds the GIL, so :func:`emit_outputs` formats on every CPU
the process may use.  It splits every table's rows into k contiguous
ranges on ``_BLOCK_ROWS`` boundaries: k is the CPU count from
``os.sched_getaffinity`` (1 on a platform without it), at most the
largest table's block count.  The calling process writes each header
and range 0 straight into ``<name>.csv``.  Range j >= 1 of every table
goes to a child made with ``os.fork``, which writes it into an unnamed
temporary file in the output directory and exits.  Meanwhile the caller
writes its ranges, ``summary.json`` and the SVGs; then it waits for
every child and appends the child's files to the tables in order.  Each
row is formatted on its own by the same template, so the bytes do not
depend on k.
"""

import contextlib
import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import OutputError
from .runner import ResultBundle
from .svg import render_plot

__all__ = ["emit_outputs"]


#: Rows formatted by one ``%`` operation and written at once.  The bound
#: keeps the argument tuple and the text in memory at one block, whatever
#: the table's length.  The block is small because its Python floats and
#: text are fresh pages in the caller and in each forked writer alike,
#: and a writer's peak RSS already counts the caller's pages it shares;
#: the 2^16-point ``eraser`` tables format as fast in blocks of 256 rows
#: as of 1,024 or 4,096.
_BLOCK_ROWS = 256

#: The real ``os._exit``, bound at import: a forked writer leaves through
#: it even when a caller has replaced ``os._exit``.
_exit = os._exit


def _csv_header(table) -> str:
    return ",".join(f"{name} [{unit}]" for name, unit in table.columns) + "\n"


def _csv_rows(table, start: int, stop: int):
    """Yield rows [start, stop) of the table as CSV text, one block of
    rows at a time.

    Every number is printed as ``%.12g``, which spells undefined samples
    ``nan`` and infinities ``inf``/``-inf``; a bool column reads 0/1.
    Each block stacks only its own slice of the columns and is one ``%``
    operation on a repeated row template, so formatting costs no Python
    call per value.
    """
    row = ",".join(["%.12g"] * len(table.data)) + "\n"
    for lo in range(start, stop, _BLOCK_ROWS):
        block = np.column_stack([c[lo:min(lo + _BLOCK_ROWS, stop)]
                                 for c in table.data])
        yield row * len(block) % tuple(block.ravel().tolist())


def _blocks(table) -> int:
    return -(-len(table.data[0]) // _BLOCK_ROWS)


def _shares(tables) -> list:
    """Row ranges [start, stop) of each table, one list per process.

    There is one process per CPU the caller may use, at most as many as
    the largest table has blocks, so every process but the first has
    rows of that table.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = 1 if affinity is None else len(affinity(0))
    k = max(1, min(cpus, max(map(_blocks, tables), default=0)))

    def start(table, j):
        """Process j starts at block ceil(B j / k) of a table of B blocks."""
        return min(len(table.data[0]),
                   -(-_blocks(table) * j // k) * _BLOCK_ROWS)

    return [[(start(t, j), start(t, j + 1)) for t in tables]
            for j in range(k)]


def _write(target, chunks) -> None:
    """Write the strings of *chunks* to *target*, a path or an open file
    descriptor (which is closed), one after another."""
    try:
        with open(target, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write {target}: {exc}") from exc


def _fork_writer(tables, share, spills) -> int:
    """Fork a child that writes its *share* of the rows of each of
    *tables* into the matching one of *spills*; return the child's pid.

    The child never returns from here: it leaves through ``_exit``, 0
    once every row is written and 1 on any exception, so it cannot print,
    render an SVG or unwind into the caller.  It calls no BLAS, and
    OpenBLAS stops its thread pool around ``fork``.  From Python 3.12
    ``os.fork`` warns (``DeprecationWarning``) that the process is
    multi-threaded, because of that pool; the warning is left on.
    """
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        for table, (start, stop), spill in zip(tables, share, spills):
            _write(spill.fileno(), _csv_rows(table, start, stop))
        code = 0
    finally:
        _exit(code)


@contextlib.contextmanager
def _forked_rows(root: Path, paths, tables, shares):
    """Fork one child per row share in *shares* for the body's duration.

    On leaving, wait for every child, whether the body raised or not.
    After a body that returned, append each child's rows to the tables
    in order, or raise :class:`OutputError` for a child that failed,
    naming the first table it had rows of.
    """
    with contextlib.ExitStack() as stack:
        try:
            spills = [[stack.enter_context(tempfile.TemporaryFile(dir=root))
                       for _ in tables] for _ in shares]
        except OSError as exc:
            raise OutputError(f"cannot write in {root}: {exc}") from exc
        pids = []
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when the fd was closed
                    stream.flush()
            for share, files in zip(shares, spills):
                pids.append(_fork_writer(tables, share, files))
            yield
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        for share, code in zip(shares, codes):
            if code:
                path, (start, stop) = next(
                    (p, rows) for p, rows in zip(paths, share)
                    if rows[0] < rows[1])
                raise OutputError(
                    f"cannot write {path}: the process formatting its rows "
                    f"{start} to {stop - 1} exited with status {code}")
        for i, path in enumerate(paths):
            if all(share[i][0] == share[i][1] for share in shares):
                continue
            try:
                with open(path, "ab") as handle:
                    for files in spills:
                        files[i].seek(0)
                        shutil.copyfileobj(files[i], handle)
            except OSError as exc:
                raise OutputError(f"cannot write {path}: {exc}") from exc


def emit_outputs(bundle: ResultBundle, out_dir) -> list:
    """Write all artefacts for *bundle* under *out_dir*; return the paths.

    Every child that formats rows has been waited for when this returns
    or raises.
    """
    root = Path(out_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {root}: {exc}") from exc

    names = sorted(bundle.tables)
    tables = [bundle.tables[name] for name in names]
    paths = [root / f"{name}.csv" for name in names]
    shares = _shares(tables)
    with _forked_rows(root, paths, tables, shares[1:]):
        for path, table, (start, stop) in zip(paths, tables, shares[0]):
            _write(path, itertools.chain((_csv_header(table),),
                                         _csv_rows(table, start, stop)))
        summary_doc = {
            "command": bundle.command,
            "summary": bundle.summary,
            "provenance": bundle.provenance,
        }
        path = root / "summary.json"
        # A numpy int or bool is not JSON; a numpy float is a float already.
        _write(path, (json.dumps(summary_doc, sort_keys=True, indent=2,
                                 default=lambda v: v.item()), "\n"))
        written = [*paths, path]

        for fig in bundle.figures:
            path = root / f"{fig.name}.svg"
            _write(path, (render_plot(
                fig.series, title=fig.title, xlabel=fig.xlabel,
                ylabel=fig.ylabel, x2label=fig.x2label,
                x2scale=fig.x2scale),))
            written.append(path)
    return written
