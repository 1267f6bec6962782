"""Correctness gate: checks one command's output directory.

A command passes when it exited 0, wrote exactly the expected files,
its ``summary.json`` meets the command's invariants and, for commands
with fixed inputs, every summary number and every CSV column digest
(count, NaN count, sum, sum of magnitudes, L2, min, max) matches the
reference recorded from the unmodified package.

Numbers match when they differ by at most ``RTOL`` times their scale:
the value itself for summary numbers (plus ``ATOL`` for round-off
quantities such as the eraser partition residual), and for a CSV column
the sum of magnitudes, the L2 norm or the largest magnitude.  The CSVs
carry 12 significant digits, so a change of arithmetic order moves no
digest by more than about 1e-12 of its scale.
"""

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
APPROX = 1e-6

#: Relative size of the perturbations the self-check must catch.
PERTURBATION = 1e-6


def _load_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _column_digest(col: np.ndarray) -> list:
    vals = col[~np.isnan(col)]
    if vals.size == 0:
        return [int(col.size), int(col.size), 0.0, 0.0, 0.0, None, None]
    return [int(col.size), int(col.size - vals.size), float(vals.sum()),
            float(np.abs(vals).sum()), float(np.sqrt(np.sum(vals * vals))),
            float(vals.min()), float(vals.max())]


def _table_digest(header: str, data: np.ndarray) -> dict:
    return {"header": header,
            "columns": [_column_digest(col) for col in data.T]}


def _leaves(node, prefix, out):
    if isinstance(node, dict):
        for key in sorted(node):
            _leaves(node[key], f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _leaves(value, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def digest(out_dir: Path, with_csv: bool) -> dict:
    """File list, flattened summary and (optionally) CSV column digests."""
    files = sorted(p.name for p in out_dir.iterdir())
    doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    result = {"files": files,
              "summary": _leaves({"command": doc["command"],
                                  "summary": doc["summary"]}, "", {})}
    if with_csv:
        result["csv"] = {name: _table_digest(*_load_csv(out_dir / name))
                         for name in files if name.endswith(".csv")}
    return result


def _check_invariants(summary: dict, invariants) -> list:
    problems = []
    for key, op, want in invariants:
        got = summary.get(f"summary.{key}")
        if op == "approx":
            ok = _is_number(got) and abs(got - want) <= APPROX
        elif op == "le":
            ok = _is_number(got) and got <= want
        else:
            ok = got == want and type(got) is type(want)
        if not ok:
            problems.append(f"invariant {key} {op} {want}: got {got!r}")
    return problems


def _compare_summary(got: dict, ref: dict) -> list:
    problems = []
    for key, want in ref.items():
        value = got.get(key)
        if _is_number(want) and _is_number(value):
            ok = abs(value - want) <= RTOL * abs(want) + ATOL
        else:
            ok = value == want
        if not ok:
            problems.append(f"summary {key}: {value!r} != {want!r}")
    return problems


def _compare_table(name: str, got: dict, ref: dict) -> list:
    if got["header"] != ref["header"]:
        return [f"{name}: header {got['header']!r} != {ref['header']!r}"]
    if len(got["columns"]) != len(ref["columns"]):
        return [f"{name}: {len(got['columns'])} columns, "
                f"expected {len(ref['columns'])}"]
    problems = []
    for i, (g, r) in enumerate(zip(got["columns"], ref["columns"])):
        count, nans, total, mag, l2, lo, hi = r
        biggest = max(abs(lo), abs(hi)) if lo is not None else 0.0
        scales = (None, None, mag, mag, l2, biggest, biggest)
        for stat, (a, b, scale) in enumerate(zip(g, r, scales)):
            if scale is None or a is None or b is None:
                ok = a == b
            else:
                ok = math.isfinite(a) and abs(a - b) <= RTOL * scale
            if not ok:
                problems.append(f"{name} column {i} stat {stat}: {a!r} != {b!r}")
                break
    return problems


def compare(got: dict, ref: dict, invariants) -> list:
    """Every way *got* differs from *ref*; empty when the command passes."""
    problems = []
    if got["files"] != ref["files"]:
        problems.append(f"files {got['files']} != {ref['files']}")
    problems += _check_invariants(got["summary"], invariants)
    if "summary" in ref:
        problems += _compare_summary(got["summary"], ref["summary"])
    for name, table in ref.get("csv", {}).items():
        if name in got.get("csv", {}):
            problems += _compare_table(name, got["csv"][name], table)
    return problems


def check(out_dir: Path, cmd, ref: dict) -> list:
    """Problems with one finished command's outputs (empty: it passed)."""
    try:
        got = digest(out_dir, with_csv="csv" in ref)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    return compare(got, ref, cmd.invariants)


def self_check(out_root: Path, commands, refs: dict) -> list:
    """Show that the gate fails perturbed copies of real outputs.

    Uses the outputs under ``out_root/<label>`` of the first command
    whose CSVs have references.  The CSV column of largest L2 norm is
    scaled by 1 + PERTURBATION, and so is the summary number of largest
    magnitude.  Returns each perturbation the gate let pass.
    """
    cmd = next(c for c in commands if "csv" in refs[c.label])
    ref = refs[cmd.label]
    out_dir = out_root / cmd.label
    got = digest(out_dir, with_csv=True)
    errors = []

    name = sorted(got["csv"])[0]
    header, data = _load_csv(out_dir / name)
    data[:, np.argmax(np.nansum(data * data, axis=0))] *= 1.0 + PERTURBATION
    bad_csv = dict(got, csv=dict(got["csv"], **{name: _table_digest(header,
                                                                     data)}))
    if not compare(bad_csv, ref, cmd.invariants):
        errors.append(f"a perturbed column of {name} passed the gate")

    numbers = {k: v for k, v in got["summary"].items() if _is_number(v)}
    key = max(numbers, key=lambda k: abs(numbers[k]))
    bad_summary = dict(got, summary=dict(
        got["summary"], **{key: numbers[key] * (1.0 + PERTURBATION)}))
    if not compare(bad_summary, ref, cmd.invariants):
        errors.append(f"a perturbed summary value {key} passed the gate")
    return errors
