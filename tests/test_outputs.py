"""CSV emission: block formatting against the per-value writer, rows
split over forked writers, the memory one write takes, and
byte-identical reruns of a whole output directory."""

import os
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakslit import OutputError, emit_outputs, from_dict, outputs, run
from weakslit.outputs import _BLOCK_ROWS, _csv_header, _csv_rows
from weakslit.runner import ResultBundle, Table

from conftest import run_python
from oracles import loop_table_csv

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
           np.nextafter(0.0, 1.0) * 3, 1e-20, -3.7e-15, 0.1, 1.0 / 3.0,
           -2.0 / 3.0, 1.0, 123456.789012345, -1e5, 99999.99999999999,
           1e300, -1.7976931348623157e308]


def _table(columns, units=None):
    names = tuple((f"c{k}", units or "1") for k in range(len(columns)))
    return Table(names, tuple(columns))


def table_csv(table) -> str:
    """The whole table as CSV text, formatted in this process."""
    return _csv_header(table) + "".join(
        _csv_rows(table, 0, len(table.data[0])))


def assert_same_text(text, expected):
    """Equal texts, byte for byte.

    Reports the first differing line rather than a diff of the whole
    text, which is slow to build for tables of thousands of rows.
    """
    got, want = text.split("\n"), expected.split("\n")
    first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    same = text == expected  # a bare name keeps pytest from diffing texts
    assert same, (
        f"{len(got)} vs {len(want)} lines; first difference at line {first}: "
        f"{got[first:first + 1]} vs {want[first:first + 1]}")


def assert_matches_oracle(table):
    """Block-formatted CSV equals the per-value writer's, byte for byte."""
    text = table_csv(table)
    assert_same_text(text, loop_table_csv(table))
    return text


def _mixed(rows, seed=0):
    """p-like axis, a signed curve spanning 1e-20..1e5, NaN where
    undefined, a 0/1 flag, and a column cycling through special values."""
    rng = np.random.default_rng(seed)
    p = np.linspace(-100.0, 100.0, rows)
    curve = rng.standard_normal(rows) * 10.0 ** rng.uniform(-20, 5, rows)
    defined = rng.random(rows) > 0.2
    curve[~defined] = np.nan
    special = np.resize(np.array(SPECIAL), rows)
    return [p, curve, defined.astype(float), special]


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork`` made in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def emit_on(cores, monkeypatch, bundle, out_dir) -> dict:
    """Emit *bundle* as a process that may use *cores* CPUs; return the
    bytes of each written file by name."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    emit_outputs(bundle, out_dir)
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                  _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1,
                                  5 * _BLOCK_ROWS + 3])
def test_block_boundaries_match_the_per_value_writer(rows, tmp_path,
                                                     monkeypatch, forks):
    """On 1, 2 or 3 CPUs the table is split into one row range per CPU,
    at most one per block, and the file is the per-value writer's."""
    table = _table(_mixed(rows))
    text = assert_matches_oracle(table)
    assert text.count("\n") == rows + 1
    bundle = ResultBundle("t", tables={"t": table})
    for cores in (1, 2, 3):
        forks.clear()
        files = emit_on(cores, monkeypatch, bundle, tmp_path / str(cores))
        assert_same_text(files["t.csv"].decode(), text)
        blocks = -(-rows // _BLOCK_ROWS)
        assert len(forks) == max(1, min(cores, blocks)) - 1


def test_a_bundle_splits_into_the_same_files_on_any_cpu_count(
        tmp_path, monkeypatch, forks):
    """Tables of different lengths, with bool, NaN and special-value
    columns: every CPU count writes the directory that one CPU writes,
    and each table is the per-value writer's."""
    p, curve, flags, special = _mixed(5 * _BLOCK_ROWS + 3, seed=1)
    tables = {
        "long": _table([p, curve, flags.astype(bool), special]),
        "special": _table([np.array(SPECIAL)]),
        "mid": _table(_mixed(2 * _BLOCK_ROWS + 1, seed=2)),
        "empty": _table(_mixed(0)),
        "block": _table([np.arange(_BLOCK_ROWS) % 3 == 0,
                         np.full(_BLOCK_ROWS, np.nan)]),
    }
    bundle = ResultBundle("bundle", tables=tables)
    one = emit_on(1, monkeypatch, bundle, tmp_path / "1")
    assert sorted(one) == sorted([f"{name}.csv" for name in tables]
                                 + ["summary.json"])
    for name, table in tables.items():
        assert_same_text(one[f"{name}.csv"].decode(), loop_table_csv(table))
    for cores in (2, 3):
        forks.clear()
        assert emit_on(cores, monkeypatch, bundle, tmp_path / str(cores)) == one
        assert len(forks) == cores - 1


def test_a_failed_row_writer_raises_and_is_reaped(tmp_path, monkeypatch):
    """A child whose rows cannot be formatted exits 1: the call raises
    OutputError naming the table, and no child is left."""
    format_rows = outputs._csv_rows

    def failing(table, start, stop):
        if start >= _BLOCK_ROWS:
            raise ValueError("cannot format")
        return format_rows(table, start, stop)

    monkeypatch.setattr(outputs, "_csv_rows", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    bundle = ResultBundle(
        "t", tables={"t": _table(_mixed(2 * _BLOCK_ROWS + 1))})
    with pytest.raises(OutputError, match=r"t\.csv.* exited with status 1"):
        emit_outputs(bundle, tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_row_writers_are_reaped_when_the_caller_fails(tmp_path, monkeypatch,
                                                      forks):
    """A summary that is not JSON fails in the caller after the fork: the
    error propagates once the child has been waited for."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    bundle = ResultBundle("t", tables={"t": _table(_mixed(_BLOCK_ROWS + 1))},
                          summary={"bad": object()})
    with pytest.raises(AttributeError):
        emit_outputs(bundle, tmp_path)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_output_does_not_depend_on_the_cpu_set(tmp_path):
    """A 2^16-point wvp prints each written path once, whether its rows
    are split over every usable CPU or written on one."""
    args = ("-m", "weakslit", "wvp", "--preset", "paper",
            "--set", "grid.n_points=65536", "--out")
    proc = run_python(*args, str(tmp_path / "all"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    printed = proc.stdout.splitlines()
    assert sorted(printed) == sorted(str(p) for p in
                                     (tmp_path / "all").iterdir())
    assert len(printed) == 4
    taskset = shutil.which("taskset")
    if taskset is None:
        pytest.skip("taskset is not installed")
    cpu = str(min(os.sched_getaffinity(0)))
    pinned = run_python(*args, str(tmp_path / "one"),
                        prefix=(taskset, "-c", cpu))
    assert pinned.returncode == 0, pinned.stderr
    assert len(pinned.stdout.splitlines()) == 4
    for path in (tmp_path / "all").iterdir():
        assert path.read_bytes() == (tmp_path / "one" / path.name).read_bytes()


def test_one_column_table():
    assert_matches_oracle(_table([np.array(SPECIAL * 500)]))


def test_special_values_are_spelled_like_the_per_value_writer():
    table = _table([np.array([v]) for v in SPECIAL])
    line = assert_matches_oracle(table).splitlines()[1].split(",")
    assert line[:5] == ["nan", "inf", "-inf", "0", "-0"]


def test_every_float_magnitude_round_trips_at_twelve_digits():
    values = 10.0 ** np.linspace(-20, 5, 2 * _BLOCK_ROWS + 3)
    text = assert_matches_oracle(_table([values, -values]))
    body = np.loadtxt(text.splitlines()[1:], delimiter=",")
    np.testing.assert_allclose(body, np.column_stack([values, -values]),
                               rtol=5e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(0, 40), st.integers(1, 6)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_arbitrary_float_tables(data):
    assert_matches_oracle(_table(list(data.T)))


@pytest.mark.parametrize("rows", [1, _BLOCK_ROWS + 3])
def test_bool_column_reads_like_its_float_flags(rows):
    """A ``defined`` mask goes in as bool and prints as the float 0/1
    column did, alone or beside float columns."""
    p, curve, flags, _ = _mixed(rows)
    mask = flags.astype(bool)
    as_bool = table_csv(_table([p, mask, curve]))
    assert as_bool == assert_matches_oracle(_table([p, flags, curve]))
    assert table_csv(_table([mask])) == table_csv(_table([flags]))


def test_writing_a_large_table_holds_one_block(tmp_path):
    """emit_outputs streams a 2^16-row, 6-column table (about 3.5 MB of
    text) to disk holding about one block of it: the peak of the calling
    process's Python allocations, while it writes its rows and appends
    those of the forked writers, stays under 2 MiB."""
    rows = 1 << 16
    columns = _mixed(rows, seed=3) + [np.linspace(0.0, 1.0, rows),
                                      np.arange(rows) % 2 == 0]
    bundle = ResultBundle("large", tables={"large": _table(columns)})
    tracemalloc.start()
    try:
        emit_outputs(bundle, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "large.csv").stat().st_size
    assert size > 3_000_000
    assert peak < 2 * 2 ** 20, f"peak {peak} bytes for a {size}-byte file"


def test_emit_outputs_reruns_are_byte_identical(tmp_path):
    config = from_dict({"channel": {"kind": "scully"},
                        "grid": {"n_points": 1024}})
    bundle = run(config, "pointer")
    first = emit_outputs(bundle, tmp_path / "a")
    second = emit_outputs(bundle, tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    assert {p.suffix for p in first} == {".csv", ".json", ".svg"}
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    text = (tmp_path / "a" / "pointer.csv").read_text()
    assert text == assert_matches_oracle(bundle.tables["pointer"])
