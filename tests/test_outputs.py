"""CSV emission: block formatting against the per-value writer, the
memory one write takes, and byte-identical reruns of a whole output
directory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakslit import emit_outputs, from_dict, run
from weakslit.outputs import _BLOCK_ROWS, _table_csv
from weakslit.runner import ResultBundle, Table

from oracles import loop_table_csv

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
           np.nextafter(0.0, 1.0) * 3, 1e-20, -3.7e-15, 0.1, 1.0 / 3.0,
           -2.0 / 3.0, 1.0, 123456.789012345, -1e5, 99999.99999999999,
           1e300, -1.7976931348623157e308]


def _table(columns, units=None):
    names = tuple((f"c{k}", units or "1") for k in range(len(columns)))
    return Table(names, tuple(columns))


def assert_matches_oracle(table):
    """Block-formatted CSV equals the per-value writer's, byte for byte.

    Reports the first differing line rather than a diff of the whole
    text, which is slow to build for tables of thousands of rows.
    """
    text, expected = "".join(_table_csv(table)), loop_table_csv(table)
    got, want = text.split("\n"), expected.split("\n")
    first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    same = text == expected  # a bare name keeps pytest from diffing texts
    assert same, (
        f"{len(got)} vs {len(want)} lines; first difference at line {first}: "
        f"{got[first:first + 1]} vs {want[first:first + 1]}")
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


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                  _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_block_boundaries_match_the_per_value_writer(rows):
    text = assert_matches_oracle(_table(_mixed(rows)))
    assert text.count("\n") == rows + 1


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
    as_bool = "".join(_table_csv(_table([p, mask, curve])))
    assert as_bool == assert_matches_oracle(_table([p, flags, curve]))
    assert ("".join(_table_csv(_table([mask])))
            == "".join(_table_csv(_table([flags]))))


def test_writing_a_large_table_holds_one_block(tmp_path):
    """emit_outputs streams a 2^16-row, 6-column table (about 3.5 MB of
    text) to disk holding about one block of it: the peak of Python
    allocations while writing stays under 2 MiB."""
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
