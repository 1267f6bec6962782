"""Properties: ``from_dict`` builds a scenario or raises ``ConfigError``,
and ``cli.main`` returns one of the documented exit codes.

Random leaves of ``DEFAULTS`` are replaced by wrong types, bools, NaN,
+-inf, zero, negatives, tiny and huge finite numbers, integers up to
+-10**400, beyond float range, and empty and one-element lists;
explicit examples add a list nested 1,500 deep, which no random draw
comes near, a kick q of 10**400, which needs two keys drawn together,
and a window whose width overflows when squared.  Whatever they hold,
the one validation path either returns a built scenario or refuses it with a
``ConfigError``; nothing else may escape.  The same values, given as
``--set`` overrides to any command with and without ``--preset``, and
sweeps of the defaults' own values that hold one point or repeat one,
make the command line exit 0, 2, 3 or 4, never 1, and a run that exits
0 writes a ``summary.json`` that a strict JSON parser reads.
``grid.n_points`` is kept at most 2^12 when it is an integer, so that
every accepted scenario builds quickly.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakslit import ConfigError, from_dict
from weakslit.cli import main
from weakslit.config import DEFAULTS
from weakslit.runner import COMMANDS

from conftest import strict_json

MAX_TEST_POINTS = 2 ** 12

#: How deep the explicit examples nest a list.  While Hypothesis runs a
#: test it raises the recursion limit to about 2,000 frames above it, so
#: only a value deeper than 1,000 levels shows a walk of two frames per
#: level; ``json.loads`` still parses it there.
DEPTH = 1500
DEEP_TEXT = "[" * DEPTH + "]" * DEPTH


class _Deep(list):
    """A list with a short repr: Hypothesis prints each explicit example,
    and its printer recurses several frames per level."""

    def __repr__(self):
        return f"<list nested {DEPTH} deep>"


def _deep_list() -> _Deep:
    value: list = []
    for _ in range(DEPTH - 1):
        value = [value]
    return _Deep(value)


DEEP = _deep_list()


def _leaf_paths(tree: dict, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


LEAVES = sorted(_leaf_paths(DEFAULTS))

NAMES = ("sharp", "gaussian_smoothed", "identity", "scully", "kick", "none",
         "plus45", "minus45", "")

NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -1.5,
                     5e-324, 1e-300, 1e-12, 1e-6, 0.5, 1, 3, 1e12, 1e300,
                     1.7976931348623157e308, 10 ** 400, -(10 ** 400)]),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
)

SCALARS = st.one_of(NUMBERS, st.none(), st.booleans(), st.sampled_from(NAMES),
                    st.text(max_size=3))

# Numbers and lists of them come up most often: they get past the
# JSON-shape checks and reach the constructors' own rules.
VALUES = st.one_of(
    NUMBERS,
    NUMBERS,
    SCALARS,
    st.just([]),
    st.lists(SCALARS, min_size=1, max_size=1),
    st.lists(NUMBERS, min_size=1, max_size=3),
    st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1,
             max_size=2),
    st.lists(st.lists(SCALARS, max_size=3), min_size=1, max_size=2),
)


def _bounded(path: tuple, value):
    if path == ("grid", "n_points") and type(value) is int:
        return min(value, MAX_TEST_POINTS)
    return value


def _overrides(replacements: dict) -> dict:
    out: dict = {}
    for path, value in replacements.items():
        value = _bounded(path, value)
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.dictionaries(st.sampled_from(LEAVES), VALUES, min_size=1,
                       max_size=4))
@example({("eraser",): DEEP})
@example({("pointer", "ratios"): DEEP})
@example({("channel", "kind"): "kick", ("channel", "kicks"): DEEP})
@example({("geometry", "edge_profile"): DEEP})
@example({("output_dir",): DEEP})
@example({("channel", "kind"): "kick", ("channel", "kicks"): [[10 ** 400, 1]]})
def test_from_dict_builds_or_raises_config_error(replacements):
    overrides = _overrides(replacements)
    # the defaults' 2^14 grid would make every accepted example slow
    overrides.setdefault("grid", {}).setdefault("n_points", 1024)
    try:
        config = from_dict(overrides)
    except ConfigError:
        return
    assert config.state.grid is config.grid
    assert config.channel.grid is config.grid


def _assignment(path: tuple, value) -> str:
    return ".".join(path) + "=" + json.dumps(_bounded(path, value))


def _bare(path: tuple, text: str) -> str:
    return ".".join(path) + "=" + text


def _scaled(path: tuple, scale: float) -> str:
    """An assignment of the default at *path* with every number times
    *scale*; integers stay integers."""
    def scaled(value):
        if isinstance(value, list):
            return [scaled(v) for v in value]
        if type(value) is int:
            return int(value * scale)
        return value * scale if type(value) is float else value
    node = DEFAULTS
    for key in path:
        node = node[key]
    return _assignment(path, scaled(node))


SCALES = st.sampled_from([-1.0, 0.0, 1e-300, 1e-12, 1e-3, 0.5, 1.0, 2.0,
                          1e3, 1e12, 1e300])

# Each sweep list: the command that reads it and the values its default
# holds (the empty regularisation lists are filled with these).
_SMALL = from_dict({"grid": {"n_points": 1024}})
SWEEPS = {
    ("pointer", "ratios"): ("sweep", DEFAULTS["pointer"]["ratios"]),
    ("regularization", "q_max"): ("variance", list(_SMALL.q_max)),
    ("regularization", "kappa"): ("variance", list(_SMALL.kappa)),
}


def _sweep_lists(path: tuple):
    """A sweep of one point, or one that repeats a point, at *path*.

    Every element is one of the default's own values, so only the
    sweep's length and repeats are on trial.
    """
    values = st.sampled_from(SWEEPS[path][1])
    return st.builds(_assignment, st.just(path), st.one_of(
        values.map(lambda v: [v]),
        st.lists(values, min_size=1, max_size=3).flatmap(
            lambda xs: st.sampled_from(xs).map(lambda x: xs + [x]))))


SWEEP_LISTS = st.sampled_from(sorted(SWEEPS)).flatmap(_sweep_lists)

# --set values as JSON (NaN and +-Infinity included), as bare strings
# that are not JSON, the defaults at extreme scales and the sweep lists
# above (each twice: they get past validation most often), and
# assignments with no known key or no "=".
ASSIGNMENTS = st.one_of(
    st.builds(_assignment, st.sampled_from(LEAVES), VALUES),
    st.builds(_scaled, st.sampled_from(LEAVES), SCALES),
    st.builds(_scaled, st.sampled_from(LEAVES), SCALES),
    SWEEP_LISTS,
    SWEEP_LISTS,
    st.builds(_bare, st.sampled_from(LEAVES), st.text(max_size=3)),
    st.sampled_from(["nope.key=1", "grid=3", "no-equals", "=1"]),
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(command=st.sampled_from(sorted(COMMANDS)), preset=st.booleans(),
       assignments=st.lists(ASSIGNMENTS, max_size=4))
@example(command="wvp", preset=False, assignments=["eraser=" + DEEP_TEXT])
@example(command="sweep", preset=True,
         assignments=["pointer.ratios=" + DEEP_TEXT])
@example(command="transfer", preset=False,
         assignments=["channel.kind=kick", "channel.kicks=" + DEEP_TEXT])
@example(command="transfer", preset=False,
         assignments=["channel.kind=kick",
                      "channel.kicks=" + json.dumps([[10 ** 400, 1]])])
@example(command="variance", preset=True,
         assignments=["windows.sliver_width=1e160"])
def test_cli_exits_with_a_documented_code(out_dir, command, preset,
                                          assignments):
    _check_cli(out_dir, command, preset, assignments)


@pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(path=st.sampled_from(sorted(SWEEPS)), preset=st.booleans(),
       data=st.data())
def test_sweep_lists_exit_with_a_documented_code(out_dir, path, preset, data):
    """One sweep list, given to the command that reads it and to no
    other override that could mask it."""
    _check_cli(out_dir, SWEEPS[path][0], preset,
               [data.draw(_sweep_lists(path))])


def _check_cli(out_dir, command, preset, assignments):
    # the defaults' 2^14 grid would make every accepted example slow
    argv = [command, "--out", str(out_dir), "--set", "grid.n_points=1024"]
    if preset:
        argv += ["--preset", "paper"]
    for assignment in assignments:
        argv += ["--set", assignment]
    code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        strict_json((out_dir / "summary.json").read_text())
