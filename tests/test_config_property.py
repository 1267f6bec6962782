"""Property: ``from_dict`` builds a scenario or raises ``ConfigError``.

Random leaves of ``DEFAULTS`` are replaced by wrong types, bools, NaN,
+-inf, zero, negatives, tiny and huge finite numbers, and empty and
one-element lists.  Whatever they hold, the one validation path either
returns a built scenario or refuses it with a ``ConfigError``; nothing
else may escape.  ``grid.n_points`` is kept at most 2^12 when it is an
integer, so that every accepted scenario builds quickly.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from weakslit import ConfigError, from_dict
from weakslit.config import DEFAULTS

MAX_TEST_POINTS = 2 ** 12


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
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
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


def _overrides(replacements: dict) -> dict:
    out: dict = {}
    for path, value in replacements.items():
        if path == ("grid", "n_points") and type(value) is int:
            value = min(value, MAX_TEST_POINTS)
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.dictionaries(st.sampled_from(LEAVES), VALUES, min_size=1,
                       max_size=4))
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
