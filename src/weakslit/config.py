"""Scenario configuration: JSON schema, presets, overrides, validation.

Unit convention: apparatus lengths (geometry, lab, windows.sliver_width,
pointer sigma/displacement) are laboratory metres; the grid extent is in
internal length units (slit separations); kick momenta and
regularisation sweep points are internal momentum units (hbar/s = 1,
one fringe period = 2*pi).  The slit separation itself defines the
internal length unit, so geometry.separation doubles as the scale
factor between the two systems.
"""

import copy
import hashlib
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .channels import MeasurementChannel, classical_kick, identity_channel, scully_wwm
from .errors import ConfigError
from .grid import LabFrame, SimGrid, make_grid
from .moments import RegularizationSpec
from .pointer import PointerSpec
from .states import SlitGeometry, TransverseState, build_double_slit
from .weak_values import _check_eraser

__all__ = ["ScenarioConfig", "parse_config", "from_dict", "PRESETS",
           "merge", "parse_override", "DEFAULTS"]

_TWO_PI = 2.0 * math.pi

DEFAULTS: dict = {
    "geometry": {
        "width": 40e-6,
        "separation": 80e-6,
        "edge_profile": "sharp",
        "edge_scale": None,
    },
    "lab": {
        "wavelength": 633e-9,
        "focal_length": 1.0,
    },
    "grid": {
        "n_points": 16384,
        "x_extent": 64.0,
    },
    "channel": {
        "kind": "identity",
        "kicks": [],
    },
    "windows": {
        "count": 15,
        "sliver_width": 1.77e-3,
        "focus_index": -1,
    },
    "eraser": "none",
    "pointer": {
        "sigma": 1.01e-3,
        "displacement": 0.14e-3,
        "ratios": [0.3, 0.139, 0.05, 0.01, 0.001],
    },
    "regularization": {
        # filled with default sweeps when left empty
        "q_max": [],
        "kappa": [],
    },
    "output_dir": "weakslit-out",
}

#: Presets are override dictionaries applied on top of the defaults.
PRESETS: dict[str, dict] = {
    # Flagship scenario: which-way marker switched on.  Every other
    # apparatus number is already the default.
    "paper": {
        "channel": {"kind": "scully"},
    },
}

_DEFAULT_QMAX = [round(v, 10) for v in np.linspace(0.5, 4.0 * _TWO_PI, 48)]
_DEFAULT_KAPPA = [_TWO_PI * k for k in (1.0, 2.0, 4.0, 8.0, 16.0)]


def merge(base: dict, override: dict, path: str = "") -> dict:
    """A copy of ``base`` with ``override`` merged in, key by key.

    Every key must already exist in ``base``; the error names its dotted
    path.  Objects merge recursively and may only meet objects: an
    override that descends into a scalar, or replaces an object with a
    scalar, is an error too.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be an object")
            out[key] = merge(base[key], value, where)
        elif isinstance(value, dict):
            raise ConfigError(f"override path {where!r} crosses a scalar")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _number(value, path: str, integer: bool = False):
    """``value`` if it is a finite number (an int if ``integer``), never a bool.

    The bound keeps every accepted number convertible to a float: JSON
    allows integers of any size.
    """
    kind = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not abs(value) <= sys.float_info.max:
        noun = "an integer" if integer else "a finite number"
        raise ConfigError(f"{path!r} must be {noun}, got {value!r}")
    return value


@contextmanager
def _key(path: str):
    """Re-raise a constructor's :class:`ConfigError` under its config key."""
    try:
        yield
    except ConfigError as exc:
        raise type(exc)(f"{path!r}: {exc}") from None


class ScenarioConfig:
    """A validated scenario: the canonical dict ``data`` and its objects.

    The constructor checks the JSON shape of the fully filled ``data``
    (:func:`_validate`), then builds every object once, in dependency
    order.  Each object's constructor checks its own ranges, orderings,
    names and sums; their errors come back prefixed with the config key.
    ``lab`` comes first because it refuses a non-positive
    ``geometry.separation``, which ``geometry`` divides by.
    """

    def __init__(self, data: dict):
        _validate(data)
        self.data = data
        geo, win, pt = data["geometry"], data["windows"], data["pointer"]
        sep = geo["separation"]
        with _key("lab"):
            self.lab = LabFrame(data["lab"]["wavelength"],
                                data["lab"]["focal_length"], sep)
        with _key("grid"):
            self.grid = make_grid(data["grid"]["n_points"],
                                  data["grid"]["x_extent"])
        with _key("geometry"):
            scale = geo["edge_scale"]
            self.geometry = SlitGeometry(
                width=geo["width"] / sep,
                separation=1.0,
                edge_profile=geo["edge_profile"],
                edge_scale=None if scale is None else scale / sep,
            )
            self.state = self.build_state(self.grid)
        with _key("channel"):
            self.channel = self.build_channel(self.grid)
        with _key("eraser"):
            _check_eraser(data["eraser"])
        with _key("pointer"):
            self.pointer = PointerSpec(pt["sigma"], pt["displacement"],
                                       win["sliver_width"], win["focus_index"],
                                       self.lab)
        with _key("regularization"):
            reg = data["regularization"]
            self.regularization = RegularizationSpec(
                tuple(reg["q_max"] or _DEFAULT_QMAX),
                tuple(reg["kappa"] or _DEFAULT_KAPPA))

    def sim_grid(self) -> SimGrid:
        """The built grid, ``self.grid``."""
        return self.grid

    def build_state(self, grid: SimGrid) -> TransverseState:
        return build_double_slit(self.geometry, grid)

    def build_channel(self, grid: SimGrid) -> MeasurementChannel:
        ch = self.data["channel"]
        if ch["kind"] == "identity":
            return identity_channel(grid)
        if ch["kind"] == "scully":
            return scully_wwm(grid)
        if ch["kind"] == "kick":
            return classical_kick(ch["kicks"], grid)
        raise ConfigError(f"unknown channel kind {ch['kind']!r}")

    def window_width_internal(self) -> float:
        return self.pointer.window().width

    def window_indices(self) -> range:
        count = self.data["windows"]["count"]
        half = (count - 1) // 2
        return range(-half, half + 1)

    def eraser(self) -> str:
        return self.data["eraser"]

    def pointer_ratios(self) -> tuple[float, ...]:
        return tuple(self.data["pointer"]["ratios"])

    def output_dir(self) -> str:
        return self.data["output_dir"]

    def config_hash(self) -> str:
        """Scenario fingerprint; excludes the output destination."""
        payload = {k: v for k, v in self.data.items() if k != "output_dir"}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _leaf(data: dict, path: str):
    for part in path.split("."):
        data = data[part]
    return data


def _validate(data: dict):
    """The JSON-shape rules, and the rules that no built object owns.

    Ranges, orderings, names and sums are checked by the constructors
    that :class:`ScenarioConfig` calls, not here.
    """
    for path in ("geometry.width", "geometry.separation", "lab.wavelength",
                 "lab.focal_length", "grid.x_extent", "windows.sliver_width",
                 "pointer.sigma", "pointer.displacement"):
        _number(_leaf(data, path), path)
    if data["geometry"]["edge_scale"] is not None:
        _number(data["geometry"]["edge_scale"], "geometry.edge_scale")
    for path in ("grid.n_points", "windows.count", "windows.focus_index"):
        _number(_leaf(data, path), path, integer=True)
    for path in ("channel.kicks", "pointer.ratios", "regularization.q_max",
                 "regularization.kappa"):
        if not isinstance(_leaf(data, path), list):
            raise ConfigError(f"{path!r} must be a list")
    for path in ("pointer.ratios", "regularization.q_max",
                 "regularization.kappa"):
        for value in _leaf(data, path):
            _number(value, path)
    if not isinstance(data["output_dir"], str) or not data["output_dir"]:
        raise ConfigError("'output_dir' must be a non-empty string")
    # Windows narrower than 2 dp are refused, so at most n/2 + 2 of them
    # can hold a sample; a larger count only costs time and memory.
    count = data["windows"]["count"]
    if not 1 <= count <= data["grid"]["n_points"] or count % 2 == 0:
        raise ConfigError(f"'windows.count' must be an odd integer in "
                          f"[1, grid.n_points], got {count}")
    ratios = data["pointer"]["ratios"]
    # The sweep reports a convergence slope, which needs two ratios.
    if len(set(ratios)) < 2 or not all(0 < r <= 1 for r in ratios):
        raise ConfigError("'pointer.ratios' must hold at least two distinct "
                          "ratios in (0, 1]")


def from_dict(overrides: dict) -> ScenarioConfig:
    """Fill defaults, check the JSON shape, and build the scenario once."""
    if not isinstance(overrides, dict):
        raise ConfigError("config root must be a JSON object")
    return ScenarioConfig(merge(DEFAULTS, overrides))


def parse_config(text: str) -> ScenarioConfig:
    """Parse a JSON config document (empty text allowed: all defaults)."""
    if not text.strip():
        return from_dict({})
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return from_dict(payload)


def parse_override(assignment: str) -> dict:
    """One ``dotted.path=value`` override as a nested dict for :func:`merge`.

    The value is parsed as JSON when possible, otherwise taken as a
    bare string.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of form key=value")
    path, _, raw_value = assignment.partition("=")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    for part in reversed(path.split(".")):
        value = {part: value}
    return value
