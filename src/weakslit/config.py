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
from dataclasses import dataclass

import numpy as np

from .channels import MeasurementChannel, classical_kick, identity_channel, scully_wwm
from .errors import ConfigError
from .grid import LabFrame, SimGrid, make_grid
from .moments import RegularizationSpec
from .pointer import PointerSpec
from .states import SlitGeometry, TransverseState, build_double_slit
from .weak_values import ERASERS, MomentumWindow

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


def _require_number(data, path, positive=True):
    value = data
    for part in path.split("."):
        value = value[part]
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        raise ConfigError(f"{path!r} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{path!r} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario; ``data`` is the fully-filled canonical dict."""

    data: dict

    # -- builders ---------------------------------------------------------
    def lab_frame(self) -> LabFrame:
        lab = self.data["lab"]
        return LabFrame(lab["wavelength"], lab["focal_length"],
                        self.data["geometry"]["separation"])

    def sim_grid(self) -> SimGrid:
        g = self.data["grid"]
        return make_grid(g["n_points"], g["x_extent"])

    def slit_geometry(self) -> SlitGeometry:
        geo = self.data["geometry"]
        sep = geo["separation"]
        edge_scale = geo["edge_scale"]
        return SlitGeometry(
            width=geo["width"] / sep,
            separation=1.0,
            edge_profile=geo["edge_profile"],
            edge_scale=None if edge_scale is None else edge_scale / sep,
        )

    def build_state(self, grid: SimGrid) -> TransverseState:
        return build_double_slit(self.slit_geometry(), grid)

    def build_channel(self, grid: SimGrid) -> MeasurementChannel:
        ch = self.data["channel"]
        if ch["kind"] == "identity":
            return identity_channel(grid)
        if ch["kind"] == "scully":
            return scully_wwm(self.slit_geometry(), grid)
        if ch["kind"] == "kick":
            return classical_kick([(q, pr) for q, pr in ch["kicks"]], grid)
        raise ConfigError(f"unknown channel kind {ch['kind']!r}")

    def window_width_internal(self) -> float:
        return float(self.lab_frame().momentum_from_position(
            self.data["windows"]["sliver_width"]))

    def window_indices(self) -> range:
        count = self.data["windows"]["count"]
        half = (count - 1) // 2
        return range(-half, half + 1)

    def focus_window(self) -> MomentumWindow:
        return MomentumWindow(self.data["windows"]["focus_index"],
                              self.window_width_internal())

    def eraser(self) -> str:
        return self.data["eraser"]

    def pointer_spec(self) -> PointerSpec:
        pt = self.data["pointer"]
        return PointerSpec(pt["sigma"], pt["displacement"],
                           self.data["windows"]["sliver_width"],
                           self.data["windows"]["focus_index"],
                           self.lab_frame())

    def pointer_ratios(self) -> tuple[float, ...]:
        return tuple(self.data["pointer"]["ratios"])

    def regularization(self) -> RegularizationSpec:
        reg = self.data["regularization"]
        q_max = reg["q_max"] or _DEFAULT_QMAX
        kappa = reg["kappa"] or _DEFAULT_KAPPA
        return RegularizationSpec(tuple(q_max), tuple(kappa))

    def output_dir(self) -> str:
        return self.data["output_dir"]

    def config_hash(self) -> str:
        """Scenario fingerprint; excludes the output destination."""
        payload = {k: v for k, v in self.data.items() if k != "output_dir"}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _validate(data: dict):
    for path in ("geometry.width", "geometry.separation", "lab.wavelength",
                 "lab.focal_length", "grid.x_extent", "windows.sliver_width",
                 "pointer.sigma", "pointer.displacement"):
        _require_number(data, path)
    geo = data["geometry"]
    if geo["separation"] <= geo["width"]:
        raise ConfigError(
            f"'geometry': need separation > width, got "
            f"{geo['separation']} <= {geo['width']}"
        )
    if geo["edge_profile"] not in ("sharp", "gaussian_smoothed"):
        raise ConfigError(
            f"'geometry.edge_profile': unknown profile {geo['edge_profile']!r}")
    if geo["edge_scale"] is not None:
        _require_number(data, "geometry.edge_scale")
    n_points = data["grid"]["n_points"]
    if not isinstance(n_points, int) or n_points < 8 \
            or (n_points & (n_points - 1)) != 0:
        raise ConfigError(
            f"'grid.n_points' must be a power of two >= 8, got {n_points!r}")
    ch = data["channel"]
    if ch["kind"] not in ("identity", "scully", "kick"):
        raise ConfigError(f"'channel.kind': unknown kind {ch['kind']!r}")
    if ch["kind"] == "kick":
        kicks = ch["kicks"]
        if (not isinstance(kicks, list) or not kicks
                or not all(isinstance(k, list) and len(k) == 2 for k in kicks)):
            raise ConfigError(
                "'channel.kicks' must be a non-empty list of [q, prob] pairs")
    win = data["windows"]
    if not isinstance(win["count"], int) or win["count"] < 1 \
            or win["count"] % 2 == 0:
        raise ConfigError(
            f"'windows.count' must be an odd positive integer, got "
            f"{win['count']!r}")
    if not isinstance(win["focus_index"], int):
        raise ConfigError("'windows.focus_index' must be an integer")
    if data["eraser"] not in ERASERS:
        raise ConfigError(
            f"'eraser' must be one of {ERASERS}, got {data['eraser']!r}")
    ratios = data["pointer"]["ratios"]
    # The sweep reports a convergence slope, which needs two ratios.
    if not isinstance(ratios, list) \
            or any(not isinstance(r, (int, float)) or not 0 < r <= 1
                   for r in ratios) \
            or len(set(ratios)) < 2:
        raise ConfigError("'pointer.ratios' must be a list of at least two "
                          "distinct ratios in (0, 1]")
    reg = data["regularization"]
    for key in ("q_max", "kappa"):
        values = reg[key]
        if not isinstance(values, list) \
                or any(not isinstance(v, (int, float)) or v <= 0
                       for v in values):
            raise ConfigError(
                f"'regularization.{key}' must be a list of positive numbers")
    if not isinstance(data["output_dir"], str) or not data["output_dir"]:
        raise ConfigError("'output_dir' must be a non-empty string")


def from_dict(overrides: dict) -> ScenarioConfig:
    """Fill defaults, validate, and freeze a configuration."""
    if not isinstance(overrides, dict):
        raise ConfigError("config root must be a JSON object")
    data = merge(DEFAULTS, overrides)
    _validate(data)
    return ScenarioConfig(data)


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
