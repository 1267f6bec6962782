"""Scenario configuration: JSON schema, presets, overrides, validation.

Unit convention: apparatus lengths (geometry, lab, windows.sliver_width,
pointer sigma/displacement) are laboratory metres; the grid extent is in
internal length units (slit separations); kick momenta and
regularisation sweep points are internal momentum units (hbar/s = 1,
one fringe period = 2*pi).  The slit separation itself defines the
internal length unit, so geometry.separation doubles as the scale
factor between the two systems.
"""

import json
import math
from contextlib import contextmanager

# CPython's built-in SHA-256 gives the digest hashlib does without
# mapping OpenSSL (about 3.5 MiB) into every process.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from .channels import (MeasurementChannel, _check_eraser, classical_kick,
                       identity_channel, scully_wwm)
from .errors import ConfigError
from .grid import SimGrid, _is_number, _show
from .states import TransverseState, build_double_slit

__all__ = ["ScenarioConfig", "from_dict", "PRESETS"]

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


def _within(sweep: list, limit: float) -> list:
    """The default sweep's points up to ``limit`` = pi/dx: fewer on a
    coarse grid, never none (a slit 2 dx < 1 wide puts pi/dx above 2 pi)."""
    return [v for v in sweep if v <= limit]


def merge(base: dict, override: dict, path: str = "") -> dict:
    """``base`` with ``override`` merged in, key by key.

    Every key must already exist in ``base``; the error names its dotted
    path.  Objects merge recursively and may only meet objects: an
    override that descends into a scalar, or replaces an object with a
    scalar, is an error too.  Each object the override reaches is a new
    dict; every other value is shared, never copied or walked, however
    deeply it nests, so treat the result as read-only.
    """
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be an object")
            value = merge(base[key], value, where)
        elif isinstance(value, dict):
            raise ConfigError(f"override path {where!r} crosses a scalar")
        out[key] = value
    return out


@contextmanager
def _key(path: str):
    """Re-raise a constructor's :class:`ConfigError` under its config key."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path!r}: {exc}") from None


class ScenarioConfig:
    """A validated scenario: the canonical dict ``data`` and its objects.

    The constructor checks the JSON shape of the fully filled ``data``
    (:func:`_validate`), then builds every object once, in dependency
    order.  Each object's constructor, or the block that builds it,
    checks its own ranges, orderings, names and sums; their errors come
    back prefixed with the config key.  Last it takes the digest that
    :meth:`config_hash` returns.

    ``lab`` comes first: it refuses a non-positive
    ``geometry.separation``, which ``geometry`` divides by, and converts
    the lab lengths once.  The photon is a free particle of effective
    mass m = h / (c * wavelength), and a lens of focal length f maps
    transverse momentum p to the focal-plane position (f/c) * (p/m), so
    the momentum h/s, 2 pi internal, lands one fringe period
    f * wavelength / s out.  ``window_width`` is ``sliver_width`` in
    hbar/s and ``mm_per_unit`` the focal-plane millimetres per hbar/s.
    ``slit_width`` and ``edge_scale`` are in slit separations; the scale
    is None for sharp edges and defaults to a tenth of the width for
    smoothed ones.

    Every command reads the focus window, momentum bin ``focus_index``
    of width ``window_width``, and ``indices`` are the tiling's window
    numbers; the pointer contributes only its weakness ``ratio`` =
    D/sigma and the sweep's ``ratios``; ``q_max`` and ``kappa`` are the
    filled-in regularisation sweeps.
    """

    def __init__(self, data: dict):
        _validate(data)
        self.data = data
        geo, win, pt = data["geometry"], data["windows"], data["pointer"]
        sep = geo["separation"]
        with _key("lab"):
            lab = data["lab"]
            for name, length in (("wavelength", lab["wavelength"]),
                                 ("focal_length", lab["focal_length"]),
                                 ("geometry.separation", sep)):
                if not length > 0.0:
                    raise ConfigError(f"{name} must be positive")
            period = lab["focal_length"] * lab["wavelength"] / sep
            if not 0.0 < period < math.inf:
                raise ConfigError(f"fringe period {period} m is not a "
                                  f"positive finite length")
            self.window_width = float(win["sliver_width"] * _TWO_PI / period)
            self.mm_per_unit = float(1.0 / _TWO_PI * period) * 1e3
        with _key("grid"):
            self.grid = SimGrid(data["grid"]["n_points"],
                                data["grid"]["x_extent"])
        with _key("geometry"):
            profile, scale = geo["edge_profile"], geo["edge_scale"]
            if profile not in ("sharp", "gaussian_smoothed"):
                raise ConfigError(f"unknown edge_profile {_show(profile)}")
            if profile == "sharp" and scale is not None:
                raise ConfigError(
                    "edge_scale applies to gaussian_smoothed edges only")
            self.slit_width = geo["width"] / sep
            if scale is not None:
                scale = scale / sep
            elif profile == "gaussian_smoothed":
                scale = self.slit_width / 10.0
            self.edge_scale = scale
            self.state = self.build_state(self.grid)
        with _key("channel"):
            self.channel = self.build_channel(self.grid)
        with _key("eraser"):
            _check_eraser(data["eraser"])
            self.eraser = data["eraser"]
        with _key("windows"):
            if win["sliver_width"] <= 0.0:
                raise ConfigError("sliver_width must be positive")
            # A wider window holds every sample and costs one transfer pass
            # per sample; an infinite one has no bins at all.
            span = self.grid.n_points * self.grid.dp
            if not self.window_width <= span:
                raise ConfigError(f"sliver_width {win['sliver_width']} m is "
                                  f"{self.window_width:.4g} hbar/s, wider "
                                  f"than the simulated momentum range "
                                  f"{span:.4g} hbar/s")
            self.focus_index = win["focus_index"]
            # Windows narrower than 2 dp are refused, so at most n/2 + 2 can
            # hold a sample; a larger count only costs time and memory.
            count = win["count"]
            if not 1 <= count <= self.grid.n_points or count % 2 == 0:
                raise ConfigError(f"count must be an odd integer in "
                                  f"[1, grid.n_points], got {count}")
            half = (count - 1) // 2
            self.indices = range(-half, half + 1)
        with _key("pointer"):
            if pt["sigma"] <= 0.0 or pt["displacement"] <= 0.0:
                raise ConfigError("sigma and displacement must be positive")
            self.ratio = pt["displacement"] / pt["sigma"]
            if not math.isfinite(self.ratio):
                raise ConfigError(f"displacement/sigma = {pt['displacement']}"
                                  f"/{pt['sigma']} is not a finite number")
            self.ratios = tuple(pt["ratios"])
            # The sweep reports a convergence slope, which needs two ratios.
            if not all(_is_number(r) and 0.0 < r <= 1.0 for r in self.ratios) \
                    or len(set(self.ratios)) < 2:
                raise ConfigError("ratios must hold at least two distinct "
                                  "numbers in (0, 1]")
        with _key("regularization"):
            reg = data["regularization"]
            q_lim = abs(float(self.grid.p[0]))
            self.q_max = tuple(reg["q_max"] or _within(_DEFAULT_QMAX, q_lim))
            self.kappa = tuple(reg["kappa"] or _within(_DEFAULT_KAPPA, q_lim))
            if not all(_is_number(v) and v > 0.0
                       for v in self.q_max + self.kappa):
                raise ConfigError("q_max and kappa must hold positive finite "
                                  "numbers")
        if not isinstance(data["output_dir"], str) or not data["output_dir"]:
            raise ConfigError("'output_dir' must be a non-empty string")
        self.output_dir = data["output_dir"]
        self._digest = _digest(data)

    def sim_grid(self) -> SimGrid:
        """The built grid, ``self.grid``."""
        return self.grid

    def build_state(self, grid: SimGrid) -> TransverseState:
        return build_double_slit(self.slit_width, grid, self.edge_scale)

    def build_channel(self, grid: SimGrid) -> MeasurementChannel:
        ch = self.data["channel"]
        if ch["kicks"] and ch["kind"] != "kick":
            raise ConfigError("kicks apply to the kick channel only")
        if ch["kind"] == "identity":
            return identity_channel(grid)
        if ch["kind"] == "scully":
            return scully_wwm(grid)
        if ch["kind"] == "kick":
            return classical_kick(ch["kicks"], grid)
        raise ConfigError(f"unknown channel kind {_show(ch['kind'])}")

    def window_width_internal(self) -> float:
        """``window_width``; perfbench/layers.py reads it by this name."""
        return self.window_width

    def config_hash(self) -> str:
        """Scenario fingerprint; excludes the output destination."""
        return self._digest


def _digest(data: dict) -> str:
    """SHA-256 of the canonical JSON of ``data`` without ``output_dir``.

    Every value in it has passed a check of its key, so none nests
    deeper than the encoder recurses.
    """
    payload = {k: v for k, v in data.items() if k != "output_dir"}
    # A numpy scalar passes the number test; it hashes as its value.
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                       default=lambda v: v.item())
    return sha256(canon.encode()).hexdigest()


def _validate(data: dict, schema: dict = DEFAULTS, path: str = ""):
    """Check that each leaf of ``data`` has the JSON type of its default.

    A list default needs a list, an int default an integer, a float
    default a finite number, and a ``None`` default (``edge_scale``)
    ``None`` or a number.  Strings are left to the objects that read
    them: ranges, orderings, names and sums are checked where
    :class:`ScenarioConfig` builds the object they constrain.
    """
    for key, default in schema.items():
        where = f"{path}.{key}" if path else key
        value, integer = data[key], type(default) is int
        if isinstance(default, dict):
            _validate(value, default, where)
        elif isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"{where!r} must be a list")
        elif not (isinstance(default, str) or _is_number(value, integer)
                  or (default is None and value is None)):
            noun = "an integer" if integer else "a finite number"
            raise ConfigError(f"{where!r} must be {noun}, got {_show(value)}")


def from_dict(overrides: dict) -> ScenarioConfig:
    """Fill defaults, check the JSON shape, and build the scenario once."""
    if not isinstance(overrides, dict):
        raise ConfigError("config root must be a JSON object")
    return ScenarioConfig(merge(DEFAULTS, overrides))


def _loads(text: str, source: str):
    """``json.loads(text)``, whose :class:`json.JSONDecodeError` the
    caller handles; the parser's two limits raise a :class:`ConfigError`
    naming ``source``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:  # a ValueError too: caught first
        raise
    except ValueError:  # Python parses no integer of over 4,300 digits
        raise ConfigError(f"{source} holds an integer too long to parse") \
            from None
    except RecursionError:
        raise ConfigError(f"{source} nests too deeply") from None


def parse_json_object(text: str, source: str) -> dict:
    """The JSON object of a config document, {} for blank text; an error
    names ``source``."""
    if not text.strip():
        return {}
    try:
        payload = _loads(text, source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{source}: config root must be a JSON object")
    return payload


def parse_override(assignment: str) -> dict:
    """One ``dotted.path=value`` override as a nested dict for :func:`merge`.

    The value is parsed as JSON when possible, otherwise taken as a
    bare string.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of form key=value")
    path, _, raw_value = assignment.partition("=")
    try:
        value = _loads(raw_value, f"override {path!r}")
    except json.JSONDecodeError:
        value = raw_value
    for part in reversed(path.split(".")):
        value = {part: value}
    return value
