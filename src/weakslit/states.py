"""Initial transverse states: slit apertures and momentum-space Gaussians.

Every constructor returns a normalised, horizontally polarised state,
so a state holds the H field alone.  Only a channel's polarisation
swap, the which-way tag, puts amplitude into V downstream.
"""

import math

import numpy as np

from .errors import ConfigError, NumericError
from .grid import SimGrid, _show, indicator

__all__ = [
    "SlitGeometry",
    "TransverseState",
    "build_double_slit",
    "build_momentum_peak",
]

#: Samples of clearance required between a slit edge and the grid boundary.
EDGE_MARGIN = 4

#: Largest field, relative to its peak, allowed on the EDGE_MARGIN samples
#: at either end of the grid, where it would wrap around to the other end.
EDGE_TAIL = 1e-12


class SlitGeometry:
    """Double-slit aperture parameters in internal length units.

    The slit separation is the length unit: the slits sit at -1/2 and
    +1/2, and ``width`` lies in (0, 1).  edge_profile is "sharp" for
    ideal top-hats or "gaussian_smoothed" for error-function edges of
    scale ``edge_scale`` (default width/10), which sharp edges refuse.
    Smoothed edges keep all momentum moments finite; sharp edges do not.
    """

    def __init__(self, width: float, edge_profile: str = "sharp",
                 edge_scale: float | None = None):
        if not 0.0 < width < 1.0:
            raise ConfigError(
                f"need 0 < width < 1 slit separation, got width={width}")
        if edge_profile not in ("sharp", "gaussian_smoothed"):
            raise ConfigError(f"unknown edge_profile {_show(edge_profile)}")
        if edge_profile == "sharp" and edge_scale is not None:
            raise ConfigError(
                "edge_scale applies to gaussian_smoothed edges only")
        if edge_profile == "gaussian_smoothed" and edge_scale is None:
            edge_scale = width / 10.0
        if edge_scale is not None and not edge_scale > 0.0:
            raise ConfigError("edge_scale must be positive")
        self.width = width
        self.edge_profile = edge_profile
        self.edge_scale = edge_scale

    @property
    def sharp(self) -> bool:
        return self.edge_profile == "sharp"


class TransverseState:
    """Horizontally polarised complex field on a :class:`SimGrid`.

    ``field`` has shape (n,): the H amplitude, the V one being zero.
    ``sharp_edges`` records whether the construction used discontinuous
    apertures; moment computations refuse such states because their
    momentum variance diverges.
    """

    def __init__(self, grid: SimGrid, field: np.ndarray,
                 sharp_edges: bool = False):
        self.grid = grid
        self.field = field
        self.sharp_edges = sharp_edges

    def momentum_field(self) -> np.ndarray:
        """(n,) momentum-space field via the unitary transform."""
        return self.grid.to_momentum(self.field)


def _h_polarised(grid: SimGrid, field: np.ndarray,
                 sharp_edges: bool) -> TransverseState:
    """Normalised state carrying ``field`` in H."""
    field = field.astype(complex)
    field /= np.sqrt(np.sum(np.abs(field) ** 2) * grid.dx)
    return TransverseState(grid, field, sharp_edges)


def _slit_amplitude(geom: SlitGeometry, grid: SimGrid, center: float) -> np.ndarray:
    """Unnormalised aperture transmission for one slit centred at `center`."""
    x = grid.x
    lo = center - geom.width / 2.0
    hi = center + geom.width / 2.0
    if hi > x[-1] - EDGE_MARGIN * grid.dx or lo < x[0] + EDGE_MARGIN * grid.dx:
        raise ConfigError(
            f"slit [{lo}, {hi}] needs {EDGE_MARGIN} samples of margin inside "
            f"the grid extent [{x[0]}, {x[-1]}]"
        )
    if geom.sharp:
        return indicator(x, grid.dx, lo, hi)
    scale = geom.edge_scale * np.sqrt(2.0)
    return 0.5 * (_erf((x - lo) / scale) - _erf((x - hi) / scale))


def _erf(z: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.erf`; numpy has no error function."""
    return np.fromiter(map(math.erf, z.tolist()), float, count=len(z))


def build_double_slit(geom: SlitGeometry, grid: SimGrid) -> TransverseState:
    """Normalised double-slit state, slits centred at -1/2 and +1/2.

    Uniform plane-wave illumination at normal incidence lights both
    slits with equal amplitude and zero relative phase.  A slit narrower
    than 2 position samples is refused (:class:`ConfigError`), as a
    window narrower than 2 bins is; every slit then holds a sample.
    """
    if geom.width < 2.0 * grid.dx:
        raise ConfigError(f"slit width {geom.width:.4g} is below 2 "
                          f"position samples ({2.0 * grid.dx:.4g})")
    amp = _slit_amplitude(geom, grid, -0.5) + _slit_amplitude(geom, grid, 0.5)
    tail = (np.abs(np.r_[amp[:EDGE_MARGIN], amp[-EDGE_MARGIN:]]).max()
            / np.abs(amp).max())
    if tail > EDGE_TAIL:
        raise ConfigError(
            f"the field within {EDGE_MARGIN} samples of the grid boundary is "
            f"{tail:.3g} of its peak (> {EDGE_TAIL}) and would wrap around "
            f"the periodic grid; shorten edge_scale")
    return _h_polarised(grid, amp, geom.sharp)


def build_momentum_peak(p0: float, width: float, grid: SimGrid) -> TransverseState:
    """Near-momentum-eigenstate: Gaussian momentum amplitude at p0.

    The amplitude is exp(-(p - p0)^2 / (2 width^2)), so the momentum
    *density* has standard deviation width/sqrt(2).  Widths below 4 grid
    bins are refused as unresolvable, and a peak so far outside the
    simulated momentum range that it is zero on every sample is refused
    as out of range (:class:`NumericError`).
    """
    if width < 4.0 * grid.dp:
        raise NumericError(
            f"momentum width {width} below 4 grid bins ({4.0 * grid.dp:.4g})"
        )
    tilde = np.exp(-((grid.p - p0) ** 2) / (2.0 * width ** 2)).astype(complex)
    if not tilde.any():
        raise NumericError(
            f"momentum peak at {p0:.4g} of width {width:.4g} is zero on every "
            f"sample of the simulated momentum range "
            f"[{grid.p[0]:.4g}, {grid.p[-1]:.4g}]")
    return _h_polarised(grid, grid.from_momentum(tilde), False)
