"""Initial transverse states: slit apertures and momentum-space Gaussians.

Every constructor returns a normalised, horizontally polarised state,
so a state holds the H field alone.  Only a channel's polarisation
swap, the which-way tag, puts amplitude into V downstream.
"""

import math

import numpy as np

from .errors import ConfigError, NumericError
from .grid import SimGrid, indicator

__all__ = [
    "TransverseState",
    "build_double_slit",
    "build_momentum_peak",
]

#: Samples of clearance required between a slit edge and the grid boundary.
EDGE_MARGIN = 4

#: Largest field, relative to its peak, allowed on the EDGE_MARGIN samples
#: at either end of the grid, where it would wrap around to the other end.
EDGE_TAIL = 1e-12


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


def _slit_amplitude(width: float, grid: SimGrid, center: float,
                    edge_scale: float | None = None) -> np.ndarray:
    """Unnormalised aperture transmission for one slit centred at `center`."""
    x = grid.x
    lo = center - width / 2.0
    hi = center + width / 2.0
    if hi > x[-1] - EDGE_MARGIN * grid.dx or lo < x[0] + EDGE_MARGIN * grid.dx:
        raise ConfigError(
            f"slit [{lo}, {hi}] needs {EDGE_MARGIN} samples of margin inside "
            f"the grid extent [{x[0]}, {x[-1]}]"
        )
    if edge_scale is None:
        return indicator(x, grid.dx, lo, hi)
    scale = edge_scale * np.sqrt(2.0)
    return 0.5 * (_erf((x - lo) / scale) - _erf((x - hi) / scale))


def _erf(z: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.erf`; numpy has no error function."""
    return np.fromiter(map(math.erf, z.tolist()), float, count=len(z))


def build_double_slit(width: float, grid: SimGrid,
                      edge_scale: float | None = None) -> TransverseState:
    """Normalised double-slit state, slits centred at -1/2 and +1/2.

    The slit separation is the length unit, so ``width`` lies in (0, 1).
    With no ``edge_scale`` the slits are ideal top-hats; otherwise their
    edges are error functions of that (positive) scale.  Smoothed edges
    keep all momentum moments finite; sharp edges do not, and the state
    records them in ``sharp_edges``.

    Uniform plane-wave illumination at normal incidence lights both
    slits with equal amplitude and zero relative phase.  A slit narrower
    than 2 position samples is refused (:class:`ConfigError`), as a
    window narrower than 2 bins is; every slit then holds a sample.
    """
    if not 0.0 < width < 1.0:
        raise ConfigError(
            f"need 0 < width < 1 slit separation, got width={width}")
    if edge_scale is not None and not edge_scale > 0.0:
        raise ConfigError("edge_scale must be positive")
    if width < 2.0 * grid.dx:
        raise ConfigError(f"slit width {width:.4g} is below 2 "
                          f"position samples ({2.0 * grid.dx:.4g})")
    amp = (_slit_amplitude(width, grid, -0.5, edge_scale)
           + _slit_amplitude(width, grid, 0.5, edge_scale))
    tail = (np.abs(np.r_[amp[:EDGE_MARGIN], amp[-EDGE_MARGIN:]]).max()
            / np.abs(amp).max())
    if tail > EDGE_TAIL:
        raise ConfigError(
            f"the field within {EDGE_MARGIN} samples of the grid boundary is "
            f"{tail:.3g} of its peak (> {EDGE_TAIL}) and would wrap around "
            f"the periodic grid; shorten edge_scale")
    return _h_polarised(grid, amp, edge_scale is None)


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
