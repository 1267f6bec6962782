"""Initial transverse states: slit apertures and momentum-space Gaussians.

Every constructor returns a normalised two-polarisation state.  The
horizontal component (row 0) carries the optical field at the aperture;
the vertical component (row 1) starts empty and is populated only by
which-way tagging downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ResolutionError
from .grid import SimGrid

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


@dataclass(frozen=True)
class SlitGeometry:
    """Double-slit aperture parameters in internal length units.

    edge_profile is "sharp" for ideal top-hats or "gaussian_smoothed"
    for error-function edges of scale ``edge_scale`` (default width/10).
    Smoothed edges keep all momentum moments finite; sharp edges do not.
    """

    width: float
    separation: float
    edge_profile: str = "sharp"
    edge_scale: float | None = None

    def __post_init__(self):
        if not (self.separation > self.width > 0.0):
            raise GeometryError(
                f"need separation > width > 0, got separation={self.separation} "
                f"width={self.width}"
            )
        if self.edge_profile not in ("sharp", "gaussian_smoothed"):
            raise GeometryError(f"unknown edge_profile {self.edge_profile!r}")
        if self.edge_profile == "gaussian_smoothed" and self.edge_scale is None:
            object.__setattr__(self, "edge_scale", self.width / 10.0)
        if self.edge_scale is not None and not self.edge_scale > 0.0:
            raise GeometryError("edge_scale must be positive")

    @property
    def sharp(self) -> bool:
        return self.edge_profile == "sharp"


@dataclass
class TransverseState:
    """Two-polarisation complex field on a :class:`SimGrid`.

    ``amps`` has shape (2, n): row 0 is the horizontal and row 1 the
    vertical polarisation.  ``sharp_edges`` records whether the
    construction used discontinuous apertures; moment computations
    refuse such states because their momentum variance diverges.
    """

    grid: SimGrid
    amps: np.ndarray
    sharp_edges: bool = False

    def norm_sq(self) -> float:
        """Total probability, integrating both polarisations over x."""
        return float(np.sum(self.spatial_density()) * self.grid.dx)

    def normalized(self) -> "TransverseState":
        n = np.sqrt(self.norm_sq())
        return TransverseState(self.grid, self.amps / n, self.sharp_edges)

    def momentum_amplitudes(self) -> np.ndarray:
        """(2, n) momentum-space amplitudes via the unitary transform."""
        return self.grid.to_momentum(self.amps)

    def spatial_density(self) -> np.ndarray:
        return np.sum(np.abs(self.amps) ** 2, axis=0)


def _h_polarised(grid: SimGrid, field: np.ndarray,
                 sharp_edges: bool) -> TransverseState:
    """Normalised state carrying ``field`` in H and nothing in V."""
    amps = np.zeros((2, grid.n_points), dtype=complex)
    amps[0] = field
    return TransverseState(grid, amps, sharp_edges).normalized()


def _slit_amplitude(geom: SlitGeometry, grid: SimGrid, center: float) -> np.ndarray:
    """Unnormalised aperture transmission for one slit centred at `center`."""
    x = grid.x
    lo = center - geom.width / 2.0
    hi = center + geom.width / 2.0
    if hi > x[-1] - EDGE_MARGIN * grid.dx or lo < x[0] + EDGE_MARGIN * grid.dx:
        raise GeometryError(
            f"slit [{lo}, {hi}] needs {EDGE_MARGIN} samples of margin inside "
            f"the grid extent [{x[0]}, {x[-1]}]"
        )
    if geom.sharp:
        amp = ((x > lo) & (x < hi)).astype(float)
        # A field sample exactly on a discontinuity takes the midpoint value.
        amp[np.isclose(x, lo, rtol=0.0, atol=1e-12 * grid.dx)] = 0.5
        amp[np.isclose(x, hi, rtol=0.0, atol=1e-12 * grid.dx)] = 0.5
        return amp
    scale = geom.edge_scale * np.sqrt(2.0)
    return 0.5 * (_erf((x - lo) / scale) - _erf((x - hi) / scale))


def _erf(z: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.erf`; numpy has no error function."""
    return np.array([math.erf(v) for v in z.tolist()])


def build_double_slit(geom: SlitGeometry, grid: SimGrid,
                      weights: tuple[float, float] = (1.0, 1.0)) -> TransverseState:
    """Normalised double-slit state, slits centred at -s/2 and +s/2.

    Parameters
    ----------
    geom, grid :
        Aperture description and sample grid.
    weights :
        Relative (real) illumination amplitudes of the left and right
        slit.  The default models uniform plane-wave illumination at
        normal incidence: equal amplitude, zero relative phase.
    """
    half = geom.separation / 2.0
    amp = (weights[0] * _slit_amplitude(geom, grid, -half)
           + weights[1] * _slit_amplitude(geom, grid, +half))
    if not amp.any():
        raise GeometryError(
            f"the slits transmit on no sample of a grid with dx = {grid.dx:.4g}")
    tail = (np.abs(np.r_[amp[:EDGE_MARGIN], amp[-EDGE_MARGIN:]]).max()
            / np.abs(amp).max())
    if tail > EDGE_TAIL:
        raise GeometryError(
            f"the field within {EDGE_MARGIN} samples of the grid boundary is "
            f"{tail:.3g} of its peak (> {EDGE_TAIL}) and would wrap around "
            f"the periodic grid; shorten edge_scale")
    return _h_polarised(grid, amp, geom.sharp)


def build_momentum_peak(p0: float, width: float, grid: SimGrid) -> TransverseState:
    """Near-momentum-eigenstate: Gaussian momentum amplitude at p0.

    The amplitude is exp(-(p - p0)^2 / (2 width^2)), so the momentum
    *density* has standard deviation width/sqrt(2).  Widths below 4 grid
    bins are refused as unresolvable.
    """
    if width < 4.0 * grid.dp:
        raise ResolutionError(
            f"momentum width {width} below 4 grid bins ({4.0 * grid.dp:.4g})"
        )
    tilde = np.exp(-((grid.p - p0) ** 2) / (2.0 * width ** 2)).astype(complex)
    return _h_polarised(grid, grid.from_momentum(tilde), False)
