"""Uniform conjugate grids, unitary transforms, and lab-unit mapping.

Internal units: hbar = 1 and the slit separation is the unit of length,
so momentum is a wavenumber and the single-slit diffraction bound
hbar/s is the pure number 1.  One full fringe period corresponds to
h/s = 2*pi in these units.

The position/momentum transform is the symmetric (unitary) convention

    psi_tilde(p) = (2*pi)^{-1/2} * integral dx exp(-i p x) psi(x),

discretised with centred sample ordering on both axes.  With
dx * dp * n = 2*pi the discrete transform is exactly unitary, so
Parseval holds to round-off and round trips are exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridMismatchError

__all__ = ["SimGrid", "LabFrame", "make_grid"]

#: Largest accepted grid.  A 2^22-point state is 128 MiB of (2, n)
#: complex amplitudes, and every analysis holds several such arrays.
MAX_POINTS = 2 ** 22


@dataclass(frozen=True)
class SimGrid:
    """Conjugate position/momentum sample grid.

    Attributes
    ----------
    n_points : int
        Number of samples; a power of two so FFTs stay fast.
    x_extent : float
        Total simulated width in internal length units.
    """

    n_points: int
    x_extent: float
    dx: float = field(init=False)
    dp: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dx", self.x_extent / self.n_points)
        object.__setattr__(self, "dp", 2.0 * np.pi / self.x_extent)

    @property
    def x(self) -> np.ndarray:
        """Centred position samples, x[n//2] == 0."""
        n = self.n_points
        return (np.arange(n) - n // 2) * self.dx

    @property
    def p(self) -> np.ndarray:
        """Centred momentum samples, conjugate to :attr:`x`."""
        n = self.n_points
        return (np.arange(n) - n // 2) * self.dp

    def _check(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape[-1] != self.n_points:
            raise GridMismatchError(
                f"array of length {values.shape[-1]} on a grid of "
                f"{self.n_points} points"
            )
        return values

    def to_momentum(self, values: np.ndarray) -> np.ndarray:
        """Unitary transform of position samples to momentum samples.

        Norm is preserved: sum |out|^2 dp == sum |in|^2 dx exactly up
        to round-off.  Works on the last axis, so stacked states pass
        through in one call.
        """
        values = self._check(values)
        spec = np.fft.fft(np.fft.ifftshift(values, axes=-1), axis=-1)
        return np.fft.fftshift(spec, axes=-1) * (self.dx / np.sqrt(2.0 * np.pi))

    def from_momentum(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_momentum`."""
        values = self._check(values)
        spec = np.fft.ifft(np.fft.ifftshift(values, axes=-1), axis=-1)
        scale = self.n_points * self.dp / np.sqrt(2.0 * np.pi)
        return np.fft.fftshift(spec, axes=-1) * scale


def make_grid(n_points: int, x_extent: float) -> SimGrid:
    """Build a :class:`SimGrid`, validating the discretisation.

    Parameters
    ----------
    n_points : int
        Must be a power of two, at least 8 and at most :data:`MAX_POINTS`.
    x_extent : float
        Total width, > 0, in internal length units.
    """
    if not 8 <= n_points <= MAX_POINTS or (n_points & (n_points - 1)) != 0:
        raise ConfigError(f"n_points must be a power of two in "
                          f"[8, {MAX_POINTS}], got {n_points}")
    if not x_extent > 0.0:
        raise ConfigError(f"x_extent must be positive, got {x_extent}")
    return SimGrid(int(n_points), float(x_extent))


@dataclass(frozen=True)
class LabFrame:
    """Conversion between internal units and laboratory lengths.

    The photon behaves as a free particle of effective mass
    m = h / (c * wavelength); a lens of focal length f then maps
    transverse momentum p to the focal-plane position (f/c) * (p/m).
    Composing the two, the momentum h/s lands at f*wavelength/s,
    which is the fringe period on the detector.

    All lab lengths are in metres.
    """

    wavelength: float
    focal_length: float
    slit_separation: float

    def __post_init__(self):
        for name in ("wavelength", "focal_length", "slit_separation"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"LabFrame.{name} must be positive")

    @property
    def fringe_period(self) -> float:
        """Focal-plane period of the double-slit fringe, f*lambda/s in metres."""
        return self.focal_length * self.wavelength / self.slit_separation

    def focal_plane_position(self, p_internal):
        """Map internal momentum (hbar/s = 1) to focal-plane position in metres.

        Linear, with focal_plane_position(2*pi) == fringe_period exactly.
        Accepts scalars or arrays.
        """
        return p_internal / (2.0 * np.pi) * self.fringe_period

    def momentum_from_position(self, x_lab):
        """Inverse of :meth:`focal_plane_position` (metres to internal momentum)."""
        return x_lab * (2.0 * np.pi) / self.fringe_period
