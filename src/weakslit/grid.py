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

__all__ = ["SimGrid", "LabFrame"]

#: Largest accepted grid.  A 2^22-point state is 128 MiB of (2, n)
#: complex amplitudes, and every analysis holds several such arrays.
MAX_POINTS = 2 ** 22


@dataclass(frozen=True)
class SimGrid:
    """Conjugate position/momentum sample grid.

    Attributes
    ----------
    n_points : int
        Number of samples: a power of two, so FFTs stay fast, from 8 to
        :data:`MAX_POINTS`.
    x_extent : float
        Total simulated width in internal length units, > 0; stored as
        a float.

    A lattice outside these ranges raises :class:`ConfigError`.
    """

    n_points: int
    x_extent: float
    dx: float = field(init=False)
    dp: float = field(init=False)

    def __post_init__(self):
        n = self.n_points
        if isinstance(n, bool) or not isinstance(n, int) \
                or not 8 <= n <= MAX_POINTS or n & (n - 1):
            raise ConfigError(f"n_points must be a power of two in "
                              f"[8, {MAX_POINTS}], got {n}")
        if not self.x_extent > 0.0:
            raise ConfigError(f"x_extent must be positive, got {self.x_extent}")
        object.__setattr__(self, "x_extent", float(self.x_extent))
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

    def to_momentum(self, values: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Unitary transform of position samples to momentum samples.

        Norm is preserved: sum |out|^2 dp == sum |in|^2 dx exactly up
        to round-off.  Works on the last axis, so stacked states pass
        through in one call.  ``out`` may take the result, even ``values``.
        """
        return self._transform(self._check(values), out=out)

    def from_momentum(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_momentum`."""
        return self._transform(self._check(values), inverse=True)

    def _transform(self, values: np.ndarray, inverse: bool = False,
                   out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`to_momentum` (or :meth:`from_momentum`) of ``values``
        into ``out``: a new complex array, or one the caller owns, which
        may be ``values`` itself.

        Equals fftshift(fft(ifftshift(values))) * scale bit for bit, but
        shifts, transforms and scales in ``out``; the only temporary is
        half its size.  n is even, so either shift swaps the two halves.
        """
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        half = self.n_points // 2
        head = values[..., :half]
        if out is values:
            head = head.copy()
        out[..., :half] = values[..., half:]
        out[..., half:] = head
        del head  # free a copy before the transform
        if inverse:
            np.fft.ifft(out, axis=-1, out=out)
            scale = self.n_points * self.dp / np.sqrt(2.0 * np.pi)
        else:
            np.fft.fft(out, axis=-1, out=out)
            scale = self.dx / np.sqrt(2.0 * np.pi)
        head = out[..., :half] * scale
        np.multiply(out[..., half:], scale, out=out[..., :half])
        out[..., half:] = head
        return out


def indicator(samples: np.ndarray, step: float, lo, hi) -> np.ndarray:
    """1 on [lo, hi) at ``samples``, a lattice of spacing ``step``, and 0
    elsewhere; a sample within 1e-12 step of either edge takes 1/2.

    A sample on a discontinuity to round-off takes the midpoint value.
    ``lo`` and ``hi`` are scalars or arrays broadcasting against
    ``samples``.
    """
    mask = ((samples >= lo) & (samples < hi)).astype(float)
    tol = 1e-12 * step
    mask[np.abs(samples - lo) < tol] = 0.5
    mask[np.abs(samples - hi) < tol] = 0.5
    return mask


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
