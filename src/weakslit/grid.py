"""Uniform conjugate grids and their unitary transforms.

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

import sys

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["SimGrid"]

#: Largest accepted grid.  A 2^22-point state is a 64 MiB complex
#: field, and every analysis holds several such arrays.
MAX_POINTS = 2 ** 22


class SimGrid:
    """Conjugate position/momentum sample grid.

    Attributes
    ----------
    n_points : int
        Number of samples: a power of two, so FFTs stay fast, from 8 to
        :data:`MAX_POINTS`.
    x_extent : float
        Total simulated width in internal length units, finite and > 0
        with a finite dp; stored as a float.

    A lattice outside these ranges raises :class:`ConfigError`.  Two
    grids are equal when their ``n_points`` and ``x_extent`` are.
    """

    def __init__(self, n_points: int, x_extent: float):
        n = n_points
        if not _is_number(n, integer=True) or not 8 <= n <= MAX_POINTS \
                or n & (n - 1):
            raise ConfigError(f"n_points must be a power of two in "
                              f"[8, {MAX_POINTS}], got {_show(n, str)}")
        # In order, so nothing divides by zero.  A finite dp also keeps
        # dx = x_extent / n above 0 for every accepted n.
        if not _is_number(x_extent) or not 0.0 < x_extent \
                or not 2.0 * np.pi / x_extent < np.inf:
            raise ConfigError(f"x_extent must be positive and finite, with a "
                              f"finite dp, got {_show(x_extent, str)}")
        self.n_points = int(n_points)
        self.x_extent = float(x_extent)
        self.dx = self.x_extent / n_points
        self.dp = 2.0 * np.pi / self.x_extent

    def __eq__(self, other):
        return isinstance(other, SimGrid) and (self.n_points, self.x_extent) \
            == (other.n_points, other.x_extent)

    @property
    def x(self) -> np.ndarray:
        """Centred position samples, x[n//2] == 0."""
        return self._axis(self.dx)

    @property
    def p(self) -> np.ndarray:
        """Centred momentum samples, conjugate to :attr:`x`."""
        return self._axis(self.dp)

    def _axis(self, step: float) -> np.ndarray:
        """(k - n//2) * step for k < n, built as floats and scaled in
        place: no integer temporaries, the same bits (n is even)."""
        axis = np.arange(-self.n_points // 2, self.n_points // 2, dtype=float)
        axis *= step
        return axis

    def to_momentum(self, values: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Unitary transform of one row of position samples, an (n,)
        array, to momentum samples.

        Norm is preserved: sum |out|^2 dp == sum |in|^2 dx exactly up
        to round-off.  ``out`` may take the result, even ``values``.
        """
        return self._transform(values, out=out)

    def from_momentum(self, values: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`to_momentum`, on one (n,) row of momentum
        samples, with the same ``out``."""
        return self._transform(values, inverse=True, out=out)

    def _transform(self, values: np.ndarray, inverse: bool = False,
                   out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`to_momentum` (or :meth:`from_momentum`) of the row
        ``values`` into ``out``: a new complex array, or one the caller
        owns, which may be ``values`` itself.  Any shape but (n,) raises
        :class:`NumericError`.

        Equals fftshift(fft(ifftshift(values))) * scale bit for bit, but
        shifts, transforms and scales in ``out``; the only temporary is
        half a row.  n is even, so either shift swaps the two halves.
        """
        values = np.asarray(values)
        if values.shape != (self.n_points,):
            raise NumericError(f"array of shape {values.shape} on a "
                               f"grid of {self.n_points} points")
        if out is None:
            out = np.empty(self.n_points, dtype=complex)
        half = self.n_points // 2
        head = values[:half].copy() if out is values else values[:half]
        out[:half] = values[half:]
        out[half:] = head
        del head  # free a copy before the transform
        if inverse:
            np.fft.ifft(out, out=out)
            scale = self.n_points * self.dp / np.sqrt(2.0 * np.pi)
        else:
            np.fft.fft(out, out=out)
            scale = self.dx / np.sqrt(2.0 * np.pi)
        head = out[:half] * scale
        np.multiply(out[half:], scale, out=out[:half])
        out[half:] = head
        return out


def _is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a finite number, an int if ``integer``; no bool.

    A numpy scalar counts as the Python number it holds, so a float32
    infinity is refused without an overflow warning.  The bound keeps
    every accepted number convertible to a float: JSON allows integers
    of any size.
    """
    if isinstance(value, np.generic):
        value = value.item()
    kind = int if integer else (int, float)
    return not isinstance(value, bool) and isinstance(value, kind) \
        and abs(value) <= sys.float_info.max


def _show(value, text=repr) -> str:
    """``text(value)`` for an error message, or a stand-in when ``value``
    is or holds an int too long for decimal text (Python refuses to
    print one of over ``sys.get_int_max_str_digits()`` digits)."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, int):
            return f"<an integer of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} holding an integer too long " \
            f"to print>"


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

