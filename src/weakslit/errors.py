"""Exception and warning types shared across the package.

Split into three coarse categories so the CLI can map failures onto
exit codes: configuration problems (bad input before any numerics run),
numeric problems (a computation refused or out of range), and I/O.
"""

__all__ = ["WeakslitError", "ConfigError", "GeometryError",
           "GridMismatchError", "ResolutionError", "WindowRangeError",
           "MomentUndefinedError", "OutputError", "CoverageWarning"]


class WeakslitError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WeakslitError):
    """Invalid configuration: unknown key, bad value, unit mismatch."""


class GeometryError(ConfigError):
    """Slit geometry that cannot be realised on the requested grid."""


class GridMismatchError(WeakslitError):
    """Operands defined on different grids were combined."""


class ResolutionError(WeakslitError):
    """A requested feature is below the resolving power of the grid."""


class WindowRangeError(WeakslitError):
    """A momentum window (or cutoff) falls outside the simulated range."""


class MomentUndefinedError(WeakslitError):
    """Momentum moments requested for a state whose moments diverge.

    Raised for sharp-edged apertures: their momentum densities carry
    1/p^2 tails, so the variance integral has no finite value and no
    regularisation rescues it.  Rebuild the state with smoothed edges.
    """


class OutputError(WeakslitError):
    """File emission failed; the message carries the offending path."""


class CoverageWarning(UserWarning):
    """The window tiling misses a non-negligible part of the momentum mass."""
