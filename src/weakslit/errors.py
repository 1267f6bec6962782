"""Exception and warning types shared across the package.

One exception class per CLI exit code, so the code is decided where the
error is raised: :class:`ConfigError` exits 2 (bad input, refused before
any numerics run), :class:`NumericError` exits 3 (a computation refused
or out of range) and :class:`OutputError` exits 4 (file emission).
Every ``raise`` in the package raises one of the three or re-raises.
"""

__all__ = ["ConfigError", "NumericError", "OutputError", "CoverageWarning"]


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, unit mismatch, or a
    slit geometry that cannot be realised on the requested grid."""


class NumericError(Exception):
    """A computation refused: a feature below the grid's resolution, a
    window or cutoff outside the simulated range, momentum moments that
    diverge (sharp-edged apertures), or operands on different grids."""


class OutputError(Exception):
    """File emission failed; the message carries the offending path."""


class CoverageWarning(UserWarning):
    """The window tiling misses a non-negligible part of the momentum mass."""
