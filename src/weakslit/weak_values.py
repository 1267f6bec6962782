"""Weak-valued probabilities, conditional curves, and transfer distributions.

The central objects are built from the joint quantity

    J(p_f) = Re sum_sectors < e(U chi) , e(U psi) > (p_f),

where chi is the momentum-window projection of the input state, U the
measurement channel applied branch-by-branch (coherently within a
sector), and e the optional polarisation-eraser projection.  J equals
the conditional weak-valued probability times the post-selection
density, so it is finite everywhere -- including the fringe zeros where
the conditional ratio is 0/0.  Division happens only at display time,
guarded by a relative threshold on the denominator.

Summing J over a window tiling, with each window's contribution shifted
to its momentum offset q = p_f - p_i, yields the weak-valued
momentum-transfer distribution P_wv(q).  It integrates to one over the
covered momentum mass, can be negative for nonclassical channels, and
reduces to the kick distribution convolved with the window indicator
for classical ones.
"""

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channels import MeasurementChannel
from .errors import (ConfigError, CoverageWarning, GridMismatchError,
                     ResolutionError, WindowRangeError)
from .grid import SimGrid
from .states import TransverseState

__all__ = [
    "ERASERS",
    "MomentumWindow",
    "WvpCurve",
    "TransferDistribution",
    "window_mask",
    "window_project",
    "joint_wvp",
    "conditional_wvp",
    "transfer_distribution",
    "momentum_distribution",
]

ERASERS = ("none", "plus45", "minus45")

#: Relative denominator threshold below which conditional values are undefined.
EPS_DEN_FRACTION = 1e-6

#: Minimum fraction of momentum mass a window tiling must cover.
COVERAGE_MIN = 0.99


@dataclass(frozen=True)
class MomentumWindow:
    """Momentum bin number ``index`` of a tiling with bin width ``width``.

    Window n covers the half-open interval
    [n*width - width/2, n*width + width/2), so integer-indexed windows
    tile momentum space without overlap.
    """

    index: int
    width: float

    @property
    def center(self) -> float:
        return self.index * self.width

    @property
    def bounds(self) -> tuple[float, float]:
        half = self.width / 2.0
        return (self.center - half, self.center + half)


@dataclass
class WvpCurve:
    """Conditional weak-valued probability sampled over final momentum.

    ``values`` holds NaN where the post-selection density is below the
    definedness threshold; ``defined`` is the corresponding mask.
    ``joint`` is the numerator J(p_f), defined everywhere; pointer
    estimates leave it None.
    """

    p_f: np.ndarray
    values: np.ndarray
    defined: np.ndarray
    window: MomentumWindow
    eraser: str
    joint: np.ndarray | None = None


@dataclass
class TransferDistribution:
    """Sampled momentum-transfer quasi-probability density P_wv(q).

    ``density`` is normalised to the covered momentum mass, so it
    integrates to one whenever the window tiling is complete enough;
    ``coverage`` records the raw mass the tiling actually captured.
    """

    q: np.ndarray
    density: np.ndarray
    window_width: float
    windows: tuple[int, ...]
    coverage: float
    eraser: str

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.q))

    def mass_outside(self, p_abs: float) -> float:
        """Absolute density mass at |q| > p_abs (operational width statistic).

        The two tails are integrated separately so the gap between them
        contributes nothing.
        """
        mag = np.abs(self.density)
        total = 0.0
        for sel in (self.q < -p_abs, self.q > p_abs):
            if np.count_nonzero(sel) >= 2:
                total += float(np.trapezoid(mag[sel], self.q[sel]))
        return total


def _check_eraser(eraser: str):
    if eraser not in ERASERS:
        raise ConfigError(f"eraser must be one of {ERASERS}, got {eraser!r}")


def _check_width(grid: SimGrid, width: float):
    if width < 2.0 * grid.dp:
        raise ResolutionError(
            f"window width {width} narrower than 2 bins ({2.0 * grid.dp:.4g})"
        )


def window_mask(grid: SimGrid, window: MomentumWindow) -> np.ndarray:
    """Indicator of the window on the momentum samples.

    Half-open [lo, hi) so adjacent windows partition the axis exactly;
    a sample landing on a boundary to round-off takes weight 1/2 (the
    midpoint convention used for discontinuous apertures).
    """
    lo, hi = window.bounds
    p = grid.p
    mask = ((p >= lo) & (p < hi)).astype(float)
    tol = 1e-12 * grid.dp
    mask[np.abs(p - lo) < tol] = 0.5
    mask[np.abs(p - hi) < tol] = 0.5
    return mask


def window_project(state: TransverseState, window: MomentumWindow) -> TransverseState:
    """Project the state onto one momentum window (unnormalised result).

    Refuses windows narrower than two bins (:class:`ResolutionError`)
    and windows that hold no momentum sample at all
    (:class:`WindowRangeError`).
    """
    grid = state.grid
    _check_width(grid, window.width)
    mask = window_mask(grid, window)
    if not mask.any():
        lo, hi = window.bounds
        raise WindowRangeError(
            f"window [{lo:.4g}, {hi:.4g}] outside the simulated momentum "
            f"range [{grid.p[0]:.4g}, {grid.p[-1]:.4g}]"
        )
    return TransverseState(
        grid, grid.from_momentum(mask * state.momentum_amplitudes()),
        state.sharp_edges)


def _sector_momentum_sums(state: TransverseState, ch: MeasurementChannel,
                          eraser: str = "none") -> list[np.ndarray]:
    """Coherent branch sums per sector, as eraser-projected momentum
    amplitudes: (2, n) for "none", (1, n) otherwise."""
    if ch.grid != state.grid:
        raise GridMismatchError(
            f"channel {ch.name!r} built on a different grid than the state"
        )
    sums = []
    for sector in ch.sectors:
        acc = np.zeros((2, state.grid.n_points), dtype=complex)
        for branch in ch.branches:
            if branch.sector == sector:
                acc += branch.apply(state).amps
        sums.append(_eraser_project(state.grid.to_momentum(acc), eraser))
    return sums


def _eraser_project(amps: np.ndarray, eraser: str) -> np.ndarray:
    """Collapse (2, n) polarisation amplitudes per the eraser setting.

    Returns (2, n) untouched for "none", else the (1, n) +-45 degree
    projection (H +- V)/sqrt(2).
    """
    if eraser == "none":
        return amps
    sign = 1.0 if eraser == "plus45" else -1.0
    return ((amps[0] + sign * amps[1]) / np.sqrt(2.0))[np.newaxis, :]


def _joint(chi: TransverseState, psi_erased: list[np.ndarray],
           ch: MeasurementChannel, eraser: str) -> np.ndarray:
    """J(p_f) of the window-projected state ``chi`` against the full
    state's sector sums ``psi_erased``."""
    j = np.zeros(chi.grid.n_points)
    for ce, pe in zip(_sector_momentum_sums(chi, ch, eraser), psi_erased):
        j += np.real(np.sum(ce * np.conj(pe), axis=0))
    return j


def _density(erased: list[np.ndarray]) -> np.ndarray:
    """Unnormalised momentum density of eraser-projected amplitudes."""
    dens = np.zeros(erased[0].shape[-1])
    for pe in erased:
        dens += np.sum(np.abs(pe) ** 2, axis=0)
    return dens


def joint_wvp(state: TransverseState, ch: MeasurementChannel,
              window: MomentumWindow, eraser: str = "none") -> np.ndarray:
    """J(p_f): conditional WVP times post-selection density, per sample.

    Computed as Re sum over sectors of the (eraser-projected)
    polarisation inner product between the channel output of the
    window-projected state and that of the full state.  Finite
    everywhere, negative where the weak value leaves [0, 1].
    """
    _check_eraser(eraser)
    return _joint(window_project(state, window),
                  _sector_momentum_sums(state, ch, eraser), ch, eraser)


def conditional_wvp(state: TransverseState, ch: MeasurementChannel,
                    window: MomentumWindow, eraser: str = "none") -> WvpCurve:
    """Conditional weak-valued probability J(p_f)/P(p_f).

    Samples where P(p_f) < EPS_DEN_FRACTION * max(P) are flagged
    undefined and set to NaN; everything else is an exact ratio.  With
    the identity channel (or the +45 eraser on the which-way marker)
    the defined part is the window indicator.
    """
    _check_eraser(eraser)
    psi_erased = _sector_momentum_sums(state, ch, eraser)
    j = _joint(window_project(state, window), psi_erased, ch, eraser)
    dens = _density(psi_erased)
    defined = dens > EPS_DEN_FRACTION * dens.max()
    values = np.full(state.grid.n_points, np.nan)
    values[defined] = j[defined] / dens[defined]
    return WvpCurve(state.grid.p.copy(), values, defined, window, eraser, j)


def momentum_distribution(state: TransverseState,
                          ch: MeasurementChannel | None = None,
                          eraser: str = "none") -> np.ndarray:
    """Normalised momentum density before (ch=None) or after a channel."""
    _check_eraser(eraser)
    if ch is None:
        erased = [_eraser_project(state.momentum_amplitudes(), eraser)]
    else:
        erased = _sector_momentum_sums(state, ch, eraser)
    dens = _density(erased)
    return dens / (np.sum(dens) * state.grid.dp)


def _tiling_indices(grid: SimGrid, width: float) -> range:
    """Window indices covering the full simulated momentum range."""
    n_cov = int(np.ceil(grid.p[-1] / width)) + 1
    return range(-n_cov, n_cov + 1)


def transfer_distribution(state: TransverseState, ch: MeasurementChannel,
                          window_width: float,
                          indices: Iterable[int] | None = None,
                          eraser: str = "none") -> TransferDistribution:
    """Assemble P_wv(q) by summing shifted per-window joint quantities.

    Parameters
    ----------
    window_width :
        Common width of the tiling windows (internal momentum units).
    indices :
        Window indices to include; None means a tiling of the whole
        simulated momentum range.  The flagship 15-window scenario
        passes range(-7, 8).
    eraser :
        Optional polarisation post-selection applied to every window.

    The q grid inherits the momentum sample spacing; each window's
    contribution is shifted by its centre rounded to the nearest
    sample.  The assembled density is divided by the covered momentum
    mass (sum over included windows of the window-projected norm), so
    it integrates to one whenever the covering precondition is met.  A
    :class:`CoverageWarning` reports tilings that capture < 99% of the
    mass -- the sharp-slit 15-window configuration does miss ~10% in
    its 1/p^2 tails, and the normalisation makes that explicit rather
    than silently rescaling.
    """
    _check_eraser(eraser)
    grid = state.grid
    _check_width(grid, window_width)
    if indices is None:
        indices = _tiling_indices(grid, window_width)
    indices = tuple(int(n) for n in indices)

    amps_t = state.momentum_amplitudes()
    input_dens = np.sum(np.abs(amps_t) ** 2, axis=0)
    # The full-state side of J does not depend on the window: hoist it.
    psi_erased = _sector_momentum_sums(state, ch, eraser)

    acc = np.zeros(grid.n_points)
    coverage = 0.0
    n = grid.n_points
    for idx in indices:
        window = MomentumWindow(idx, window_width)
        mask = window_mask(grid, window)
        window_mass = float(np.sum(mask * input_dens) * grid.dp)
        coverage += window_mass
        if window_mass == 0.0:
            continue
        chi = TransverseState(grid, grid.from_momentum(mask * amps_t),
                              state.sharp_edges)
        j = _joint(chi, psi_erased, ch, eraser)
        shift = int(round(window.center / grid.dp))
        if shift >= n or shift <= -n:
            continue
        if shift >= 0:
            acc[: n - shift] += j[shift:]
        else:
            acc[-shift:] += j[: n + shift]

    if coverage < COVERAGE_MIN:
        warnings.warn(
            CoverageWarning(
                f"window tiling covers {coverage:.4f} of the momentum mass "
                f"(< {COVERAGE_MIN}); density is normalised to the covered part"
            ),
            stacklevel=2,
        )
    density = acc / coverage
    return TransferDistribution(grid.p.copy(), density, window_width,
                                indices, coverage, eraser)
