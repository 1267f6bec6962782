"""Finite-strength pointer emulation of the weak momentum measurement.

The laboratory scheme tags the momentum-window part of the beam with a
small vertical displacement D of an otherwise untouched Gaussian
profile of 1/e^2 half-width sigma.  Downstream of the measurement
channel the joint intensity is, per coherent sector and polarisation,

    I(p_f, y) = | A_untagged(p_f) G_0(y) + A_tagged(p_f) G_D(y) |^2,

with G_a(y) = (2/(pi sigma^2))^(1/4) exp(-(y-a)^2/sigma^2).  Because
the y dependence is spanned by just two Gaussians, every y integral is
analytic; no y grid exists anywhere.  The conditional centroid divided
by D estimates the conditional weak-valued probability and converges
to it quadratically as D/sigma -> 0.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channels import MeasurementChannel
from .errors import ConfigError
from .grid import LabFrame
from .states import TransverseState
from .weak_values import (EPS_DEN_FRACTION, MomentumWindow, WvpCurve,
                          conditional_wvp, window_project,
                          _sector_momentum_sums)

__all__ = [
    "PointerSpec",
    "IntensityMap",
    "run_tagged",
    "estimate_wvp",
    "convergence_sweep",
    "ConvergenceReport",
]


@dataclass(frozen=True)
class PointerSpec:
    """Pointer geometry in laboratory metres plus the tagged window.

    sigma is the 1/e^2 intensity half-width of the pointer profile,
    displacement the tag shift D, sliver_width the focal-plane width
    that sets the momentum window, and index the window number.
    """

    sigma: float
    displacement: float
    sliver_width: float
    index: int
    lab: LabFrame

    def __post_init__(self):
        if self.sigma <= 0.0 or self.displacement <= 0.0:
            raise ConfigError("pointer sigma and displacement must be positive")
        if self.sliver_width <= 0.0:
            raise ConfigError("sliver_width must be positive")

    @property
    def ratio(self) -> float:
        """Weakness ratio D/sigma."""
        return self.displacement / self.sigma

    def window(self) -> MomentumWindow:
        """The tagged momentum window, in internal units."""
        width = float(self.lab.momentum_from_position(self.sliver_width))
        return MomentumWindow(self.index, width)

    def at_ratio(self, ratio: float) -> "PointerSpec":
        """Same geometry with the displacement set to ratio * sigma."""
        if ratio <= 0.0:
            raise ConfigError(f"ratio must be positive, got {ratio}")
        return replace(self, displacement=ratio * self.sigma)


@dataclass
class IntensityMap:
    """Rank-2 representation of the joint (p_f, y) intensity.

    ``untagged`` and ``tagged`` stack one row per (sector,
    polarisation) term; the y profile attached to each row is G_0 for
    untagged and G_D for tagged amplitude.
    """

    p_f: np.ndarray
    untagged: np.ndarray
    tagged: np.ndarray
    sigma: float
    displacement: float
    window: MomentumWindow
    ratio: float

    @property
    def overlap(self) -> float:
        """<G_0|G_D> = exp(-D^2 / (2 sigma^2))."""
        return float(np.exp(-self.displacement ** 2 /
                            (2.0 * self.sigma ** 2)))

    def marginal(self) -> np.ndarray:
        """y-integrated intensity per p_f sample."""
        c = self.overlap
        cross = np.sum(np.real(self.untagged * np.conj(self.tagged)), axis=0)
        squares = np.sum(np.abs(self.untagged) ** 2 +
                         np.abs(self.tagged) ** 2, axis=0)
        return squares + 2.0 * c * cross

    def centroid(self) -> np.ndarray:
        """Mean vertical displacement d(p_f); NaN where intensity vanishes."""
        c = self.overlap
        cross = np.sum(np.real(self.untagged * np.conj(self.tagged)), axis=0)
        tagged_w = np.sum(np.abs(self.tagged) ** 2, axis=0)
        num = self.displacement * (tagged_w + c * cross)
        den = self.marginal()
        out = np.full(self.p_f.shape, np.nan)
        ok = den > EPS_DEN_FRACTION * den.max()
        out[ok] = num[ok] / den[ok]
        return out


def run_tagged(state: TransverseState, ch: MeasurementChannel,
               pointer: PointerSpec) -> IntensityMap:
    """Propagate the tagged state through the channel.

    The window projection happens before the channel (the tag is
    applied where initial momentum is resolved); both the tagged and
    untagged parts then evolve branch-by-branch.  Marginalising the
    result over y returns the channel momentum density exactly for
    momentum-diagonal channels; a which-way marker mixes the two y
    profiles into overlapping momenta, so its marginal picks up the
    tag's physical back-action, of order (D/sigma)^2.
    """
    window = pointer.window()
    grid = state.grid
    proj = window_project(state, window)
    rest = TransverseState(grid, state.amps - proj.amps, state.sharp_edges)
    tagged = np.concatenate(_sector_momentum_sums(proj, ch), axis=0)
    untagged = np.concatenate(_sector_momentum_sums(rest, ch), axis=0)
    return IntensityMap(grid.p.copy(), untagged, tagged, pointer.sigma,
                        pointer.displacement, window, pointer.ratio)


def estimate_wvp(imap: IntensityMap) -> WvpCurve:
    """Centroid estimator d/D of the conditional weak-valued probability."""
    d = imap.centroid()
    values = d / imap.displacement
    defined = np.isfinite(values)
    return WvpCurve(imap.p_f.copy(), values, defined, imap.window, "none")


@dataclass(frozen=True)
class ConvergenceReport:
    """Max-abs estimator error against the analytic curve, per ratio."""

    ratios: tuple[float, ...]
    errors: tuple[float, ...]

    def slope(self, i: int = -2, j: int = -1) -> float:
        """log-log convergence order between two sweep entries."""
        return float(np.log(self.errors[i] / self.errors[j])
                     / np.log(self.ratios[i] / self.ratios[j]))

    @property
    def monotone_decreasing(self) -> bool:
        pairs = zip(self.errors, self.errors[1:])
        return all(a > b for a, b in pairs)


def convergence_sweep(state: TransverseState, ch: MeasurementChannel,
                      pointer: PointerSpec, ratios) -> ConvergenceReport:
    """Estimator error for each weakness ratio, strongest first.

    Ratios are sorted descending; errors are max-abs deviations from
    the analytic conditional curve over samples where both are defined.
    The tagged and untagged amplitudes do not depend on D, so the state
    is propagated once and only the displacement varies.
    """
    ratios = tuple(sorted((float(r) for r in ratios), reverse=True))
    analytic = conditional_wvp(state, ch, pointer.window())
    imap = run_tagged(state, ch, pointer)
    errors = []
    for ratio in ratios:
        spec = pointer.at_ratio(ratio)
        est = estimate_wvp(replace(imap, displacement=spec.displacement,
                                   ratio=spec.ratio))
        both = analytic.defined & est.defined
        errors.append(float(np.max(np.abs(est.values[both]
                                          - analytic.values[both]))))
    return ConvergenceReport(ratios, tuple(errors))
