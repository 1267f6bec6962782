"""Regularised moments of transfer distributions and channel moment changes.

The transfer density of a sharp-slit scenario inherits 1/q^2 tails, so
its variance integral needs regularisation: either a sharp cutoff at
+-q_max (which oscillates in sign as q_max grows and never settles) or
an apodising factor exp(-|q|/kappa) whose large-kappa trend reveals the
underlying value.  Neither limit is extrapolated to a single number
here; sweeps report values and trends and leave interpretation to the
caller.

For comparisons against channel moment changes, remember the window
broadening: tagging momentum in bins of width Delta adds the second
moment of the bin indicator to the transfer variance.  On an aligned
sample lattice of spacing dp that second moment is exactly
(Delta^2 - dp^2)/12 (the discrete uniform distribution), approaching
the continuum Delta^2/12 as dp -> 0.  :func:`window_variance` returns
the exact lattice value.
"""

from dataclasses import dataclass

import numpy as np

from .channels import MeasurementChannel
from .errors import ConfigError, MomentUndefinedError, WindowRangeError
from .states import TransverseState
from .weak_values import TransferDistribution, momentum_distribution

__all__ = [
    "RegularizationSpec",
    "ApodizationReport",
    "sharp_cutoff_variance",
    "apodized_variance",
    "apodization_sweep",
    "mean_transfer",
    "transfer_variance",
    "window_variance",
    "moment_change",
]


@dataclass(frozen=True)
class RegularizationSpec:
    """Sweep points for the two regularisation schemes."""

    q_max: tuple[float, ...]
    kappa: tuple[float, ...]

    def __post_init__(self):
        if any(v <= 0.0 for v in self.q_max) or any(v <= 0.0 for v in self.kappa):
            raise ConfigError("regularisation sweep values must be positive")

    def validate_range(self, dist: TransferDistribution):
        """Check every sweep point lies within the simulated q range."""
        q_lim = float(np.abs(dist.q).max())
        for name, values in (("q_max", self.q_max), ("kappa", self.kappa)):
            for v in values:
                if v > q_lim:
                    raise WindowRangeError(
                        f"{name} value {v} beyond simulated |q| range {q_lim:.4g}"
                    )


def mean_transfer(dist: TransferDistribution) -> float:
    """First moment of the transfer density, trapezoid on the native grid."""
    return _density_moments(dist.density, dist.q)[0]


def transfer_variance(dist: TransferDistribution) -> float:
    """Central second moment over the full simulated range (unregularised).

    Only meaningful when the density decays fast enough -- smooth-edge
    scenarios; for sharp edges use the regularised sweeps instead.
    """
    return _density_moments(dist.density, dist.q)[1]


def sharp_cutoff_variance(dist: TransferDistribution, q_max: float) -> float:
    """integral of q^2 P_wv(q) over [-q_max, q_max], trapezoid quadrature.

    Endpoint values at +-q_max are linearly interpolated, making the
    result continuous in q_max.
    """
    if q_max <= 0.0 or q_max > float(np.abs(dist.q).max()):
        raise WindowRangeError(f"q_max {q_max} outside the simulated q range")
    integrand = dist.density * dist.q ** 2
    inside = (dist.q > -q_max) & (dist.q < q_max)
    nodes = np.concatenate(([-q_max], dist.q[inside], [q_max]))
    values = np.concatenate((
        [np.interp(-q_max, dist.q, integrand)],
        integrand[inside],
        [np.interp(q_max, dist.q, integrand)],
    ))
    return float(np.trapezoid(values, nodes))


def apodized_variance(dist: TransferDistribution, kappa: float) -> float:
    """integral of q^2 P_wv(q) exp(-|q|/kappa) over the simulated range."""
    if kappa <= 0.0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    integrand = dist.density * dist.q ** 2 * np.exp(-np.abs(dist.q) / kappa)
    return float(np.trapezoid(integrand, dist.q))


@dataclass(frozen=True)
class ApodizationReport:
    """A kappa sweep: values, the largest-kappa entry, and the trend label."""

    kappas: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def largest_kappa_value(self) -> float:
        return self.values[-1]

    @property
    def last_gap(self) -> float:
        """|change over the final sweep step| -- a convergence estimate."""
        if len(self.values) < 2:
            return float("nan")
        return abs(self.values[-1] - self.values[-2])

    @property
    def trend(self) -> str:
        diffs = np.diff(self.values)
        if len(diffs) == 0:
            return "single-point"
        if np.all(diffs < 0.0):
            return "decreasing"
        if np.all(diffs > 0.0):
            return "increasing"
        return "oscillating"


def apodization_sweep(dist: TransferDistribution,
                      kappas) -> ApodizationReport:
    """Apodised variance at each kappa, in ascending kappa order."""
    kappas = tuple(sorted(float(k) for k in kappas))
    values = tuple(apodized_variance(dist, k) for k in kappas)
    return ApodizationReport(kappas, values)


def window_variance(width: float, dp: float = 0.0) -> float:
    """Second moment added by tagging momentum in bins of ``width``.

    With dp > 0 this is the exact lattice value (width^2 - dp^2)/12 for
    windows aligned to samples of spacing dp; dp = 0 gives the
    continuum width^2/12.
    """
    return (width ** 2 - dp ** 2) / 12.0


def _density_moments(dens: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of a density sampled on p, trapezoid quadrature."""
    mean = float(np.trapezoid(dens * p, p))
    second = float(np.trapezoid(dens * p ** 2, p))
    return mean, second - mean ** 2


def moment_change(state: TransverseState,
                  ch: MeasurementChannel) -> tuple[float, float]:
    """(mean shift, variance change) of the momentum density across a channel.

    Refuses sharp-edged input states: their momentum densities have
    1/p^2 tails, so the variance integral diverges and no cutoff or
    apodisation assigns it a value.
    """
    if state.sharp_edges:
        raise MomentUndefinedError(
            "momentum moments diverge for sharp-edged apertures; "
            "rebuild the state with edge_profile='gaussian_smoothed'"
        )
    p = state.grid.p
    mean_i, var_i = _density_moments(momentum_distribution(state), p)
    mean_f, var_f = _density_moments(momentum_distribution(state, ch), p)
    return mean_f - mean_i, var_f - var_i
