"""Regularised moments of transfer distributions and channel moment changes.

The transfer density of a sharp-slit scenario inherits 1/q^2 tails, so
its variance integral needs regularisation: either a sharp cutoff at
+-q_max (which oscillates in sign as q_max grows and never settles) or
an apodising factor exp(-|q|/kappa) whose large-kappa trend reveals the
underlying value.  Neither limit is extrapolated to a single number
here; sweeps return values and leave their trend and interpretation to
the caller.

For comparisons against channel moment changes, remember the window
broadening: tagging momentum in bins of width Delta adds the second
moment of the bin indicator to the transfer variance.  On an aligned
sample lattice of spacing dp that second moment is exactly
(Delta^2 - dp^2)/12 (the discrete uniform distribution), approaching
the continuum Delta^2/12 as dp -> 0.  :func:`window_variance` returns
the exact lattice value.
"""

import numpy as np

from .channels import MeasurementChannel
from .errors import ConfigError, NumericError
from .states import TransverseState
from .weak_values import TransferDistribution, momentum_distribution

__all__ = [
    "sharp_cutoff_variance",
    "apodization_sweep",
    "transfer_moments",
    "window_variance",
    "moment_change",
]


def transfer_moments(dist: TransferDistribution) -> tuple[float, float]:
    """(mean, variance) of the transfer density, trapezoid on the native grid.

    The variance is unregularised, over the full simulated range: only
    meaningful when the density decays fast enough -- smooth-edge
    scenarios; for sharp edges use the regularised sweeps instead.
    """
    return _density_moments(dist.density, dist.q)


def sharp_cutoff_variance(dist: TransferDistribution, q_max: float) -> float:
    """integral of q^2 P_wv(q) over [-q_max, q_max], trapezoid quadrature.

    Endpoint values at +-q_max are linearly interpolated, making the
    result continuous in q_max.
    """
    if q_max <= 0.0 or q_max > float(np.abs(dist.q).max()):
        raise NumericError(f"q_max {q_max} outside the simulated q range")
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
    with np.errstate(over="ignore"):  # exp(-inf) = 0 at a tiny kappa
        decay = np.exp(-np.abs(dist.q) / kappa)
    return float(np.trapezoid(dist.density * dist.q ** 2 * decay, dist.q))


def apodization_sweep(dist: TransferDistribution, kappas
                      ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(kappas, values): the apodised variance at each distinct kappa, in
    ascending kappa order; a kappa beyond the simulated |q| range is
    refused, as such a q_max is."""
    kappas = tuple(sorted({float(k) for k in kappas}))
    q_lim = float(np.abs(dist.q).max())
    if kappas and kappas[-1] > q_lim:
        raise NumericError(
            f"kappa {kappas[-1]} beyond the simulated |q| range {q_lim:.4g}")
    return kappas, tuple(apodized_variance(dist, k) for k in kappas)


def window_variance(width: float, dp: float = 0.0) -> float:
    """Second moment added by tagging momentum in bins of ``width``.

    With dp > 0 this is the exact lattice value (width^2 - dp^2)/12 for
    windows aligned to samples of spacing dp; dp = 0 gives the
    continuum width^2/12.  ``width * width`` gives inf where
    ``width ** 2`` would raise.
    """
    return (width * width - dp * dp) / 12.0


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
        raise NumericError(
            "momentum moments diverge for sharp-edged apertures; "
            "rebuild the state with an edge_scale"
        )
    p = state.grid.p
    mean_i, var_i = _density_moments(momentum_distribution(state), p)
    mean_f, var_f = _density_moments(momentum_distribution(state, ch), p)
    return mean_f - mean_i, var_f - var_i
