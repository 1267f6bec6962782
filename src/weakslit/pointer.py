"""Finite-strength pointer emulation of the weak momentum measurement.

The laboratory scheme tags the momentum-window part chi of the state
psi with a small vertical displacement D of an otherwise untouched
Gaussian profile of 1/e^2 half-width sigma.  Downstream of the channel
U the joint intensity is, per coherent sector and polarisation,

    I(p_f, y) = | u(p_f) G_0(y) + t(p_f) G_D(y) |^2,

with G_a(y) = (2/(pi sigma^2))^(1/4) exp(-(y-a)^2/sigma^2), t = U chi
and u = U psi - U chi.  Every y integral is analytic (no y grid exists
anywhere) and, summed over the rows, needs only three D-independent
curves of the window's conditional curve: J = Re sum <U chi, U psi>
(``joint``), P = sum |U psi|^2 (``density``) and T = sum |U chi|^2
(``strong``), since Re sum u conj(t) = J - T, sum |t|^2 = T and
sum |u|^2 + |t|^2 = P - 2 (J - T).  With c = <G_0|G_D> = exp(-r^2/2)
and r = D/sigma, the y marginal is P - 2 (1 - c)(J - T) and the
conditional centroid divided by D is

    (T + c (J - T)) / (P - 2 (1 - c)(J - T)).

It tends to the conditional weak-valued probability J/P as r -> 0
(c -> 1), quadratically in r, and to T / (P - 2 (J - T)), the tagged
fraction of a projective measurement of the window, as c -> 0.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import MeasurementChannel
from .errors import ConfigError
from .grid import LabFrame
from .states import TransverseState
from .weak_values import (EPS_DEN_FRACTION, MomentumWindow, WvpCurve,
                          conditional_wvp)

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
        if not math.isfinite(self.ratio):
            raise ConfigError(
                f"displacement/sigma = {self.displacement}/{self.sigma} "
                f"is not a finite number")

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
        displacement = ratio * self.sigma
        if displacement == 0.0:
            raise ConfigError(
                f"ratio {ratio} times sigma {self.sigma} underflows to a "
                f"zero displacement")
        return replace(self, displacement=displacement)


def _overlap(displacement: float, sigma: float) -> float:
    """<G_0|G_D> = exp(-r^2 / 2) with r = D/sigma.

    Squaring r rather than sigma keeps a tiny sigma from underflowing to
    a zero denominator; ``r * r`` gives inf where ``r ** 2`` would raise.
    """
    r = displacement / sigma
    return float(np.exp(-0.5 * r * r))


def _marginal(curve: WvpCurve, overlap: float) -> np.ndarray:
    """y-integrated intensity per p_f sample, P - 2 (1 - c)(J - T)."""
    return (curve.density
            - 2.0 * (1.0 - overlap) * (curve.joint - curve.strong))


def _estimate(curve: WvpCurve, overlap: float) -> np.ndarray:
    """Centroid over D per p_f sample, (T + c (J - T)) / marginal; NaN
    where the marginal is below the definedness threshold."""
    num = curve.strong + overlap * (curve.joint - curve.strong)
    den = _marginal(curve, overlap)
    out = np.full(den.shape, np.nan)
    ok = den > EPS_DEN_FRACTION * den.max()
    out[ok] = num[ok] / den[ok]
    return out


@dataclass
class IntensityMap:
    """The joint (p_f, y) intensity through its y integrals: ``analytic``
    is the tagged window's conditional curve, whose ``joint``, ``density``
    and ``strong`` are the J, P and T of the module docstring."""

    analytic: WvpCurve
    sigma: float
    displacement: float
    ratio: float

    @property
    def overlap(self) -> float:
        """<G_0|G_D> = exp(-D^2 / (2 sigma^2))."""
        return _overlap(self.displacement, self.sigma)

    def marginal(self) -> np.ndarray:
        """y-integrated intensity per p_f sample."""
        return _marginal(self.analytic, self.overlap)

    def centroid(self) -> np.ndarray:
        """Mean vertical displacement d(p_f); NaN where intensity vanishes."""
        return self.displacement * _estimate(self.analytic, self.overlap)


def run_tagged(state: TransverseState, ch: MeasurementChannel,
               pointer: PointerSpec) -> IntensityMap:
    """The window's conditional curve with the pointer's sigma and D.

    The y marginal is the channel density P where J = T, as for
    momentum-diagonal channels; a which-way marker adds the tag's
    back-action -2 (1 - c)(J - T), of order (D/sigma)^2.
    """
    return IntensityMap(conditional_wvp(state, ch, pointer.window()),
                        pointer.sigma, pointer.displacement, pointer.ratio)


def estimate_wvp(imap: IntensityMap) -> WvpCurve:
    """Centroid estimator d/D of the conditional weak-valued probability."""
    values = _estimate(imap.analytic, imap.overlap)
    return WvpCurve(imap.analytic.p_f.copy(), values, np.isfinite(values),
                    imap.analytic.window, "none")


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
    J, P and T do not depend on D, so the state is propagated once;
    each ratio costs only the O(N) estimate of :func:`estimate_wvp`.
    """
    ratios = tuple(sorted((float(r) for r in ratios), reverse=True))
    analytic = run_tagged(state, ch, pointer).analytic
    errors = []
    for ratio in ratios:
        d = pointer.at_ratio(ratio).displacement
        values = _estimate(analytic, _overlap(d, pointer.sigma))
        both = analytic.defined & np.isfinite(values)
        errors.append(float(np.max(np.abs(values[both]
                                          - analytic.values[both]))))
    return ConvergenceReport(ratios, tuple(errors))
