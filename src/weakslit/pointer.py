"""Finite-strength pointer emulation of the weak momentum measurement.

The laboratory scheme tags the momentum-window part chi of the state
psi with a small vertical displacement D of an otherwise untouched
Gaussian profile of 1/e^2 half-width sigma.  Downstream of the channel
U the joint intensity is, per coherent sector and polarisation,

    I(p_f, y) = | u(p_f) G_0(y) + t(p_f) G_D(y) |^2,

with G_a(y) = (2/(pi sigma^2))^(1/4) exp(-(y-a)^2/sigma^2), t = U chi
and u = U psi - U chi.  Every y integral is analytic (no y grid exists
anywhere).  Summed over the rows, the integrals need only the window's
conditional curve (:func:`conditional_wvp`) and the weakness r = D/sigma.
The curve's J = Re sum <U chi, U psi> (``joint``), P = sum |U psi|^2
(``density``) and T = sum |U chi|^2 (``strong``) do not depend on D,
since Re sum u conj(t) = J - T, sum |t|^2 = T and
sum |u|^2 + |t|^2 = P - 2 (J - T).  D and sigma enter only through
c = <G_0|G_D> = exp(-r^2/2), so the pointer is a pair (curve, ratio):
the y marginal, :func:`marginal`, is P - 2 (1 - c)(J - T), and the
conditional centroid divided by D, :func:`estimate_wvp`, is

    (J - (1 - c)(J - T)) / (P - 2 (1 - c)(J - T)).

It tends to the conditional weak-valued probability J/P as r -> 0
(c -> 1), quadratically in r, and to T / (P - 2 (J - T)), the tagged
fraction of a projective measurement of the window, as c -> 0.
"""

import numpy as np

from .channels import MeasurementChannel
from .errors import ConfigError
from .states import TransverseState
from .weak_values import WvpCurve, conditional_wvp, quotient

__all__ = [
    "estimate_wvp",
    "marginal",
    "convergence_sweep",
]


def _overlap(ratio: float) -> tuple[float, float]:
    """c = <G_0|G_D> = exp(-r^2 / 2) with r = D/sigma, and 1 - c.

    1 - c is ``-expm1(-r^2 / 2)``: ``1.0 - c`` would cancel to a relative
    error of about eps / (r^2 / 2) at small r.  ``r * r`` gives inf where
    ``r ** 2`` would raise.
    """
    half = 0.5 * ratio * ratio
    return float(np.exp(-half)), float(-np.expm1(-half))


def run_tagged(state: TransverseState, ch: MeasurementChannel, width: float,
               index: int) -> WvpCurve:
    """A benchmark hook, not exported: :func:`conditional_wvp` under the
    name that ``perfbench/layers.py`` traces as the pointer's curve."""
    return conditional_wvp(state, ch, width, index)


def marginal(curve: WvpCurve, ratio: float) -> np.ndarray:
    """y-integrated intensity per p_f sample, P - 2 (1 - c)(J - T).

    It is the channel density P where J = T, as for momentum-diagonal
    channels; a which-way marker adds the tag's back-action, of order
    (D/sigma)^2.
    """
    return curve.density - 2.0 * _overlap(ratio)[1] * (curve.joint
                                                       - curve.strong)


def estimate_wvp(curve: WvpCurve, ratio: float) -> np.ndarray:
    """Centroid estimator d/D of the conditional weak-valued probability
    per p_f sample, (J - (1 - c)(J - T)) / marginal; NaN where the
    marginal is below the definedness threshold.

    The numerator T + c (J - T) is written about J, with a correction
    that vanishes with 1 - c.  Summed as T + c (J - T), its terms can be
    many times P (82 P for the paper preset at 2^10 points), and their
    rounding exceeds the sweep's round-off floor where c rounds to 1.
    """
    num = curve.joint - _overlap(ratio)[1] * (curve.joint - curve.strong)
    return quotient(num, marginal(curve, ratio))


#: The sweep's round-off floors in units of eps.  The estimator's error
#: is (1 - c)(J - T)(2J - P) / (P * marginal), plus the rounding of the
#: two quotients.  Where the estimator is exact (J = T: the identity
#: channel, kicks on the momentum lattice) J - T is the FFTs' round-off,
#: about eps * sqrt(max P) (sqrt P + sqrt T), and the errors stay below
#: 0.08 of the floor (sharp and smoothed slits, 2^10 to 2^16 points,
#: D/sigma 1e-5 to 1); the Scully marker's and two off-lattice kicks'
#: are 950 times the floor or more.
ROUNDOFF_EPS = 32


def _floor_trend(ratios, errors, floors) -> tuple[int, bool, float | None]:
    """(under_floor, monotone_decreasing, slope_smallest_pair) of a sweep.

    An error at or below its ratio's floor counts as exact: the first
    entry counts those, and the other two read only the errors above
    their floors.  The slope is the log-log convergence order between
    the two smallest such ratios; None when fewer than two are.
    """
    above = [(r, e) for r, e, f in zip(ratios, errors, floors) if e > f]
    monotone = all(a[1] > b[1] for a, b in zip(above, above[1:]))
    slope = None
    if len(above) >= 2:
        (r0, e0), (r1, e1) = above[-2:]
        slope = float(np.log(e0 / e1) / np.log(r0 / r1))
    return len(errors) - len(above), monotone, slope


def _roundoff_scales(curve: WvpCurve) -> tuple[float, float]:
    """The floor's two scales over the defined samples: max |J/P|, and
    the largest round-off of J - T over eps, sqrt(max P)(sqrt P + sqrt T),
    times |2J - P| / P^2."""
    ok = np.isfinite(curve.values)
    j, p, t = curve.joint[ok], curve.density[ok], curve.strong[ok]
    noise = np.sqrt(curve.density.max()) * (np.sqrt(p) + np.sqrt(t))
    return (float(np.max(np.abs(curve.values[ok]))),
            float(np.max(noise * np.abs(2.0 * j - p) / (p * p))))


def convergence_sweep(curve: WvpCurve, ratios
                      ) -> tuple[tuple[float, ...], ...]:
    """(ratios, errors, floors): the estimator error and its round-off
    floor for each distinct weakness ratio, strongest first.

    A ratio given twice is swept once, and ratios are sorted descending;
    errors are max-abs deviations of :func:`estimate_wvp` of ``curve``,
    a window's :func:`conditional_wvp`, from its ``values`` over samples
    where both are defined.
    The floor at a ratio is ``ROUNDOFF_EPS`` eps times the curve's
    largest magnitude plus 1 - c times the round-off of J - T carried
    into the estimate.  Each ratio costs only the O(N) estimate.
    """
    ratios = tuple(sorted({float(r) for r in ratios}, reverse=True))
    if any(r <= 0.0 for r in ratios):
        raise ConfigError(f"ratios must be positive, got {ratios}")
    quotient, difference = _roundoff_scales(curve)
    errors, floors = [], []
    for ratio in ratios:
        values = estimate_wvp(curve, ratio)
        both = np.isfinite(curve.values) & np.isfinite(values)
        errors.append(float(np.max(np.abs(values[both]
                                          - curve.values[both]))))
        floors.append(float(ROUNDOFF_EPS * np.finfo(float).eps
                            * (quotient + _overlap(ratio)[1] * difference)))
    return ratios, tuple(errors), tuple(floors)
