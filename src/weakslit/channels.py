"""Measurement channels: one Kraus operator per sector on pol (x) position.

Every sector's operator has one form, K = u(x) + v(x) S, where S swaps
the H and V polarisations and u and v are position functions sampled
on the channel's grid (``v`` is None when the sector has no swap part).
The three channel families differ only in their (u, v):

* ``identity_channel(grid)`` - one sector with u = 1, no interaction
  at all;
* ``scully_wwm(grid)`` - a which-way marker: one unitary sector with
  u the bool mask of the right half-line and v that of the left one,
  so the left slit's polarisation is swapped; the spatial density is
  untouched;
* ``classical_kick(kicks, grid)`` - random momentum kicks drawn from a
  positive distribution, one sector per kick with
  u_j = sqrt(prob_j) exp(i q_j x): the classical baseline for momentum
  disturbance.

Amplitudes are summed coherently within a sector and incoherently
across sectors.  The distinction only matters once a polarisation
eraser, ``erase(ch, eraser)``, recombines amplitudes: the two halves
of one unitary can interfere again, distinct classical outcomes cannot.
"""

import numpy as np

from .errors import ConfigError
from .grid import SimGrid, _is_number, _show

__all__ = [
    "MeasurementChannel",
    "identity_channel",
    "scully_wwm",
    "classical_kick",
    "erase",
]

ERASERS = ("none", "plus45", "minus45")


class MeasurementChannel:
    """A Kraus set, one operator K = u + v S per sector, on ``grid``.

    ``sectors`` holds one (u, v) pair per sector: ``u`` multiplies the
    amplitudes as they are, ``v`` the polarisation-swapped ones, or is
    None.  Each is a scalar or an array sampled on the grid's ``x``; a
    bool mask multiplies a complex array as its 0.0/1.0 floats would,
    bit for bit, at an eighth of their memory.
    """

    def __init__(self, name: str, sectors: tuple, grid: SimGrid):
        self.name = name
        self.sectors = sectors
        self.grid = grid

    def completeness_defect(self) -> float:
        """max |a +- b - 1| over the samples: the largest deviation of
        sum_k K_k^dag K_k = a + b S from the identity, with
        a = sum_k |u_k|^2 + |v_k|^2 and b = 2 sum_k Re(conj(u_k) v_k),
        since K^dag K = |u|^2 + |v|^2 + 2 Re(conj(u) v) S and the
        eigenvalues of a + b S are a +- b."""
        a = sum(np.abs(u) ** 2 + (0.0 if v is None else np.abs(v) ** 2)
                for u, v in self.sectors)
        b = sum(0.0 if v is None else 2.0 * (np.conj(u) * v).real
                for u, v in self.sectors)
        return float(np.max(np.maximum(np.abs(a + b - 1.0),
                                       np.abs(a - b - 1.0))))


def identity_channel(grid: SimGrid) -> MeasurementChannel:
    """The do-nothing channel: one sector with u = 1."""
    return MeasurementChannel("identity", ((1.0, None),), grid)


def scully_wwm(grid: SimGrid) -> MeasurementChannel:
    """Which-way marker: flip polarisation on x < 0, keep it on x >= 0.

    Acting at the slit-image plane, the half-line split is equivalent
    to projecting onto the individual slit supports (the field between
    the slits vanishes, since :func:`build_double_slit` refuses a slit
    as wide as the separation) but is insensitive to how edge samples are
    assigned.  The summed spatial density is pointwise unchanged; only
    the polarisation record differs.  Both halves form one unitary, so
    they share one sector.
    """
    left = grid.x < 0.0
    return MeasurementChannel("scully_wwm", ((~left, left),), grid)


def classical_kick(kicks: list[tuple[float, float]],
                   grid: SimGrid) -> MeasurementChannel:
    """Random-momentum-kick channel from (q_j, prob_j) pairs.

    Sector j has u = sqrt(prob_j) * exp(i q_j x): a momentum translation
    by q_j occurring with probability prob_j.  Both numbers must be
    finite; probabilities must be nonnegative and sum to one.  |q_j| may
    not exceed |p[0]|, the lattice's momentum range: on the grid,
    exp(i q x) for a larger q equals a smaller kick.
    """
    if not kicks or any(not isinstance(pair, (list, tuple)) or len(pair) != 2
                        for pair in kicks):
        raise ConfigError(
            f"classical_kick needs a non-empty list of (q, prob) pairs, "
            f"got {_show(kicks)}")
    if not all(_is_number(v) for pair in kicks for v in pair):
        raise ConfigError(f"kick q and prob must be finite numbers, "
                          f"got {_show(kicks)}")
    probs = np.array([pr for _, pr in kicks], dtype=float)
    if np.any(probs < 0.0):
        raise ConfigError(f"negative kick probability in {kicks}")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ConfigError(f"kick probabilities sum to {probs.sum()}, not 1")
    q_max = abs(float(grid.p[0]))
    if any(abs(q) > q_max for q, _ in kicks):
        raise ConfigError(
            f"kick |q| must not exceed the lattice momentum range {q_max:.6g}: "
            f"on the grid a larger kick is the same as a smaller one, "
            f"got {kicks}")
    x, sectors = grid.x, []
    for (q, _), pr in zip(kicks, probs):
        u = 1j * float(q) * x
        np.exp(u, out=u)
        u *= float(np.sqrt(pr))
        sectors.append((u, None))
    return MeasurementChannel("classical_kick", tuple(sectors), grid)


def _check_eraser(eraser: str):
    if eraser not in ERASERS:
        raise ConfigError(f"eraser must be one of {ERASERS}, "
                          f"got {_show(eraser)}")


def erase(ch: MeasurementChannel, eraser: str) -> MeasurementChannel:
    """``ch`` itself for "none"; else one sector ((u +- v)/sqrt(2), None)
    per sector (u, v), v = 0 where None: the (H +- V)/sqrt(2) part of
    the sector's output, u h in H and v h in V, for a +-45 eraser."""
    _check_eraser(eraser)
    if eraser == "none":
        return ch
    sign = 1.0 if eraser == "plus45" else -1.0
    return MeasurementChannel(f"{ch.name}_{eraser}", tuple(
        ((u if v is None else u + sign * v) / np.sqrt(2.0), None)
        for u, v in ch.sectors), ch.grid)
