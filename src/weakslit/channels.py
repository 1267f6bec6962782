"""Measurement channels: labelled branch (Kraus) operators on pol (x) position.

Every branch has one form: optionally swap the H and V polarisations,
then multiply both by a position function u(x) sampled on the channel's
grid.  The three channel families differ only in their u:

* ``identity_channel(grid)`` - one branch with u = 1, no interaction
  at all;
* ``scully_wwm(grid)`` - a which-way marker: u is the 0/1
  indicator of the left half-line with the polarisation swapped, plus
  the indicator of the right half-line without; the spatial density is
  untouched;
* ``classical_kick(kicks, grid)`` - random momentum kicks drawn from a
  positive distribution, u_j = sqrt(prob_j) exp(i q_j x): the classical
  baseline for momentum disturbance.

Branches carry a ``sector`` label grouping the branches that originate
from a single unitary interaction.  Amplitudes are summed coherently
within a sector and incoherently across sectors.  The which-way marker
is one unitary realised as two half-line branches (one sector); each
classical kick is its own sector.  The distinction only matters once a
polarisation eraser recombines amplitudes: branches of one unitary can
interfere again, distinct classical outcomes cannot.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigError
from .grid import SimGrid
from .states import TransverseState

__all__ = [
    "Branch",
    "MeasurementChannel",
    "identity_channel",
    "scully_wwm",
    "classical_kick",
]


@dataclass(frozen=True)
class Branch:
    """One labelled branch operator K = u(x) S.

    S swaps the two polarisations when ``swap`` is set and is the
    identity otherwise; ``u`` holds u(x) on the channel's grid.
    """

    label: str
    sector: int
    u: np.ndarray
    swap: bool = False

    def apply(self, state: TransverseState) -> TransverseState:
        amps = state.amps[::-1] if self.swap else state.amps
        return TransverseState(state.grid, amps * self.u, state.sharp_edges)


@dataclass(frozen=True)
class MeasurementChannel:
    """A labelled Kraus set whose branch multipliers live on ``grid``."""

    name: str
    branches: tuple[Branch, ...]
    grid: SimGrid

    @property
    def sectors(self) -> tuple[int, ...]:
        seen: list[int] = []
        for b in self.branches:
            if b.sector not in seen:
                seen.append(b.sector)
        return tuple(seen)

    def completeness_defect(self) -> float:
        """max |diag(sum_k K_k^dag K_k) - 1| = max |sum_k |u_k|^2 - 1|."""
        total = sum(np.abs(b.u) ** 2 for b in self.branches)
        return float(np.max(np.abs(total - 1.0)))


def identity_channel(grid: SimGrid) -> MeasurementChannel:
    """The do-nothing channel (single branch with u = 1)."""
    return MeasurementChannel(
        "identity", (Branch("id", 0, np.ones(grid.n_points)),), grid)


def scully_wwm(grid: SimGrid) -> MeasurementChannel:
    """Which-way marker: flip polarisation on x < 0, keep it on x >= 0.

    Acting at the slit-image plane, the half-line split is equivalent
    to projecting onto the individual slit supports (the field between
    the slits vanishes, since every :class:`SlitGeometry` is narrower
    than the separation) but is insensitive to how edge samples are
    assigned.  The summed spatial density is pointwise unchanged; only
    the polarisation record differs.  Both branches belong to one
    sector: together they form a single unitary.
    """
    left = grid.x < 0.0
    return MeasurementChannel("scully_wwm", (
        Branch("left", 0, left.astype(float), swap=True),
        Branch("right", 0, (~left).astype(float)),
    ), grid)


def classical_kick(kicks: list[tuple[float, float]],
                   grid: SimGrid) -> MeasurementChannel:
    """Random-momentum-kick channel from (q_j, prob_j) pairs.

    Branch j has u = sqrt(prob_j) * exp(i q_j x): a momentum translation
    by q_j occurring with probability prob_j.  Both numbers must be
    finite; probabilities must be nonnegative and sum to one.  |q_j| may
    not exceed |p[0]|, the lattice's momentum range: on the grid,
    exp(i q x) for a larger q equals a smaller kick.
    """
    if not kicks or any(not isinstance(pair, (list, tuple)) or len(pair) != 2
                        for pair in kicks):
        raise ConfigError(
            f"classical_kick needs a non-empty list of (q, prob) pairs, "
            f"got {kicks!r}")
    if any(isinstance(v, bool) or not isinstance(v, Real)
           or not math.isfinite(v) for pair in kicks for v in pair):
        raise ConfigError(f"kick q and prob must be finite numbers, got {kicks}")
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
    branches = tuple(
        Branch(f"kick{j}", j,
               float(np.sqrt(pr)) * np.exp(1j * float(q) * grid.x))
        for j, (q, pr) in enumerate(kicks)
    )
    return MeasurementChannel("classical_kick", branches, grid)
