"""Measurement channels: completeness, sector action, sector structure."""

import math

import numpy as np
import pytest

from weakslit import (ConfigError, GridMismatchError, SimGrid,
                      build_momentum_peak, classical_kick, identity_channel,
                      momentum_distribution, scully_wwm)

from oracles import apply_sector


def sector_outputs(state, ch):
    """The unnormalised (2, n) position-space output of each sector."""
    return [apply_sector(state.amps, u, v) for u, v in ch.sectors]


def test_identity_channel_passthrough(slit_state, grid):
    ch = identity_channel(grid)
    assert ch.completeness_defect() == 0.0
    (out,) = sector_outputs(slit_state, ch)
    np.testing.assert_array_equal(out, slit_state.amps)


class TestScullyWwm:
    def test_completeness(self, wwm):
        assert wwm.completeness_defect() == 0.0

    def test_one_sector_with_a_swap_part(self, wwm):
        ((_, v),) = wwm.sectors
        assert v is not None

    def test_marks_left_slit_in_vertical(self, slit_state, wwm, grid):
        h_in = slit_state.amps[0]
        assert np.all(slit_state.amps[1] == 0.0)
        (out,) = sector_outputs(slit_state, wwm)
        # H stays on x >= 0; the swap moves H into V on x < 0
        np.testing.assert_array_equal(out[0], np.where(grid.x >= 0.0, h_in, 0.0))
        np.testing.assert_array_equal(out[1], np.where(grid.x < 0.0, h_in, 0.0))

    def test_position_density_unchanged(self, slit_state, wwm):
        """Which-way marking must not disturb where the particle is."""
        (out,) = sector_outputs(slit_state, wwm)
        before = np.sum(np.abs(slit_state.amps) ** 2, axis=0)
        np.testing.assert_allclose(np.sum(np.abs(out) ** 2, axis=0), before,
                                   atol=1e-14)

    def test_polarisation_masses_split_evenly(self, slit_state, wwm, grid):
        (out,) = sector_outputs(slit_state, wwm)
        masses = np.sum(np.abs(out) ** 2, axis=1) * grid.dx
        np.testing.assert_allclose(masses, [0.5, 0.5], rtol=1e-12)

    def test_grid_mismatch_rejected(self, slit_state):
        other = scully_wwm(SimGrid(1024, 32.0))
        with pytest.raises(GridMismatchError):
            momentum_distribution(slit_state, other)


class TestClassicalKick:
    def test_validation(self, grid):
        for kicks in ([], [(1.0, -0.2), (2.0, 1.2)], [(1.0, 0.5), (2.0, 0.6)],
                      [("a", 1.0)], [(math.inf, 1.0)], [(0.0, math.nan)],
                      [(True, 1.0)], [(1.0, 0.5, 0.2)], [1.0]):
            with pytest.raises(ConfigError):
                classical_kick(kicks, grid)

    def test_kicks_beyond_the_lattice_range_are_refused(self, grid):
        """exp(iqx) on the lattice cannot tell q from q - 2 p_max."""
        edge = abs(float(grid.p[0]))
        for q in (edge, -edge, 3.0):
            classical_kick([(q, 1.0)], grid)
        for q in (np.nextafter(edge, np.inf), -2.0 * edge, 1e300):
            with pytest.raises(ConfigError, match="lattice momentum range"):
                classical_kick([(0.0, 0.5), (q, 0.5)], grid)

    def test_sectors_and_completeness(self, grid):
        ch = classical_kick([(0.5, 0.25), (-0.5, 0.75)], grid)
        assert len(ch.sectors) == 2
        assert all(v is None for _, v in ch.sectors)
        assert ch.completeness_defect() < 1e-15

    def test_single_kick_translates_momentum_density(self, grid):
        """A lattice-aligned kick rolls the momentum density exactly."""
        m = 24
        ((u, _),) = classical_kick([(m * grid.dp, 1.0)], grid).sectors
        state = build_momentum_peak(-1.0, 1.0, grid)
        dens_in = np.abs(state.momentum_amplitudes()[0]) ** 2
        dens_out = np.abs(grid.to_momentum(state.amps * u)[0]) ** 2
        np.testing.assert_allclose(dens_out, np.roll(dens_in, m), atol=1e-13)

    def test_sector_masses_are_probabilities(self, slit_state, grid):
        ch = classical_kick([(0.3, 0.1), (0.0, 0.6), (-0.9, 0.3)], grid)
        masses = [np.sum(np.abs(out) ** 2) * grid.dx
                  for out in sector_outputs(slit_state, ch)]
        np.testing.assert_allclose(masses, [0.1, 0.6, 0.3], rtol=1e-12)
