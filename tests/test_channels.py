"""Measurement channels: completeness, branch action, sector structure."""

import math

import numpy as np
import pytest

from weakslit import (ConfigError, GridMismatchError, build_momentum_peak,
                      classical_kick, identity_channel, make_grid,
                      momentum_distribution, scully_wwm)


def branch_outputs(state, ch):
    """label -> unnormalised branch output state."""
    return {b.label: b.apply(state) for b in ch.branches}


def test_identity_channel_passthrough(slit_state, grid):
    ch = identity_channel(grid)
    assert ch.completeness_defect() == 0.0
    (label, out), = branch_outputs(slit_state, ch).items()
    assert label == "id"
    np.testing.assert_array_equal(out.amps, slit_state.amps)


class TestScullyWwm:
    def test_completeness(self, wwm):
        assert wwm.completeness_defect() == 0.0

    def test_single_sector_two_branches(self, wwm):
        assert wwm.sectors == (0,)
        assert len(wwm.branches) == 2

    def test_marks_left_slit_in_vertical(self, slit_state, wwm, grid):
        outputs = branch_outputs(slit_state, wwm)
        left, right = outputs["left"], outputs["right"]
        h_in = slit_state.amps[0]
        # the left branch swaps H into V, restricted to x < 0
        assert np.all(left.amps[0] == 0.0)
        np.testing.assert_array_equal(
            left.amps[1], np.where(grid.x < 0.0, h_in, 0.0))
        assert np.all(right.amps[1] == 0.0)
        np.testing.assert_array_equal(
            right.amps[0], np.where(grid.x >= 0.0, h_in, 0.0))

    def test_spatial_density_unchanged(self, slit_state, wwm):
        """Which-way marking must not disturb where the particle is."""
        total = np.zeros(slit_state.grid.n_points)
        for out in branch_outputs(slit_state, wwm).values():
            total += out.spatial_density()
        np.testing.assert_allclose(total, slit_state.spatial_density(),
                                   atol=1e-14)

    def test_branch_masses_split_evenly(self, slit_state, wwm):
        masses = [out.norm_sq()
                  for out in branch_outputs(slit_state, wwm).values()]
        assert sum(masses) == pytest.approx(1.0, rel=1e-12)
        assert masses[0] == pytest.approx(0.5, rel=1e-12)

    def test_grid_mismatch_rejected(self, slit_state):
        other = scully_wwm(make_grid(1024, 32.0))
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
        assert ch.sectors == (0, 1)
        assert ch.completeness_defect() < 1e-15

    def test_single_kick_translates_momentum_density(self, grid):
        """A lattice-aligned kick rolls the momentum density exactly."""
        m = 24
        (branch,) = classical_kick([(m * grid.dp, 1.0)], grid).branches
        state = build_momentum_peak(-1.0, 1.0, grid)
        out = branch.apply(state)
        dens_in = np.abs(state.momentum_amplitudes()[0]) ** 2
        dens_out = np.abs(out.momentum_amplitudes()[0]) ** 2
        np.testing.assert_allclose(dens_out, np.roll(dens_in, m), atol=1e-13)

    def test_branch_weights_are_probabilities(self, slit_state, grid):
        ch = classical_kick([(0.3, 0.1), (0.0, 0.6), (-0.9, 0.3)], grid)
        masses = [out.norm_sq()
                  for out in branch_outputs(slit_state, ch).values()]
        np.testing.assert_allclose(masses, [0.1, 0.6, 0.3], rtol=1e-12)
