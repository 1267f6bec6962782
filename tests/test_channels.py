"""Measurement channels: completeness, sector action, sector structure."""

import math

import numpy as np
import pytest

from weakslit import (ConfigError, MeasurementChannel, NumericError,
                      SimGrid, build_momentum_peak, classical_kick, erase,
                      from_dict, identity_channel, momentum_distribution,
                      scully_wwm)

from conftest import partial_marker
from oracles import apply_sector, two_rows


def sector_outputs(state, ch):
    """The unnormalised (2, n) position-space output of each sector."""
    return [apply_sector(two_rows(state.field), u, v) for u, v in ch.sectors]


def test_identity_channel_passthrough(slit_state, grid):
    ch = identity_channel(grid)
    assert ch.completeness_defect() == 0.0
    (out,) = sector_outputs(slit_state, ch)
    np.testing.assert_array_equal(out, two_rows(slit_state.field))


class TestScullyWwm:
    def test_completeness(self, wwm):
        assert wwm.completeness_defect() == 0.0

    def test_one_sector_with_a_swap_part(self, wwm):
        ((_, v),) = wwm.sectors
        assert v is not None

    def test_bool_masks_multiply_like_float_masks(self, wwm, grid):
        """u and v are bool masks.  numpy casts True/False to the same
        complex factor as 1.0/0.0, so every product keeps its bytes,
        signed zeros included, on both halves of the line."""
        ((u, v),) = wwm.sectors
        assert u.dtype == v.dtype == bool
        rng = np.random.default_rng(3)
        amps = rng.normal(size=grid.n_points) + 1j * rng.normal(
            size=grid.n_points)
        for k, (re, im) in enumerate([(0.0, -0.0), (-0.0, 0.0),
                                      (-0.0, -0.0), (0.0, 0.0)]):
            amps[k::6] = complex(re, im)
        for mask in (u, v):
            assert (amps * mask).tobytes() == \
                (amps * mask.astype(float)).tobytes()
            assert (mask * amps).tobytes() == \
                (mask.astype(float) * amps).tobytes()

    def test_marks_left_slit_in_vertical(self, slit_state, wwm, grid):
        h_in = slit_state.field
        (out,) = sector_outputs(slit_state, wwm)
        # H stays on x >= 0; the swap moves H into V on x < 0
        np.testing.assert_array_equal(out[0], np.where(grid.x >= 0.0, h_in, 0.0))
        np.testing.assert_array_equal(out[1], np.where(grid.x < 0.0, h_in, 0.0))

    def test_position_density_unchanged(self, slit_state, wwm):
        """Which-way marking must not disturb where the particle is."""
        (out,) = sector_outputs(slit_state, wwm)
        before = np.abs(slit_state.field) ** 2
        np.testing.assert_allclose(np.sum(np.abs(out) ** 2, axis=0), before,
                                   atol=1e-14)

    def test_polarisation_masses_split_evenly(self, slit_state, wwm, grid):
        (out,) = sector_outputs(slit_state, wwm)
        masses = np.sum(np.abs(out) ** 2, axis=1) * grid.dx
        np.testing.assert_allclose(masses, [0.5, 0.5], rtol=1e-12)

    def test_grid_mismatch_rejected(self, slit_state):
        other = scully_wwm(SimGrid(1024, 32.0))
        with pytest.raises(NumericError, match="on a different grid"):
            momentum_distribution(slit_state, other)


class TestClassicalKick:
    def test_validation(self, grid):
        for kicks in ([], [(1.0, -0.2), (2.0, 1.2)], [(1.0, 0.5), (2.0, 0.6)],
                      [("a", 1.0)], [(math.inf, 1.0)], [(0.0, math.nan)],
                      [(True, 1.0)], [(1.0, 0.5, 0.2)], [1.0],
                      [(10 ** 400, 1.0)], [(0.0, 10 ** 400)],
                      [(np.float32("inf"), 1.0)], [(0.0, np.float32("inf"))],
                      [(10 ** 5000, 1.0)], [(0.0, 10 ** 5000)],
                      [(10 ** 5000,)]):
            with pytest.raises(ConfigError):
                classical_kick(kicks, grid)

    def test_numpy_scalars_are_numbers(self, grid):
        """numpy integer and floating scalars build the channel that the
        Python numbers they hold build, bit for bit: a float32
        probability's square root is taken in double precision."""
        ch = classical_kick([(np.int64(1), np.float32(0.5)),
                             (np.float32(-0.5), np.int64(0) + 0.5)], grid)
        ref = classical_kick([(1, 0.5), (-0.5, 0.5)], grid)
        for (u, _), (u_ref, _) in zip(ch.sectors, ref.sectors, strict=True):
            assert u.tobytes() == u_ref.tobytes()

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
        dens_in = np.abs(state.momentum_field()) ** 2
        dens_out = np.abs(grid.to_momentum(state.field * u)) ** 2
        np.testing.assert_allclose(dens_out, np.roll(dens_in, m), atol=1e-13)

    @pytest.mark.parametrize("kicks", [
        [(0.0, 1.0)],
        [(-0.37, 0.3), (0.61, 0.7)],
        [(1.0, 0.3), (-1.0, 0.7)],
    ])
    def test_sectors_are_built_bit_for_bit(self, grid, kicks):
        """Each sector's u, built in one row in place, has the bytes of
        sqrt(p) * exp(i q x) built as three rows; q is given here as a
        fraction of |p[0]|, the largest kick the lattice accepts."""
        edge = abs(float(grid.p[0]))
        kicks = [(frac * edge, prob) for frac, prob in kicks]
        ch = classical_kick(kicks, grid)
        for (q, p), (u, v) in zip(kicks, ch.sectors, strict=True):
            assert v is None
            assert u.tobytes() == (float(np.sqrt(p))
                                   * np.exp(1j * float(q) * grid.x)).tobytes()

    def test_sector_masses_are_probabilities(self, slit_state, grid):
        ch = classical_kick([(0.3, 0.1), (0.0, 0.6), (-0.9, 0.3)], grid)
        masses = [np.sum(np.abs(out) ** 2) * grid.dx
                  for out in sector_outputs(slit_state, ch)]
        np.testing.assert_allclose(masses, [0.1, 0.6, 0.3], rtol=1e-12)


class TestCompletenessDefect:
    """sum_k K_k^dag K_k = a + b S, with a = sum |u|^2 + |v|^2 and
    b = 2 sum Re(conj(u) v): the defect is the eigenvalues' largest
    distance from 1, max |a +- b - 1|, swap term included."""

    def test_swap_term_counts(self, grid):
        """K = (1 + S)/sqrt(2) has K^dag K = 1 + S, eigenvalues 2 and 0,
        although |u|^2 + |v|^2 = 1."""
        half = math.sqrt(0.5)
        ch = MeasurementChannel("half_swap", ((half, half),), grid)
        assert ch.completeness_defect() == pytest.approx(1.0, abs=1e-15)

    def test_partial_marker_is_complete(self, grid):
        """u = cos t, v = i sin t on x < 0: exp(i t S) is unitary."""
        left = grid.x < 0.0
        u = np.where(left, math.cos(0.9), 1.0)
        v = np.where(left, 1j * math.sin(0.9), 0.0)
        ch = MeasurementChannel("partial_marker", ((u, v),), grid)
        assert ch.completeness_defect() <= 1e-15

    def test_equals_the_dense_eigenvalues(self):
        """Two random complex sectors on 16 samples against the
        eigenvalues of sum K^dag K written out as 2 x 2 matrices."""
        grid = SimGrid(16, 4.0)
        rng = np.random.default_rng(3)
        sectors = tuple(tuple(0.5 * (rng.normal(size=16)
                                     + 1j * rng.normal(size=16))
                              for _ in range(2)) for _ in range(2))
        ch = MeasurementChannel("noise", sectors, grid)
        worst = 0.0
        for i in range(16):
            total = sum(np.conj(k).T @ k for k in (
                np.array([[u[i], v[i]], [v[i], u[i]]]) for u, v in sectors))
            worst = max(worst, np.max(np.abs(np.linalg.eigvalsh(total) - 1.0)))
        assert ch.completeness_defect() == pytest.approx(worst, rel=1e-12)


class TestErase:
    """``erase(ch, eraser)``: the channel ``ch`` read through a
    polarisation eraser."""

    def test_none_is_the_channel_itself(self, wwm):
        assert erase(wwm, "none") is wwm

    def test_unknown_name_is_refused_with_the_config_message(self, wwm):
        with pytest.raises(ConfigError) as config_error:
            from_dict({"grid": {"n_points": 1024}, "eraser": "circular"})
        with pytest.raises(ConfigError) as erase_error:
            erase(wwm, "circular")
        assert str(config_error.value) == f"'eraser': {erase_error.value}"

    @pytest.mark.parametrize("eraser", ["plus45", "minus45"])
    def test_each_sector_is_one_row(self, grid, eraser):
        kicks = classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid)
        for ch in (identity_channel(grid), scully_wwm(grid), kicks):
            erased = erase(ch, eraser)
            assert erased.grid is ch.grid
            assert len(erased.sectors) == len(ch.sectors)
            assert all(v is None for _, v in erased.sectors)

    def test_marker_plus45_is_the_identity_over_root_2(self, wwm, grid):
        ((u, _),) = erase(wwm, "plus45").sectors
        np.testing.assert_array_equal(u, np.full(grid.n_points,
                                                 1.0 / np.sqrt(2.0)))

    @pytest.mark.parametrize("eraser, sign", [("plus45", 1.0),
                                              ("minus45", -1.0)])
    def test_projects_each_sector_output(self, slit_state, grid, eraser,
                                         sign):
        """Each erased sector's output is the (H +- V)/sqrt(2) projection
        of the sector's (2, n) output, written out row by row."""
        ch = partial_marker(grid, 0.9, 1.1)
        ((u, v),) = ch.sectors
        (out,) = sector_outputs(slit_state, erase(ch, eraser))
        h, vert = apply_sector(two_rows(slit_state.field), u, v)
        np.testing.assert_allclose(out[0], (h + sign * vert) / np.sqrt(2.0),
                                   rtol=0.0, atol=1e-15)
