"""Grid construction, unitary transforms, and lab-unit conversion."""

import numpy as np
import pytest
import scipy.constants as const

from weakslit import ConfigError, GridMismatchError, LabFrame, make_grid

from oracles import dft_matrix, idft_matrix


def test_make_grid_spacings():
    grid = make_grid(1024, 64.0)
    assert grid.dx == 64.0 / 1024
    assert grid.dp == 2.0 * np.pi / 64.0
    # conjugacy: dx * dp * n == 2 pi, the unitarity condition
    assert grid.dx * grid.dp * grid.n_points == pytest.approx(2.0 * np.pi,
                                                              rel=1e-15)


def test_make_grid_centred_samples():
    grid = make_grid(16, 4.0)
    assert grid.x[grid.n_points // 2] == 0.0
    assert grid.p[grid.n_points // 2] == 0.0
    np.testing.assert_allclose(np.diff(grid.x), grid.dx)
    np.testing.assert_allclose(np.diff(grid.p), grid.dp)


@pytest.mark.parametrize("n", [0, 7, 12, 1000, -16])
def test_make_grid_rejects_bad_sizes(n):
    with pytest.raises(ConfigError):
        make_grid(n, 8.0)


def test_make_grid_rejects_bad_extent():
    with pytest.raises(ConfigError):
        make_grid(64, 0.0)
    with pytest.raises(ConfigError):
        make_grid(64, -3.0)


def norm_x(grid, values):
    """L2 norm of position samples (both polarisations if stacked)."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx))


def norm_p(grid, values):
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.dp))


def test_transform_is_unitary():
    grid = make_grid(512, 32.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=512) + 1j * rng.normal(size=512)
    g = grid.to_momentum(f)
    assert norm_p(grid, g) == pytest.approx(norm_x(grid, f), rel=1e-13)
    np.testing.assert_allclose(grid.from_momentum(g), f, atol=1e-12)


def test_transform_matches_dense_matrix():
    grid = make_grid(256, 16.0)
    rng = np.random.default_rng(11)
    f = rng.normal(size=256) + 1j * rng.normal(size=256)
    np.testing.assert_allclose(grid.to_momentum(f), dft_matrix(grid) @ f,
                               atol=1e-12)
    np.testing.assert_allclose(grid.from_momentum(f), idft_matrix(grid) @ f,
                               atol=1e-12)


def test_dense_matrices_are_mutually_inverse():
    grid = make_grid(128, 8.0)
    prod = idft_matrix(grid) @ dft_matrix(grid)
    np.testing.assert_allclose(prod, np.eye(128), atol=1e-12)


def test_gaussian_transform_closed_form():
    """exp(-x^2/(2 a^2)) maps to a * exp(-p^2 a^2 / 2) under this convention."""
    grid = make_grid(2048, 64.0)
    a = 1.3
    f = np.exp(-grid.x ** 2 / (2.0 * a ** 2)).astype(complex)
    expected = a * np.exp(-grid.p ** 2 * a ** 2 / 2.0)
    np.testing.assert_allclose(grid.to_momentum(f).real, expected, atol=1e-12)
    np.testing.assert_allclose(grid.to_momentum(f).imag, 0.0, atol=1e-12)


def test_transform_works_on_stacked_rows():
    grid = make_grid(256, 16.0)
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(2, 256)) + 1j * rng.normal(size=(2, 256))
    out = grid.to_momentum(stack)
    np.testing.assert_allclose(out[0], grid.to_momentum(stack[0]), atol=1e-13)
    np.testing.assert_allclose(out[1], grid.to_momentum(stack[1]), atol=1e-13)


def test_transform_rejects_wrong_length():
    grid = make_grid(64, 8.0)
    with pytest.raises(GridMismatchError):
        grid.to_momentum(np.zeros(65))
    with pytest.raises(GridMismatchError):
        grid.from_momentum(np.zeros(32))


class TestLabFrame:
    def test_fringe_period_is_f_lambda_over_s(self, lab):
        assert lab.fringe_period == pytest.approx(
            1.0 * 633e-9 / 80e-6, rel=1e-15)
        # h/s = 2 pi internal lands exactly one fringe out
        assert lab.focal_plane_position(2.0 * np.pi) == pytest.approx(
            lab.fringe_period, rel=1e-15)

    def test_unit_round_trip(self, lab):
        p = np.linspace(-40.0, 40.0, 17)
        back = lab.momentum_from_position(lab.focal_plane_position(p))
        np.testing.assert_allclose(back, p, rtol=1e-12)

    def test_scalar_in_scalar_out(self, lab):
        pos = lab.focal_plane_position(1.0)
        assert isinstance(pos, float)

    def test_effective_mass_and_window_relation(self, lab):
        """The sliver width maps to (m c / f) * delta of physical momentum,
        with the photon's effective mass m = h / (c * wavelength)."""
        mass = const.h / (const.c * lab.wavelength)
        delta = 1.77e-3
        width_internal = lab.momentum_from_position(delta)
        width_physical = width_internal * const.hbar / lab.slit_separation
        assert width_physical == pytest.approx(
            mass * const.c * delta / lab.focal_length, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(wavelength=0.0, focal_length=1.0, slit_separation=80e-6),
        dict(wavelength=633e-9, focal_length=-1.0, slit_separation=80e-6),
        dict(wavelength=633e-9, focal_length=1.0, slit_separation=0.0),
    ])
    def test_rejects_nonpositive_lengths(self, kwargs):
        with pytest.raises(ConfigError):
            LabFrame(**kwargs)
