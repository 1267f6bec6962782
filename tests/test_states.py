"""Aperture states: geometry validation, normalisation, closed-form spectra."""

import numpy as np
import pytest

from weakslit import (GeometryError, ResolutionError, SimGrid, SlitGeometry,
                      WindowRangeError, build_double_slit,
                      build_momentum_peak)
from weakslit.states import EDGE_MARGIN, _slit_amplitude

from conftest import run_python
from oracles import double_slit_momentum_amplitude


class TestSlitGeometry:
    @pytest.mark.parametrize("width", [2.0, 1.0, 0.0, -0.5, float("nan")])
    def test_width_is_inside_the_separation(self, width):
        """The separation is the length unit: a width must lie in (0, 1)."""
        with pytest.raises(GeometryError):
            SlitGeometry(width=width)

    def test_rejects_unknown_profile(self):
        with pytest.raises(GeometryError):
            SlitGeometry(width=0.5, edge_profile="cosine")

    def test_default_edge_scale_is_tenth_of_width(self):
        geom = SlitGeometry(width=0.5, edge_profile="gaussian_smoothed")
        assert geom.edge_scale == pytest.approx(0.05)
        assert not geom.sharp

    def test_rejects_nonpositive_edge_scale(self):
        with pytest.raises(GeometryError):
            SlitGeometry(width=0.5, edge_profile="gaussian_smoothed",
                         edge_scale=-0.1)


def test_double_slit_is_normalised_h_polarised(slit_state):
    norm_sq = np.sum(np.abs(slit_state.field) ** 2) * slit_state.grid.dx
    assert norm_sq == pytest.approx(1.0, rel=1e-12)
    assert slit_state.field.shape == (slit_state.grid.n_points,)
    assert slit_state.field.dtype == complex
    assert slit_state.sharp_edges


def test_double_slit_density_is_even(slit_state):
    # x[0] = -n/2*dx has no positive partner on a centred lattice; skip it
    dens = np.abs(slit_state.field) ** 2
    np.testing.assert_allclose(dens[1:], dens[1:][::-1], atol=1e-14)


def test_double_slit_momentum_matches_closed_form(geom, grid):
    """FFT spectrum vs the continuum transform of the two top-hats."""
    state = build_double_slit(geom, grid)
    h_t = state.momentum_field()
    sel = np.abs(grid.p) < 6.0 * np.pi
    expected = double_slit_momentum_amplitude(grid.p[sel], geom.width)
    # both are real-positive-normalised up to a common factor
    scale = np.max(np.abs(h_t[sel].real)) / np.max(np.abs(expected))
    np.testing.assert_allclose(h_t[sel].real, expected * scale,
                               atol=2e-3 * np.max(np.abs(h_t[sel])))
    np.testing.assert_allclose(h_t[sel].imag, 0.0, atol=1e-12)


def test_double_slit_fringe_zeros(slit_state, grid):
    """Destructive interference at odd half-multiples of h/s."""
    dens = np.abs(slit_state.momentum_field()) ** 2
    for p_zero in (-3.0 * np.pi, -np.pi, np.pi, 3.0 * np.pi):
        k = int(np.argmin(np.abs(grid.p - p_zero)))
        assert dens[k] < 1e-6 * dens.max()


def test_sharp_edges_take_midpoint_value(geom, grid):
    """Slit edges land on lattice sites here; the sample gets half height."""
    amp = _slit_amplitude(geom, grid, -0.5)
    interior = np.max(amp)
    for edge in (-0.75, -0.25):
        k = int(np.argmin(np.abs(grid.x - edge)))
        assert grid.x[k] == pytest.approx(edge, abs=1e-15)
        assert amp[k] == pytest.approx(0.5 * interior, rel=1e-12)


def test_single_slit_sides(geom, grid):
    x = grid.x
    for center in (-0.5, 0.5):
        dens = _slit_amplitude(geom, grid, center) ** 2
        mean = float(np.sum(dens * x) / np.sum(dens))
        assert mean == pytest.approx(center, abs=1e-9)


def test_one_slit_is_a_top_hat(geom, grid):
    """One slit's amplitude is a flat top-hat over that slit alone."""
    amp = _slit_amplitude(geom, grid, -0.5)
    inside = np.abs(grid.x + 0.5) < 0.25 - 1e-12
    outside = np.abs(grid.x + 0.5) > 0.25 + 1e-12
    top = amp[inside]
    np.testing.assert_allclose(top, top[0], rtol=1e-12)
    np.testing.assert_array_equal(amp[outside], 0.0)


def test_double_slit_is_the_normalised_sum_of_its_slits(geom, grid):
    pair = build_double_slit(geom, grid)
    amp = (_slit_amplitude(geom, grid, -0.5)
           + _slit_amplitude(geom, grid, 0.5))
    amp /= np.sqrt(np.sum(amp ** 2) * grid.dx)
    np.testing.assert_allclose(pair.field.real, amp, rtol=0.0, atol=1e-15)
    assert np.sum(np.abs(pair.field) ** 2) * grid.dx == pytest.approx(
        1.0, rel=1e-12)


def test_slit_needs_margin_inside_grid(geom):
    tight = SimGrid(64, 1.55)
    with pytest.raises(GeometryError):
        build_double_slit(geom, tight)


def test_slits_between_samples_are_refused(geom):
    """A slit narrower than dx and between samples would leave no field."""
    coarse = SimGrid(1024, 1024.0)
    with pytest.raises(GeometryError, match="no sample"):
        build_double_slit(geom, coarse)


def test_smoothed_tails_must_not_wrap_around_the_grid(grid):
    """An erf tail reaching the periodic boundary wraps onto the far end:
    refused.  Edge scales up to width * 5 leave exact zeros there."""
    for scale in (5e-5, 0.05, 0.5, 2.5):
        state = build_double_slit(
            SlitGeometry(0.5, "gaussian_smoothed", scale), grid)
        amp = state.field
        assert not amp[:EDGE_MARGIN].any() and not amp[-EDGE_MARGIN:].any()
    with pytest.raises(GeometryError, match="wrap around"):
        build_double_slit(
            SlitGeometry(0.5, "gaussian_smoothed", 12.5), grid)


def test_smoothed_slits_suppress_spectral_tails(slit_state, smooth_state, grid):
    """Sharp edges give 1/p^2 tails; erf edges kill them exponentially."""
    far = np.abs(grid.p) > 25.0 * 2.0 * np.pi
    assert np.count_nonzero(far) > 0
    sharp_t = slit_state.momentum_field()
    smooth_t = smooth_state.momentum_field()
    sharp_tail = np.max(np.abs(sharp_t[far]) ** 2)
    smooth_tail = np.max(np.abs(smooth_t[far]) ** 2)
    assert smooth_state.sharp_edges is False
    assert smooth_tail < 1e-8 * sharp_tail


def test_smoothed_edges_match_scipy_erf(smooth_geom, grid):
    """The package's elementwise math.erf against scipy's, on one slit."""
    from scipy.special import erf

    x = grid.x
    scale = smooth_geom.edge_scale * np.sqrt(2.0)
    lo, hi = 0.5 - smooth_geom.width / 2.0, 0.5 + smooth_geom.width / 2.0
    amp = 0.5 * (erf((x - lo) / scale) - erf((x - hi) / scale))
    np.testing.assert_allclose(_slit_amplitude(smooth_geom, grid, 0.5), amp,
                               rtol=0.0, atol=1e-15)


def test_import_leaves_scipy_out():
    code = "import sys, weakslit; print('scipy' in sys.modules)"
    proc = run_python("-c", code, check=True)
    assert proc.stdout.strip() == "False"


class TestMomentumPeak:
    def test_moments(self, grid):
        p0, width = 3.0, 0.8
        state = build_momentum_peak(p0, width, grid)
        assert np.sum(np.abs(state.field) ** 2) * grid.dx == pytest.approx(
            1.0, rel=1e-12)
        h_t = state.momentum_field()
        dens = np.abs(h_t) ** 2
        dens /= np.sum(dens) * grid.dp
        mean = float(np.sum(dens * grid.p) * grid.dp)
        var = float(np.sum(dens * (grid.p - mean) ** 2) * grid.dp)
        assert mean == pytest.approx(p0, abs=1e-10)
        # amplitude width w gives density sigma = w / sqrt(2)
        assert np.sqrt(var) == pytest.approx(width / np.sqrt(2.0), rel=1e-10)

    def test_rejects_unresolvable_width(self, grid):
        with pytest.raises(ResolutionError):
            build_momentum_peak(0.0, 3.9 * grid.dp, grid)

    def test_rejects_a_peak_off_the_grid(self):
        """|p| <= 50.3 on this grid: every sample of the Gaussian at
        p0 = 1000 underflows to 0, which cannot be normalised."""
        with pytest.raises(WindowRangeError, match="zero on every sample"):
            build_momentum_peak(1e3, 2.0, SimGrid(256, 16.0))
