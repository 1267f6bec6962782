"""Pointer emulation: rank-2 intensity algebra and estimator convergence."""

import math

import numpy as np
import pytest

from weakslit import (ConfigError, ConvergenceReport, PointerSpec,
                      SlitGeometry, WindowRangeError, build_double_slit,
                      classical_kick, conditional_wvp, convergence_sweep,
                      estimate_wvp, from_dict, identity_channel, make_grid,
                      momentum_distribution, run, run_tagged, scully_wwm)

from conftest import WINDOW_WIDTH
from oracles import (_row_sums, dense_pointer_stacks, loop_convergence_sweep,
                     stack_convergence_sweep, stack_run_tagged,
                     ygrid_pointer_stats)


@pytest.fixture
def spec(lab):
    return PointerSpec(sigma=1.01e-3, displacement=0.14e-3,
                       sliver_width=1.77e-3, index=-1, lab=lab)


class TestPointerSpec:
    def test_ratio_and_window(self, spec):
        assert spec.ratio == pytest.approx(0.14 / 1.01, rel=1e-12)
        win = spec.window()
        assert win.index == -1
        assert win.width == pytest.approx(WINDOW_WIDTH, rel=1e-12)

    def test_at_ratio_rescales_displacement(self, spec):
        weak = spec.at_ratio(0.01)
        assert weak.sigma == spec.sigma
        assert weak.ratio == pytest.approx(0.01, rel=1e-12)
        with pytest.raises(ConfigError):
            spec.at_ratio(0.0)

    def test_at_ratio_refuses_an_underflowing_displacement(self, lab):
        tiny = PointerSpec(sigma=1e-320, displacement=1e-321,
                           sliver_width=1e-3, index=0, lab=lab)
        assert tiny.at_ratio(0.5).displacement > 0.0
        with pytest.raises(ConfigError, match="underflows"):
            tiny.at_ratio(1e-5)

    @pytest.mark.parametrize("sigma, displacement", [
        (1e-320, 1e-4), (5e-324, 1.0), (1e-300, 1e300)])
    def test_ratio_must_be_finite(self, lab, sigma, displacement):
        with pytest.raises(ConfigError, match="not a finite number"):
            PointerSpec(sigma=sigma, displacement=displacement,
                        sliver_width=1e-3, index=0, lab=lab)

    @pytest.mark.parametrize("field,value", [
        ("sigma", 0.0), ("displacement", -1e-4), ("sliver_width", 0.0)])
    def test_validation(self, lab, field, value):
        kwargs = dict(sigma=1e-3, displacement=1e-4, sliver_width=1e-3,
                      index=0, lab=lab)
        kwargs[field] = value
        with pytest.raises(ConfigError):
            PointerSpec(**kwargs)


def test_window_outside_grid_range_is_rejected(geom, spec, lab):
    coarse = make_grid(256, 64.0)  # p range +-12.6, window at -1.4 is fine,
    state = build_double_slit(geom, coarse)
    far = PointerSpec(spec.sigma, spec.displacement, spec.sliver_width,
                      index=-12, lab=lab)  # but centre -16.9 is not
    with pytest.raises(WindowRangeError):
        run_tagged(state, identity_channel(coarse), far)


class TestMarginal:
    def test_identity_marginal_is_channel_density(self, slit_state, grid,
                                                  spec):
        imap = run_tagged(slit_state, identity_channel(grid), spec)
        h_t, v_t = slit_state.momentum_amplitudes()
        dens = np.abs(h_t) ** 2 + np.abs(v_t) ** 2
        np.testing.assert_allclose(imap.marginal(), dens,
                                   atol=1e-13 * dens.max())

    def test_kick_marginal_is_channel_density(self, smooth_state, grid, spec):
        ch = classical_kick([(12.0 * grid.dp, 0.4), (-6.0 * grid.dp, 0.6)],
                            grid)
        imap = run_tagged(smooth_state, ch, spec)
        stacks = stack_run_tagged(smooth_state, ch, spec)
        dens = np.zeros(grid.n_points)
        for amps in (np.abs(stacks.untagged) ** 2, np.abs(stacks.tagged) ** 2):
            dens += np.sum(amps, axis=0)
        # disjoint momentum supports within each sector: no cross term
        np.testing.assert_allclose(imap.marginal(), dens,
                                   atol=1e-13 * dens.max())

    def test_marker_marginal_carries_back_action(self, slit_state, wwm, spec):
        """The tag physically disturbs a which-way-marked beam at O(ratio^2)."""
        dens = momentum_distribution(slit_state, wwm)
        strong = run_tagged(slit_state, wwm, spec)
        dev_strong = np.max(np.abs(strong.marginal() - dens)) / dens.max()
        weak = run_tagged(slit_state, wwm, spec.at_ratio(1e-3))
        dev_weak = np.max(np.abs(weak.marginal() - dens)) / dens.max()
        assert dev_strong > 1e-4
        assert dev_weak < 3e-6
        assert dev_weak < dev_strong * (1e-3 / spec.ratio) ** 2 * 10.0


class TestAgainstYGridQuadrature:
    """The closed-form Gaussian integrals vs brute-force y sampling."""

    def test_marginal_and_centroid(self, geom, dense_grid, spec):
        """The whole pointer path: the y integrals and the J, P and T they
        read, against stacks built with dense transform matrices."""
        state = build_double_slit(geom, dense_grid)
        ch = scully_wwm(dense_grid)
        imap = run_tagged(state, ch, spec)
        untagged, tagged = dense_pointer_stacks(state, ch, spec.window())
        marg_o, cent_o = ygrid_pointer_stats(untagged, tagged, spec.sigma,
                                             spec.displacement)
        np.testing.assert_allclose(imap.marginal(), marg_o,
                                   atol=1e-8 * marg_o.max())
        cent = imap.centroid()
        both = np.isfinite(cent) & np.isfinite(cent_o)
        np.testing.assert_allclose(cent[both], cent_o[both],
                                   atol=1e-8 * spec.displacement)

    def test_overlap_factor(self, spec):
        assert np.exp(-spec.ratio ** 2 / 2.0) == pytest.approx(
            np.exp(-spec.displacement ** 2 / (2.0 * spec.sigma ** 2)))

    @pytest.mark.parametrize("sigma, displacement, expected", [
        (1e-300, 1.4e-4, 0.0),     # D/sigma = 1.4e296: r*r is inf
        (1.01e-3, 1e-300, 1.0),    # r*r underflows to 0
        (1e-310, 1e-310, np.exp(-0.5))])
    def test_overlap_of_extreme_scales(self, slit_state, wwm, spec, sigma,
                                       displacement, expected):
        imap = run_tagged(slit_state, wwm, spec)
        imap.sigma, imap.displacement = sigma, displacement
        assert imap.overlap == expected
        assert np.all(np.isfinite(imap.marginal()))


class TestEstimator:
    def test_weak_limit_matches_analytic_curve(self, slit_state, wwm, spec):
        weak = spec.at_ratio(1e-3)
        est = estimate_wvp(run_tagged(slit_state, wwm, weak))
        analytic = conditional_wvp(slit_state, wwm, spec.window())
        both = est.defined & analytic.defined
        assert np.max(np.abs(est.values[both] - analytic.values[both])) < 1e-4

    def test_convergence_sweep(self, slit_state, wwm, spec):
        report = convergence_sweep(slit_state, wwm, spec,
                                   [0.05, 0.3, 0.001, 0.01])
        assert report.ratios == (0.3, 0.05, 0.01, 0.001)
        assert report.monotone_decreasing
        assert report.slope() == pytest.approx(2.0, abs=0.4)

    @pytest.mark.parametrize("channel", ["scully", "kick"])
    def test_sweep_equals_one_map_per_ratio(self, slit_state, smooth_state,
                                            grid, spec, channel):
        """Hoisting the D-independent row sums changes no bit."""
        ch = (scully_wwm(grid) if channel == "scully"
              else classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid))
        ratios = [0.3, 0.139, 0.05, 0.01, 0.001, 0.2, 1.0, 1e-6]
        for state in (slit_state, smooth_state):
            report = convergence_sweep(state, ch, spec, ratios)
            assert (report.ratios, report.errors) == loop_convergence_sweep(
                state, ch, spec, ratios)

    def test_report_slope_between_any_entries(self):
        report = ConvergenceReport((0.1, 0.01), (1e-2, 1e-4))
        assert report.slope(0, 1) == pytest.approx(2.0, rel=1e-12)


class TestAgainstAmplitudeStacks:
    """J, P and T against the complex (rows, n) stacks they replace.

    Worst values seen over these cases: marginal 9.3e-16 of its maximum,
    centroid 5.4e-13 of D (at samples just above the definedness
    threshold), sweep errors 1.6e-13.
    """

    @pytest.mark.parametrize("n_points, extent", [(256, 16.0), (4096, 64.0)])
    @pytest.mark.parametrize("edge", ["sharp", "gaussian_smoothed"])
    @pytest.mark.parametrize("channel", ["identity", "scully", "kick"])
    def test_marginal_centroid_and_sweep(self, spec, n_points, extent, edge,
                                         channel):
        grid = make_grid(n_points, extent)
        state = build_double_slit(SlitGeometry(0.5, 1.0, edge), grid)
        ch = {"identity": identity_channel, "scully": scully_wwm,
              "kick": lambda g: classical_kick([(0.7, 0.4), (-1.3, 0.6)],
                                               g)}[channel](grid)
        for ratio in (1.0, spec.ratio, 1e-3):
            pointer = spec.at_ratio(ratio)
            imap = run_tagged(state, ch, pointer)
            stacks = stack_run_tagged(state, ch, pointer)
            marg, marg_o = imap.marginal(), stacks.marginal()
            assert np.max(np.abs(marg - marg_o)) <= 1e-14 * marg_o.max()
            cent, cent_o = imap.centroid(), stacks.centroid()
            ok = np.isfinite(cent_o)
            np.testing.assert_array_equal(np.isfinite(cent), ok)
            assert (np.max(np.abs(cent[ok] - cent_o[ok]))
                    <= 5e-12 * pointer.displacement)
        ratios = [1.0, 0.3, 0.139, 0.05, 0.01, 0.001, 1e-6]
        report = convergence_sweep(state, ch, spec, ratios)
        ratios_o, errors_o = stack_convergence_sweep(state, ch, spec, ratios)
        assert report.ratios == ratios_o
        np.testing.assert_allclose(report.errors, errors_o, rtol=0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("channel", ["scully", "kick"])
    def test_strong_limit_is_the_tagged_fraction(self, slit_state, grid,
                                                 spec, channel):
        """With c = 0 the estimate is T / (P - 2 (J - T)), the tagged
        fraction sum |t|^2 / sum (|u|^2 + |t|^2) of the stacks (worst
        difference seen 2.1e-14)."""
        ch = (scully_wwm(grid) if channel == "scully"
              else classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid))
        strong = spec.at_ratio(100.0)
        imap = run_tagged(slit_state, ch, strong)
        assert imap.overlap == 0.0
        est = estimate_wvp(imap)
        stacks = stack_run_tagged(slit_state, ch, strong)
        _, tagged_w, squares = _row_sums(stacks.untagged, stacks.tagged)
        ok = squares > 1e-6 * squares.max()
        np.testing.assert_array_equal(est.defined, ok)
        np.testing.assert_allclose(est.values[ok],
                                   tagged_w[ok] / squares[ok],
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("command, rows", [
    ("wvp", 12), ("eraser", 8), ("pointer", 8), ("sweep", 8)])
def test_one_projection_and_one_channel_pass(monkeypatch, command, rows):
    """FFT rows per command at 1,024 points on the paper scenario: the
    pointer and the sweep take one window projection and one channel
    pass, as the eraser does."""
    config = from_dict({"channel": {"kind": "scully"},
                        "grid": {"n_points": 1024}})
    counted = []

    def counting(fn):
        def wrapper(a, *args, axis=-1, **kwargs):
            shape = np.shape(a)
            counted.append(math.prod(shape) // shape[axis])
            return fn(a, *args, axis=axis, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    run(config, command)
    assert sum(counted) == rows
