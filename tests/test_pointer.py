"""Pointer emulation: rank-2 intensity algebra and estimator convergence."""

import math

import numpy as np
import pytest

from weakslit import (ConfigError, ConvergenceReport, MomentumWindow,
                      SimGrid, SlitGeometry, WindowRangeError, WvpCurve,
                      build_double_slit, classical_kick, conditional_wvp,
                      convergence_sweep, estimate_wvp, from_dict,
                      identity_channel, marginal,
                      momentum_distribution, run, run_tagged, scully_wwm)
from weakslit.pointer import _overlap

from conftest import WINDOW_WIDTH
from oracles import (_row_sums, dense_pointer_stacks, loop_convergence_sweep,
                     pointer_centroid, stack_convergence_sweep,
                     stack_run_tagged, ygrid_pointer_stats)


#: The bench pointer's 1/e^2 half-width and tag shift D, in metres.
SIGMA, SHIFT = 1.01e-3, 0.14e-3
RATIO = SHIFT / SIGMA


def test_window_outside_grid_range_is_rejected(geom):
    coarse = SimGrid(256, 64.0)  # p range +-12.6, window at -1.4 is fine,
    state = build_double_slit(geom, coarse)
    far = MomentumWindow(-12, WINDOW_WIDTH)  # but centre -16.9 is not
    with pytest.raises(WindowRangeError):
        run_tagged(state, identity_channel(coarse), far)


class TestMarginal:
    def test_identity_marginal_is_channel_density(self, slit_state, grid,
                                                  focus_window):
        curve = run_tagged(slit_state, identity_channel(grid), focus_window)
        dens = np.abs(slit_state.momentum_field()) ** 2
        np.testing.assert_allclose(marginal(curve, RATIO), dens,
                                   atol=1e-13 * dens.max())

    def test_kick_marginal_is_channel_density(self, smooth_state, grid,
                                              focus_window):
        ch = classical_kick([(12.0 * grid.dp, 0.4), (-6.0 * grid.dp, 0.6)],
                            grid)
        curve = run_tagged(smooth_state, ch, focus_window)
        stacks = stack_run_tagged(smooth_state, ch, focus_window, SIGMA,
                                  SHIFT)
        dens = np.zeros(grid.n_points)
        for amps in (np.abs(stacks.untagged) ** 2, np.abs(stacks.tagged) ** 2):
            dens += np.sum(amps, axis=0)
        # disjoint momentum supports within each sector: no cross term
        np.testing.assert_allclose(marginal(curve, RATIO), dens,
                                   atol=1e-13 * dens.max())

    def test_marker_marginal_carries_back_action(self, slit_state, wwm,
                                                 focus_window):
        """The tag physically disturbs a which-way-marked beam at
        O(ratio^2)."""
        dens = momentum_distribution(slit_state, wwm)
        curve = run_tagged(slit_state, wwm, focus_window)
        strong = marginal(curve, RATIO)
        dev_strong = np.max(np.abs(strong - dens)) / dens.max()
        dev_weak = np.max(np.abs(marginal(curve, 1e-3) - dens)) / dens.max()
        assert dev_strong > 1e-4
        assert dev_weak < 3e-6
        assert dev_weak < dev_strong * (1e-3 / RATIO) ** 2 * 10.0


class TestAgainstYGridQuadrature:
    """The closed-form Gaussian integrals vs brute-force y sampling."""

    def test_marginal_and_centroid(self, geom, dense_grid, focus_window):
        """The whole pointer path: the y integrals and the J, P and T they
        read, against stacks built with dense transform matrices."""
        state = build_double_slit(geom, dense_grid)
        ch = scully_wwm(dense_grid)
        curve = run_tagged(state, ch, focus_window)
        untagged, tagged = dense_pointer_stacks(state, ch, focus_window)
        marg_o, cent_o = ygrid_pointer_stats(untagged, tagged, SIGMA,
                                             SHIFT)
        np.testing.assert_allclose(marginal(curve, RATIO), marg_o,
                                   atol=1e-8 * marg_o.max())
        cent = pointer_centroid(curve, SIGMA, SHIFT)
        both = np.isfinite(cent) & np.isfinite(cent_o)
        np.testing.assert_allclose(cent[both], cent_o[both],
                                   atol=1e-8 * SHIFT)

    def test_overlap_factor(self):
        ratio = from_dict({"grid": {"n_points": 1024}}).ratio
        assert _overlap(ratio)[0] == pytest.approx(
            np.exp(-SHIFT ** 2 / (2.0 * SIGMA ** 2)), rel=1e-15)

    @pytest.mark.parametrize("sigma, displacement, expected", [
        (1e-300, 1.4e-4, 0.0),     # D/sigma = 1.4e296: r*r is inf
        (1.01e-3, 1e-300, 1.0),    # r*r underflows to 0
        (1e-310, 1e-310, np.exp(-0.5))])
    def test_overlap_of_extreme_scales(self, slit_state, wwm, focus_window,
                                       sigma, displacement, expected):
        ratio = from_dict({"grid": {"n_points": 1024},
                           "pointer": {"sigma": sigma,
                                       "displacement": displacement}}).ratio
        assert _overlap(ratio)[0] == expected
        curve = run_tagged(slit_state, wwm, focus_window)
        assert np.all(np.isfinite(marginal(curve, ratio)))

    @pytest.mark.parametrize("ratio", [1e-3, 1e-5, 1e-8])
    def test_one_minus_overlap_is_exact_at_small_ratios(self, ratio):
        """With P = 0 and J - T = -1/2 the marginal is 1 - c itself.  It
        must match 1 - exp(-r^2/2) = r^2/2 - r^4/8 + r^6/48 (the next
        term is below 1e-20 relative here); ``1.0 - c`` is off by about
        eps / (r^2/2) relative: 1.2e-10 at r = 1e-3, 8.3e-8 at 1e-5."""
        zeros = np.zeros(3)
        curve = WvpCurve(zeros, joint=zeros, density=zeros,
                         strong=np.full(3, 0.5))
        series = ratio ** 2 / 2 - ratio ** 4 / 8 + ratio ** 6 / 48
        np.testing.assert_allclose(marginal(curve, ratio), series,
                                   rtol=1e-15, atol=0.0)


class TestEstimator:
    def test_weak_limit_matches_analytic_curve(self, slit_state, wwm,
                                               focus_window):
        est = estimate_wvp(run_tagged(slit_state, wwm, focus_window), 1e-3)
        analytic = conditional_wvp(slit_state, wwm, focus_window)
        both = np.isfinite(est) & np.isfinite(analytic.values)
        assert np.max(np.abs(est[both] - analytic.values[both])) < 1e-4

    def test_convergence_sweep(self, slit_state, wwm, focus_window):
        report = convergence_sweep(slit_state, wwm, focus_window,
                                   [0.05, 0.3, 0.001, 0.01])
        assert report.ratios == (0.3, 0.05, 0.01, 0.001)
        assert report.monotone_decreasing
        assert report.slope() == pytest.approx(2.0, abs=0.4)

    @pytest.mark.parametrize("channel", ["scully", "kick"])
    def test_sweep_equals_one_map_per_ratio(self, slit_state, smooth_state,
                                            grid, focus_window, channel):
        """Hoisting the D-independent row sums changes no bit."""
        ch = (scully_wwm(grid) if channel == "scully"
              else classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid))
        ratios = [0.3, 0.139, 0.05, 0.01, 0.001, 0.2, 1.0, 1e-6]
        for state in (slit_state, smooth_state):
            report = convergence_sweep(state, ch, focus_window, ratios)
            assert (report.ratios, report.errors) == loop_convergence_sweep(
                state, ch, focus_window, ratios)

    def test_sweep_reads_only_the_ratios(self):
        """Neither sigma nor D enters the sweep: a pointer whose D = r
        sigma would underflow to zero sweeps like the bench pointer."""
        scene = {"channel": {"kind": "scully"}, "grid": {"n_points": 1024}}
        tiny = dict(scene, pointer={"sigma": 1e-320, "displacement": 1e-321,
                                    "ratios": [0.5, 1e-5]})
        bench = dict(scene, pointer={"ratios": [0.5, 1e-5]})
        assert (run(from_dict(tiny), "sweep").summary
                == run(from_dict(bench), "sweep").summary)

    def test_repeated_ratios_are_swept_once(self, slit_state, wwm,
                                            focus_window):
        """A ratio given twice is one sweep entry: two equal errors
        would put 0/0 into the slope."""
        report = convergence_sweep(slit_state, wwm, focus_window,
                                   [0.1, 0.5, 0.1])
        assert report.ratios == (0.5, 0.1)
        once = convergence_sweep(slit_state, wwm, focus_window, [0.1, 0.5])
        assert (report.ratios, report.errors, report.floors) \
            == (once.ratios, once.errors, once.floors)
        assert report.slope_smallest_pair == report.slope()

    def test_sweep_refuses_a_non_positive_ratio(self, slit_state, wwm,
                                                focus_window):
        with pytest.raises(ConfigError, match="positive"):
            convergence_sweep(slit_state, wwm, focus_window, [0.1, 0.0])

    def test_report_slope_between_any_entries(self):
        report = ConvergenceReport((0.1, 0.01), (1e-2, 1e-4), (0.0, 0.0))
        assert report.slope(0, 1) == pytest.approx(2.0, rel=1e-12)

    def test_errors_at_or_below_the_floor_count_as_exact(self):
        ratios = (1.0, 0.3, 0.1, 0.01, 0.001)
        report = ConvergenceReport(ratios, (1e-2, 1e-3, 1e-4, 1e-15, 5e-16),
                                   (1e-15,) * 5)
        assert report.under_floor == 2
        assert report.monotone_decreasing
        assert report.slope_smallest_pair == report.slope(1, 2)
        assert ConvergenceReport(ratios[:2], (1e-2, 1e-15),
                                 (1e-15,) * 2).slope_smallest_pair is None
        assert not ConvergenceReport(ratios[:2], (1e-2, 1e-1),
                                     (1e-15,) * 2).monotone_decreasing

    def test_each_ratio_has_its_own_floor(self):
        """One error of 1e-13 is round-off under a floor of 1e-12 and an
        error above a floor of 1e-15."""
        report = ConvergenceReport((0.3, 0.1, 0.01), (1e-13, 1e-13, 1e-15),
                                   (1e-12, 1e-15, 1e-15))
        assert report.under_floor == 2
        assert report.slope_smallest_pair is None
        assert ConvergenceReport((0.3, 0.1, 0.01), (1e-13, 1e-13, 1e-15),
                                 (1e-15,) * 3).under_floor == 1

    def test_identity_sweep_is_all_round_off(self, tmp_path):
        """The estimator is exact on the identity channel: no error is
        above the floor, so the summary states no slope."""
        config = from_dict({"grid": {"n_points": 1024}})
        summary = run(config, "sweep").summary
        assert summary["roundoff_floor"]["ratios_under"] == 5
        assert summary["slope_smallest_pair"] is None
        assert summary["monotone_decreasing"] is True
        floors = summary["roundoff_floor"]["error"]
        assert len(floors) == 5
        assert all(e <= f for e, f in zip(summary["errors"], floors))

    @pytest.mark.parametrize("n_points", [1024, 16384])
    def test_on_lattice_kick_sweep_is_all_round_off(self, n_points):
        """Kicks of exactly one lattice period leave J = T, so the
        estimator is exact; (1 - c) times the round-off of J - T reaches
        35-104 eps x max |J/P| at D/sigma = 0.3, above a floor that
        ignores it."""
        kicks = [[6.283185307179586, 0.5], [-6.283185307179586, 0.5]]
        config = from_dict({"channel": {"kind": "kick", "kicks": kicks},
                            "grid": {"n_points": n_points}})
        summary = run(config, "sweep").summary
        assert summary["roundoff_floor"]["ratios_under"] == 5
        assert summary["slope_smallest_pair"] is None
        assert summary["monotone_decreasing"] is True

    def test_scully_sweep_is_above_the_floor(self, slit_state, wwm,
                                             focus_window):
        report = convergence_sweep(slit_state, wwm, focus_window,
                                   [0.3, 0.139, 0.05, 0.01, 0.001])
        assert report.under_floor == 0
        assert report.slope_smallest_pair == report.slope()
        assert 0.0 < report.floors[-1] < 1e-13
        assert all(0.0 < f < 1e-8 * e
                   for e, f in zip(report.errors, report.floors))

    @pytest.mark.parametrize("channel", ["scully", "kick"])
    def test_inexact_sweeps_stay_above_the_floor(self, slit_state,
                                                 smooth_state, grid,
                                                 focus_window, channel):
        """Smoothed slits, and two kicks off the lattice at either edge
        profile, keep every error above its floor."""
        ch = (scully_wwm(grid) if channel == "scully"
              else classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid))
        states = ([smooth_state] if channel == "scully"
                  else [slit_state, smooth_state])
        for state in states:
            report = convergence_sweep(state, ch, focus_window,
                                       [1.0, 0.3, 0.05, 0.001, 1e-5])
            assert report.under_floor == 0
            assert report.monotone_decreasing


class TestAgainstAmplitudeStacks:
    """J, P and T against the complex (rows, n) stacks they replace.

    Worst values seen over these cases: marginal 9.3e-16 of its maximum,
    centroid 5.4e-13 of D (at samples just above the definedness
    threshold), sweep errors 1.6e-13.
    """

    @pytest.mark.parametrize("n_points, extent", [(256, 16.0), (4096, 64.0)])
    @pytest.mark.parametrize("edge", ["sharp", "gaussian_smoothed"])
    @pytest.mark.parametrize("channel", ["identity", "scully", "kick"])
    def test_marginal_centroid_and_sweep(self, focus_window, n_points, extent,
                                         edge, channel):
        grid = SimGrid(n_points, extent)
        state = build_double_slit(SlitGeometry(0.5, edge), grid)
        ch = {"identity": identity_channel, "scully": scully_wwm,
              "kick": lambda g: classical_kick([(0.7, 0.4), (-1.3, 0.6)],
                                               g)}[channel](grid)
        curve = run_tagged(state, ch, focus_window)
        for ratio in (1.0, RATIO, 1e-3):
            shift = ratio * SIGMA
            stacks = stack_run_tagged(state, ch, focus_window, SIGMA, shift)
            marg, marg_o = marginal(curve, stacks.ratio), stacks.marginal()
            assert np.max(np.abs(marg - marg_o)) <= 1e-14 * marg_o.max()
            cent = pointer_centroid(curve, SIGMA, shift)
            cent_o = stacks.centroid()
            ok = np.isfinite(cent_o)
            np.testing.assert_array_equal(np.isfinite(cent), ok)
            assert np.max(np.abs(cent[ok] - cent_o[ok])) <= 5e-12 * shift
        ratios = [1.0, 0.3, 0.139, 0.05, 0.01, 0.001, 1e-6]
        report = convergence_sweep(state, ch, focus_window, ratios)
        ratios_o, errors_o = stack_convergence_sweep(state, ch, focus_window,
                                                     SIGMA, ratios)
        assert report.ratios == ratios_o
        np.testing.assert_allclose(report.errors, errors_o, rtol=0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("channel", ["scully", "kick"])
    def test_strong_limit_is_the_tagged_fraction(self, slit_state, grid,
                                                 focus_window, channel):
        """With c = 0 the estimate is T / (P - 2 (J - T)), the tagged
        fraction sum |t|^2 / sum (|u|^2 + |t|^2) of the stacks (worst
        difference seen 2.1e-14)."""
        ch = (scully_wwm(grid) if channel == "scully"
              else classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid))
        shift = 100.0 * SIGMA
        assert _overlap(shift / SIGMA)[0] == 0.0
        est = estimate_wvp(run_tagged(slit_state, ch, focus_window),
                           shift / SIGMA)
        stacks = stack_run_tagged(slit_state, ch, focus_window, SIGMA, shift)
        _, tagged_w, squares = _row_sums(stacks.untagged, stacks.tagged)
        ok = squares > 1e-6 * squares.max()
        np.testing.assert_array_equal(np.isfinite(est), ok)
        np.testing.assert_allclose(est[ok],
                                   tagged_w[ok] / squares[ok],
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("command, rows", [
    ("wvp", 7), ("eraser", 10), ("pointer", 6), ("sweep", 6)])
def test_one_projection_and_one_channel_pass(monkeypatch, command, rows):
    """FFT rows per command at 1,024 points on the paper scenario: every
    command takes one window projection of the H row (two rows) and one
    channel pass (two rows per state); wvp adds the input state's H row
    in momentum, and eraser a pass per +-45 setting (one row per
    state)."""
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
