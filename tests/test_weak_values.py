"""Weak-value engine: window algebra, joint/conditional curves, transfer
assembly.  Dense-matrix oracles from tests/oracles.py back every
nontrivial identity on a 256-point grid; the per-window loop oracle
backs the correlation-form transfer assembly at 256 and 4096 points.
"""

import warnings

import numpy as np
import pytest

from weakslit import (ConfigError, CoverageWarning, GridMismatchError,
                      MomentumWindow, ResolutionError, SimGrid, SlitGeometry,
                      TransferDistribution, TransverseState,
                      WindowRangeError, build_double_slit, classical_kick, conditional_wvp,
                      eraser_curves, identity_channel, joint_wvp,
                      momentum_distribution, scully_wwm,
                      transfer_distribution, window_mask)
from weakslit.weak_values import ERASERS, _tiling_weights, _window_project

from conftest import WINDOW_WIDTH, run_python
from oracles import (dense_conditional, dense_joint, dense_transfer,
                     kick_rect_density, loop_conditional_wvp, loop_transfer)


def full_tiling(grid, width):
    n_cov = int(np.ceil(grid.p[-1] / width)) + 1
    return range(-n_cov, n_cov + 1)


class TestWindowAlgebra:
    def test_center_and_bounds(self):
        win = MomentumWindow(-3, 0.4)
        assert win.center == pytest.approx(-1.2)
        lo, hi = win.bounds
        assert (lo, hi) == (pytest.approx(-1.4), pytest.approx(-1.0))

    def test_masks_partition_the_axis(self, grid):
        """Half-open windows tile momentum space with no seams."""
        for width in (WINDOW_WIDTH, 16.0 * grid.dp):
            total = sum(window_mask(grid, MomentumWindow(n, width))
                        for n in full_tiling(grid, width))
            np.testing.assert_allclose(total, 1.0, atol=1e-14)

    def test_boundary_samples_take_half_weight(self, grid):
        # width 16 dp puts both edges exactly on momentum samples
        mask = window_mask(grid, MomentumWindow(0, 16.0 * grid.dp))
        k0 = grid.n_points // 2
        assert mask[k0 - 8] == 0.5
        assert mask[k0 + 8] == 0.5
        np.testing.assert_array_equal(mask[k0 - 7:k0 + 8], 1.0)

    def test_project_keeps_window_mass_only(self, slit_state, focus_window):
        proj = _window_project(slit_state, focus_window)
        mask = window_mask(slit_state.grid, focus_window)
        h_t, _ = slit_state.momentum_amplitudes()
        expected = float(np.sum(mask * np.abs(h_t) ** 2) * slit_state.grid.dp)
        norm_sq = np.sum(np.abs(proj.amps) ** 2) * proj.grid.dx
        assert norm_sq == pytest.approx(expected, rel=1e-12)
        assert norm_sq < 1.0

    def test_project_is_idempotent_off_lattice(self, slit_state, focus_window):
        once = _window_project(slit_state, focus_window)
        twice = _window_project(once, focus_window)
        np.testing.assert_allclose(twice.amps, once.amps, atol=1e-13)

    def test_project_rejects_unresolvable_window(self, slit_state, grid):
        with pytest.raises(ResolutionError):
            _window_project(slit_state, MomentumWindow(0, 1.9 * grid.dp))

    @pytest.mark.parametrize("bins", [None, 14.0])
    def test_tiling_weights_reproduce_window_mask(self, grid, bins):
        """The one-pass window assignment equals window_mask bit for bit.

        14 dp puts every window edge on a sample, so the half-weight
        boundary rule is exercised too.
        """
        width = WINDOW_WIDTH if bins is None else bins * grid.dp
        indices = tuple(full_tiling(grid, width))
        samples, windows, weights = _tiling_weights(grid, width, indices)
        for idx in indices:
            sel = windows == idx
            assert np.unique(samples[sel]).size == np.count_nonzero(sel)
            mask = np.zeros(grid.n_points)
            mask[samples[sel]] = weights[sel]
            assert np.array_equal(
                mask, window_mask(grid, MomentumWindow(idx, width)))
        assert np.any(weights == 0.5) == (bins is not None)

    def test_tiling_weights_count_repeated_windows(self, grid):
        samples, windows, weights = _tiling_weights(
            grid, WINDOW_WIDTH, (0, 0, 3))
        assert set(windows.tolist()) == {0, 3}
        for idx, times in ((0, 2.0), (3, 1.0)):
            sel = windows == idx
            mask = window_mask(grid, MomentumWindow(idx, WINDOW_WIDTH))
            np.testing.assert_array_equal(weights[sel],
                                          times * mask[samples[sel]])


class TestJointAndConditional:
    def test_identity_joint_closed_form(self, slit_state, grid, focus_window):
        """With no channel, J is just the masked momentum density."""
        j = joint_wvp(slit_state, identity_channel(grid), focus_window)
        h_t, _ = slit_state.momentum_amplitudes()
        expected = window_mask(grid, focus_window) * np.abs(h_t) ** 2
        np.testing.assert_allclose(j, expected, atol=1e-12 * expected.max())

    def test_identity_conditional_is_indicator(self, slit_state, grid,
                                               focus_window):
        curve = conditional_wvp(slit_state, identity_channel(grid),
                                focus_window)
        indicator = window_mask(grid, focus_window)
        ok = np.isfinite(curve.values)
        dev = np.abs(curve.values - indicator)[ok]
        assert np.max(dev) < 1e-10
        assert np.all(np.isnan(curve.values[~ok]))

    def test_joints_sum_to_post_selection_density(self, slit_state, wwm, grid):
        """Sum rule: summing J over a complete tiling recovers P(p_f)."""
        width = 4.0 * 2.0 * np.pi
        windows = [MomentumWindow(n, width) for n in full_tiling(grid, width)]
        # the outermost windows hold no sample: they add nothing to the
        # sum, and joint_wvp refuses them
        total = sum(joint_wvp(slit_state, wwm, w) for w in windows
                    if window_mask(grid, w).any())
        total /= float(np.sum(total) * grid.dp)
        dens = momentum_distribution(slit_state, wwm)
        np.testing.assert_allclose(total, dens, atol=1e-10 * dens.max())

    def test_eraser_label_is_validated(self, slit_state, wwm, focus_window):
        with pytest.raises(ConfigError):
            joint_wvp(slit_state, wwm, focus_window, eraser="circular")

    def test_channel_grid_must_match_state(self, slit_state, focus_window):
        other = scully_wwm(SimGrid(1024, 32.0))
        with pytest.raises(GridMismatchError):
            joint_wvp(slit_state, other, focus_window)

    def test_eraser_partition_is_pointwise(self, slit_state, wwm,
                                           focus_window):
        j_none = joint_wvp(slit_state, wwm, focus_window, "none")
        j_plus = joint_wvp(slit_state, wwm, focus_window, "plus45")
        j_minus = joint_wvp(slit_state, wwm, focus_window, "minus45")
        np.testing.assert_allclose(j_plus + j_minus, j_none, atol=1e-13)


class TestEraserCurves:
    """One projection and one set of sector sums for every eraser
    setting equals one call per setting, bit for bit."""

    @pytest.mark.parametrize("channel", ["scully", "kick", "identity"])
    def test_equals_one_call_per_setting(self, slit_state, smooth_state,
                                         grid, focus_window, channel):
        ch = {"scully": scully_wwm(grid),
              "kick": classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid),
              "identity": identity_channel(grid)}[channel]
        for state in (slit_state, smooth_state):
            curves = eraser_curves(state, ch, focus_window)
            assert tuple(curves) == ERASERS
            for eraser, curve in curves.items():
                values, defined, joint = loop_conditional_wvp(
                    state, ch, focus_window, eraser)
                np.testing.assert_array_equal(curve.values, values)
                np.testing.assert_array_equal(np.isfinite(curve.values),
                                              defined)
                np.testing.assert_array_equal(curve.joint, joint)
                single = conditional_wvp(state, ch, focus_window, eraser)
                np.testing.assert_array_equal(single.values, values)
                np.testing.assert_array_equal(
                    joint_wvp(state, ch, focus_window, eraser), joint)

    def test_subset_and_validation(self, slit_state, wwm, focus_window):
        curves = eraser_curves(slit_state, wwm, focus_window, ["minus45"])
        assert list(curves) == ["minus45"]
        # a repeated setting is built once, from sums still alive
        curves = eraser_curves(slit_state, wwm, focus_window,
                               ["plus45", "none", "plus45"])
        assert list(curves) == ["plus45", "none"]
        np.testing.assert_array_equal(
            curves["plus45"].joint,
            conditional_wvp(slit_state, wwm, focus_window, "plus45").joint)
        with pytest.raises(ConfigError):
            eraser_curves(slit_state, wwm, focus_window, ["none", "circular"])


@pytest.fixture(scope="module")
def dense_state(geom, dense_grid):
    return build_double_slit(geom, dense_grid)


class TestDenseOracle:
    """The FFT pipeline against explicit transform matrices, N = 256."""

    @pytest.mark.parametrize("eraser", ["none", "plus45", "minus45"])
    def test_joint_scully(self, dense_state, dense_grid, eraser):
        ch = scully_wwm(dense_grid)
        win = MomentumWindow(-1, WINDOW_WIDTH)
        fast = joint_wvp(dense_state, ch, win, eraser)
        slow = dense_joint(dense_state, ch, win, eraser)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_joint_identity_and_kick(self, dense_state, dense_grid):
        win = MomentumWindow(1, WINDOW_WIDTH)
        for ch in (identity_channel(dense_grid),
                   classical_kick([(3.0 * dense_grid.dp, 0.7),
                                   (-2.0 * dense_grid.dp, 0.3)],
                                  dense_grid)):
            fast = joint_wvp(dense_state, ch, win)
            slow = dense_joint(dense_state, ch, win)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_conditional_scully(self, dense_state, dense_grid):
        ch = scully_wwm(dense_grid)
        win = MomentumWindow(0, WINDOW_WIDTH)
        curve = conditional_wvp(dense_state, ch, win)
        values, defined = dense_conditional(dense_state, ch, win)
        np.testing.assert_array_equal(np.isfinite(curve.values), defined)
        np.testing.assert_allclose(curve.values[defined], values[defined],
                                   atol=1e-9)

    def test_transfer_scully(self, dense_state, dense_grid):
        ch = scully_wwm(dense_grid)
        indices = full_tiling(dense_grid, WINDOW_WIDTH)
        dist = transfer_distribution(dense_state, ch, WINDOW_WIDTH, indices)
        _, slow, coverage = dense_transfer(dense_state, ch, WINDOW_WIDTH,
                                           indices)
        assert dist.coverage == pytest.approx(coverage, rel=1e-12)
        np.testing.assert_allclose(dist.density, slow,
                                   atol=1e-10 * np.max(np.abs(slow)))


class TestEraserDistributions:
    def test_plus45_restores_the_input_fringes(self, slit_state, wwm):
        erased = momentum_distribution(slit_state, wwm, "plus45")
        original = momentum_distribution(slit_state)
        np.testing.assert_allclose(erased, original,
                                   atol=1e-12 * original.max())

    def test_minus45_forms_the_antifringe(self, slit_state, wwm, grid):
        anti = momentum_distribution(slit_state, wwm, "minus45")
        k0 = grid.n_points // 2
        assert anti[k0] < 1e-8 * anti.max()
        k_half = int(np.argmin(np.abs(grid.p - np.pi)))
        assert anti[k_half] > 0.5 * anti.max()

    def test_marker_destroys_fringes(self, slit_state, wwm, grid):
        marked = momentum_distribution(slit_state, wwm)
        plain = momentum_distribution(slit_state)
        k_half = int(np.argmin(np.abs(grid.p - np.pi)))
        k0 = grid.n_points // 2
        assert plain[k_half] < 1e-6 * plain[k0]
        assert marked[k_half] > 0.1 * marked[k0]

    def test_distributions_are_normalised(self, slit_state, wwm, grid):
        for dens in (momentum_distribution(slit_state),
                     momentum_distribution(slit_state, wwm),
                     momentum_distribution(slit_state, wwm, "minus45")):
            assert float(np.sum(dens) * grid.dp) == pytest.approx(1.0,
                                                                  rel=1e-12)


class TestTransferDistribution:
    def test_identity_gives_the_window_rect(self, slit_state, grid):
        """No channel: transfer density is uniform over one window."""
        with pytest.warns(CoverageWarning):
            dist = transfer_distribution(slit_state, identity_channel(grid),
                                         WINDOW_WIDTH, range(-7, 8))
        inside = np.abs(dist.q) < 0.45 * WINDOW_WIDTH
        outside = np.abs(dist.q) > WINDOW_WIDTH / 2.0 + 2.0 * grid.dp
        np.testing.assert_allclose(dist.density[inside] * WINDOW_WIDTH, 1.0,
                                   rtol=1e-2)
        np.testing.assert_allclose(dist.density[outside], 0.0, atol=1e-14)
        assert dist.integral() == pytest.approx(1.0, abs=1e-12)
        assert dist.coverage < 0.99

    def test_kick_equals_rect_convolution(self, smooth_state, grid):
        """Classical channel: P_wv is the kick distribution (x) window rect."""
        kicks = [(20.0 * grid.dp, 0.7), (-20.0 * grid.dp, 0.3)]
        width = 15.0 * grid.dp
        dist = transfer_distribution(smooth_state, classical_kick(kicks, grid),
                                     width, full_tiling(grid, width))
        oracle = kick_rect_density(dist.q, kicks, width)
        np.testing.assert_allclose(dist.density, oracle, atol=1e-12 / width)
        assert dist.density.min() > -1e-13
        assert dist.integral() == pytest.approx(1.0, abs=1e-10)

    def test_full_tiling_covers_everything_silently(self, smooth_state, wwm,
                                                    grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = transfer_distribution(smooth_state, wwm, WINDOW_WIDTH)
        assert dist.coverage == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unresolvable_width(self, slit_state, wwm, grid):
        with pytest.raises(ResolutionError):
            transfer_distribution(slit_state, wwm, 1.5 * grid.dp)

    @pytest.mark.parametrize("indices", [[10 ** 6], []],
                             ids=["off-grid", "empty"])
    def test_rejects_a_tiling_that_holds_no_sample(self, indices):
        """Windows that hold no momentum sample are refused, not summed
        to a zero coverage and an all-NaN density."""
        grid = SimGrid(1024, 64.0)
        state = build_double_slit(SlitGeometry(width=0.5), grid)
        with pytest.raises(WindowRangeError, match="holds a sample"):
            transfer_distribution(state, scully_wwm(grid), WINDOW_WIDTH,
                                  indices)

    def test_mass_outside_gaussian_closed_form(self):
        from scipy.special import erfc
        q = np.linspace(-40.0, 40.0, 8001)
        sigma = 2.0
        dens = np.exp(-q ** 2 / (2.0 * sigma ** 2)) / (sigma
                                                       * np.sqrt(2.0 * np.pi))
        dist = TransferDistribution(q, dens, 1.0, (0,), 1.0, "none")
        # the statistic counts whole samples beyond the threshold, so it
        # undershoots the continuum tail by O(density(a) * dq)
        for a in (1.0, 3.0, 5.0):
            expected = erfc(a / (sigma * np.sqrt(2.0)))
            assert dist.mass_outside(a) == pytest.approx(expected, rel=2e-2)
        assert dist.mass_outside(45.0) == 0.0

    def test_transfer_command_leaves_numpy_ma_out(self, tmp_path):
        """Finding the distinct window offsets imports no numpy.ma, which
        np.unique loads to check for a mask."""
        argv = ["transfer", "--out", str(tmp_path / "t"),
                "--set", "grid.n_points=1024"]
        code = ("import sys; from weakslit import cli; "
                f"assert cli.main({argv!r}) == 0; "
                "print('numpy.ma' in sys.modules)")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


_INDEX_SETS = {
    "fifteen": lambda grid: range(-7, 8),
    "full": lambda grid: full_tiling(grid, WINDOW_WIDTH),
    # repeated, unordered, gapped, and (at 256 points) off the grid
    "sparse": lambda grid: [0, 0, 3, -2, 40],
}


def _equivalence_channel(kind, grid):
    if kind == "identity":
        return identity_channel(grid)
    if kind == "scully":
        return scully_wwm(grid)
    # one kick on the momentum lattice, one between samples, whose
    # momentum-space kernel is a Dirichlet kernel rather than a delta
    return classical_kick([(3.0 * grid.dp, 0.6), (-2.37 * grid.dp, 0.4)],
                          grid)


class TestCorrelationForm:
    """transfer_distribution against the per-window loop it replaced.

    Bound: max |density difference| <= 1e-13 * max |density|, and the
    coverage agrees to 1e-14; the two differ only in summation order.
    """

    @pytest.mark.parametrize("n_points", [256, 4096])
    @pytest.mark.parametrize("edge", ["sharp", "gaussian_smoothed"])
    @pytest.mark.parametrize("kind", ["identity", "scully", "kick"])
    @pytest.mark.parametrize("eraser", ERASERS)
    @pytest.mark.parametrize("index_set", sorted(_INDEX_SETS))
    def test_matches_the_window_loop(self, n_points, edge, kind, eraser,
                                     index_set):
        grid = SimGrid(n_points, 16.0 if n_points == 256 else 64.0)
        geom = SlitGeometry(width=0.5, edge_profile=edge)
        state = build_double_slit(geom, grid)
        ch = _equivalence_channel(kind, grid)
        indices = _INDEX_SETS[index_set](grid)
        with warnings.catch_warnings(record=True) as fast_warned:
            warnings.simplefilter("always")
            fast = transfer_distribution(state, ch, WINDOW_WIDTH, indices,
                                         eraser)
        with warnings.catch_warnings(record=True) as slow_warned:
            warnings.simplefilter("always")
            slow = loop_transfer(state, ch, WINDOW_WIDTH, indices, eraser)
        assert [w.category for w in fast_warned] \
            == [w.category for w in slow_warned]
        assert fast.windows == slow.windows
        np.testing.assert_array_equal(fast.q, slow.q)
        assert abs(fast.coverage - slow.coverage) <= 1e-14
        scale = np.max(np.abs(slow.density))
        assert np.max(np.abs(fast.density - slow.density)) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", ["scully", "kick"])
    @pytest.mark.parametrize("where", ["full", "low_edge", "high_edge"])
    def test_white_noise_state_at_the_grid_edges(self, dense_grid, kind,
                                                 where):
        """Both polarisations nonzero on every sample, so each lag of each
        correlation carries weight, including those next to aliasing."""
        rng = np.random.default_rng(7)
        amps = rng.normal(size=(2, 256)) + 1j * rng.normal(size=(2, 256))
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * dense_grid.dx)
        state = TransverseState(dense_grid, amps)
        ch = _equivalence_channel(kind, dense_grid)
        tiling = full_tiling(dense_grid, WINDOW_WIDTH)
        indices = {"full": tiling, "low_edge": tiling[:4],
                   "high_edge": tiling[-4:]}[where]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            fast = transfer_distribution(state, ch, WINDOW_WIDTH, indices)
            slow = loop_transfer(state, ch, WINDOW_WIDTH, indices)
        assert abs(fast.coverage - slow.coverage) <= 1e-14
        scale = np.max(np.abs(slow.density))
        assert np.max(np.abs(fast.density - slow.density)) <= 1e-13 * scale

    @pytest.mark.parametrize("n_points", [256, 4096])
    @pytest.mark.parametrize("edge", ["sharp", "gaussian_smoothed"])
    @pytest.mark.parametrize("kind", ["identity", "scully", "kick"])
    @pytest.mark.parametrize("eraser", ERASERS)
    @pytest.mark.parametrize("index_set", ["fifteen", "full"])
    def test_one_row_path_matches_the_two_row_path(self, n_points, edge,
                                                   kind, eraser, index_set):
        """An H-polarised input takes the one-row path, its mirror in V
        the two-row path, and both give the same bits.

        Every channel's K = u + v S commutes with the swap S, and the
        erasers only flip the sign of the projected output, so the
        mirror's P_wv equals the original's.
        """
        grid = SimGrid(n_points, 16.0 if n_points == 256 else 64.0)
        state = build_double_slit(SlitGeometry(0.5, edge_profile=edge), grid)
        mirror = TransverseState(grid, state.amps[::-1].copy())
        ch = _equivalence_channel(kind, grid)
        indices = _INDEX_SETS[index_set](grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            one = transfer_distribution(state, ch, WINDOW_WIDTH, indices,
                                        eraser)
            two = transfer_distribution(mirror, ch, WINDOW_WIDTH, indices,
                                        eraser)
        assert one.coverage == two.coverage
        assert np.array_equal(one.density, two.density)
