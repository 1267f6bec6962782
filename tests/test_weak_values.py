"""Weak-value engine: window algebra, joint/conditional curves, transfer
assembly.  Dense-matrix oracles from tests/oracles.py back every
nontrivial identity on a 256-point grid; the per-window loop oracle
backs the correlation-form transfer assembly at 256 and 4096 points.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from weakslit import (ConfigError, CoverageWarning, MeasurementChannel,
                      NumericError, SimGrid, TransferDistribution,
                      TransverseState, build_double_slit, classical_kick,
                      conditional_wvp,
                      erase, eraser_curves, identity_channel,
                      momentum_distribution, scully_wwm,
                      transfer_distribution, window_mask)
from weakslit.channels import ERASERS
from weakslit.config import PRESETS, from_dict
from weakslit.runner import run
from weakslit.weak_values import (_curve_sums, _bin_edges, _rows,
                                  _tiling_weights, _window_project, quotient)

from conftest import (EDGE_SCALES, SLIT_WIDTH, WINDOW_WIDTH, partial_marker,
                      run_python)
from oracles import (array_density, array_joint, array_tiling_weights,
                     dense_conditional, dense_joint, dense_transfer,
                     kick_rect_density, loop_conditional_wvp,
                     loop_transfer, two_row_sums, two_row_transfer, two_rows)


def full_tiling(grid, width):
    n_cov = int(np.ceil(grid.p[-1] / width)) + 1
    return range(-n_cov, n_cov + 1)


class TestWindowAlgebra:
    def test_center_and_bounds(self):
        lo, hi = _bin_edges(0.4, -3)
        assert (lo + hi) / 2.0 == pytest.approx(-1.2)
        assert (lo, hi) == (pytest.approx(-1.4), pytest.approx(-1.0))

    def test_masks_partition_the_axis(self, grid):
        """Half-open windows tile momentum space with no seams."""
        for width in (WINDOW_WIDTH, 16.0 * grid.dp):
            total = sum(window_mask(grid, width, n)
                        for n in full_tiling(grid, width))
            np.testing.assert_allclose(total, 1.0, atol=1e-14)

    def test_boundary_samples_take_half_weight(self, grid):
        # width 16 dp puts both edges exactly on momentum samples
        mask = window_mask(grid, 16.0 * grid.dp, 0)
        k0 = grid.n_points // 2
        assert mask[k0 - 8] == 0.5
        assert mask[k0 + 8] == 0.5
        np.testing.assert_array_equal(mask[k0 - 7:k0 + 8], 1.0)

    def test_project_keeps_window_mass_only(self, slit_state, focus_window):
        proj = _window_project(slit_state, *focus_window)
        mask = window_mask(slit_state.grid, *focus_window)
        h_t = slit_state.momentum_field()
        expected = float(np.sum(mask * np.abs(h_t) ** 2) * slit_state.grid.dp)
        norm_sq = np.sum(np.abs(proj.field) ** 2) * proj.grid.dx
        assert norm_sq == pytest.approx(expected, rel=1e-12)
        assert norm_sq < 1.0

    def test_project_is_idempotent_off_lattice(self, slit_state, focus_window):
        once = _window_project(slit_state, *focus_window)
        twice = _window_project(once, *focus_window)
        np.testing.assert_allclose(twice.field, once.field, atol=1e-13)

    def test_project_rejects_unresolvable_window(self, slit_state, grid):
        with pytest.raises(NumericError, match="at least 2 bins"):
            _window_project(slit_state, 1.9 * grid.dp, 0)

    @pytest.mark.parametrize("width", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("call", ["transfer", "transfer_indices",
                                      "conditional"])
    def test_non_finite_width_is_unresolvable(self, slit_state, grid,
                                              width, call):
        """Refused before any arithmetic on the width: no numpy warning,
        no bare ValueError, no window-range refusal."""
        ch = identity_channel(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="must be finite"):
                if call == "conditional":
                    conditional_wvp(slit_state, ch, width, 0)
                else:
                    transfer_distribution(
                        slit_state, ch, width,
                        range(-7, 8) if call == "transfer_indices" else None)

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
                mask, window_mask(grid, width, idx))
        assert np.any(weights == 0.5) == (bins is not None)

    @pytest.mark.parametrize("n_points, x_extent",
                             [(256, 16.0), (1024, 32.0), (4096, 64.0)])
    @pytest.mark.parametrize("bins", [2.0, 2.5, 14.0, 100.0, None])
    @pytest.mark.parametrize("index_set",
                             ["full", "fifteen", "sparse", "off_grid"])
    def test_tiling_weights_equal_the_three_row_form(self, n_points,
                                                     x_extent, bins,
                                                     index_set):
        """One candidate window at a time gives the (3, n) form's three
        arrays, in the same order, byte for byte."""
        grid = SimGrid(n_points, x_extent)
        width = WINDOW_WIDTH if bins is None else bins * grid.dp
        indices = tuple({"full": full_tiling(grid, width),
                         "fifteen": range(-7, 8),
                         "sparse": (0, 0, 3, -2, 1),
                         "off_grid": (10 ** 6, -1, -(10 ** 6))}[index_set])
        for fast, slow in zip(_tiling_weights(grid, width, indices),
                              array_tiling_weights(grid, width, indices)):
            assert fast.dtype == slow.dtype
            assert fast.tobytes() == slow.tobytes()

    def test_tiling_weights_count_repeated_windows(self, grid):
        samples, windows, weights = _tiling_weights(
            grid, WINDOW_WIDTH, (0, 0, 3))
        assert set(windows.tolist()) == {0, 3}
        for idx, times in ((0, 2.0), (3, 1.0)):
            sel = windows == idx
            mask = window_mask(grid, WINDOW_WIDTH, idx)
            np.testing.assert_array_equal(weights[sel],
                                          times * mask[samples[sel]])


class TestJointAndConditional:
    def test_identity_joint_closed_form(self, slit_state, grid, focus_window):
        """With no channel, J is just the masked momentum density."""
        j = conditional_wvp(slit_state, identity_channel(grid),
                            *focus_window).joint
        h_t = slit_state.momentum_field()
        expected = window_mask(grid, *focus_window) * np.abs(h_t) ** 2
        np.testing.assert_allclose(j, expected, atol=1e-12 * expected.max())

    def test_identity_conditional_is_indicator(self, slit_state, grid,
                                               focus_window):
        curve = conditional_wvp(slit_state, identity_channel(grid),
                                *focus_window)
        indicator = window_mask(grid, *focus_window)
        ok = np.isfinite(curve.values)
        dev = np.abs(curve.values - indicator)[ok]
        assert np.max(dev) < 1e-10
        assert np.all(np.isnan(curve.values[~ok]))

    def test_joints_sum_to_post_selection_density(self, slit_state, wwm, grid):
        """Sum rule: summing J over a complete tiling recovers P(p_f)."""
        width = 4.0 * 2.0 * np.pi
        # the outermost windows hold no sample: they add nothing to the
        # sum, and conditional_wvp refuses them
        total = sum(conditional_wvp(slit_state, wwm, width, n).joint
                    for n in full_tiling(grid, width)
                    if window_mask(grid, width, n).any())
        total /= float(np.sum(total) * grid.dp)
        dens = momentum_distribution(slit_state, wwm)
        np.testing.assert_allclose(total, dens, atol=1e-10 * dens.max())

    def test_channel_grid_must_match_state(self, slit_state, focus_window):
        other = scully_wwm(SimGrid(1024, 32.0))
        with pytest.raises(NumericError, match="on a different grid"):
            conditional_wvp(slit_state, other, *focus_window)

    def test_eraser_partition_is_pointwise(self, slit_state, wwm,
                                           focus_window):
        j_none, j_plus, j_minus = (
            curve.joint for curve in eraser_curves(slit_state, wwm,
                                                   *focus_window).values())
        np.testing.assert_allclose(j_plus + j_minus, j_none, atol=1e-13)


class TestEraserCurves:
    """One projection for every eraser setting equals one call per
    setting on ``erase(ch, eraser)``, bit for bit.  Without an eraser the
    curves equal the two-row oracle's bit for bit; with a +-45 one, they
    equal the oracle's on ``erase(ch, eraser)`` bit for bit, and the
    oracle's projection of the momentum rows of ``ch`` to 1e-13 of
    max |J|."""

    @pytest.mark.parametrize("channel", ["scully", "kick", "identity"])
    def test_equals_one_call_per_setting(self, slit_state, smooth_state,
                                         grid, focus_window, channel):
        ch = {"scully": scully_wwm(grid),
              "kick": classical_kick([(0.7, 0.4), (-1.3, 0.6)], grid),
              "identity": identity_channel(grid)}[channel]
        for state in (slit_state, smooth_state):
            curves = eraser_curves(state, ch, *focus_window)
            assert tuple(curves) == ERASERS
            for eraser, curve in curves.items():
                one_row = erase(ch, eraser)
                if eraser != "none":
                    projected = loop_conditional_wvp(
                        state, ch, *focus_window, eraser)[2]
                    scale = np.max(np.abs(projected))
                    assert np.max(np.abs(curve.joint - projected)) \
                        <= 1e-13 * scale
                values, defined, joint = loop_conditional_wvp(
                    state, one_row, *focus_window)
                np.testing.assert_array_equal(curve.values, values)
                np.testing.assert_array_equal(np.isfinite(curve.values),
                                              defined)
                np.testing.assert_array_equal(curve.joint, joint)
                single = conditional_wvp(state, one_row, *focus_window)
                np.testing.assert_array_equal(single.values, values)
                np.testing.assert_array_equal(single.joint, joint)

    def test_subset_and_validation(self, slit_state, wwm, focus_window):
        curves = eraser_curves(slit_state, wwm, *focus_window, ["minus45"])
        assert list(curves) == ["minus45"]
        # a repeated setting is built once, from sums still alive
        curves = eraser_curves(slit_state, wwm, *focus_window,
                               ["plus45", "none", "plus45"])
        assert list(curves) == ["plus45", "none"]
        np.testing.assert_array_equal(
            curves["plus45"].joint,
            conditional_wvp(slit_state, erase(wwm, "plus45"),
                            *focus_window).joint)
        with pytest.raises(ConfigError, match="got 'circular'"):
            eraser_curves(slit_state, wwm, *focus_window,
                          ["none", "circular"])


class TestRowBuffers:
    """J, P and T, added up one (chi row, psi row) pair at a time in
    4,096-sample slices, equal the whole-stack expressions they replaced
    bit for bit: :func:`array_joint` and :func:`array_density` of the
    same momentum rows, each row its own (1, n) stack, in order.  One or
    two rows per sector (identity, marker, each +-45 ``erase`` of them)
    and one sector or two (two kicks).  The two-row curve tests of
    :class:`TestHRowPath` check the (2, n) form of each sector."""

    @staticmethod
    def _check(grid, psi, chi, ch):
        def stacks(field):
            return [grid.to_momentum(field * m)[np.newaxis]
                    for u, v in ch.sectors for m in (u, v) if m is not None]
        ce, pe = stacks(chi), stacks(psi)
        j, dens, strong = _curve_sums(grid, psi, chi.copy(), _rows(ch), True,
                                      True)
        assert np.array_equal(j, array_joint(ce, pe))
        assert np.array_equal(dens, array_density(pe))
        assert np.array_equal(strong, array_density(ce))

    @pytest.mark.parametrize("kind", ["identity", "scully", "kick"])
    @pytest.mark.parametrize("eraser", ERASERS)
    def test_channel_sums(self, smooth_state, grid, focus_window, kind,
                          eraser):
        self._check(grid, smooth_state.field,
                    _window_project(smooth_state, *focus_window).field,
                    erase(_equivalence_channel(kind, grid), eraser))

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("sectors", [1, 2])
    def test_white_noise(self, rows, sectors):
        """White-noise fields and multipliers, 8,192 samples: two slices."""
        rng = np.random.default_rng(11)
        grid = SimGrid(8192, 64.0)

        def noise():
            return rng.normal(size=8192) + 1j * rng.normal(size=8192)

        ch = MeasurementChannel("noise", tuple(
            (noise(), noise() if rows == 2 else None)
            for _ in range(sectors)), grid)
        self._check(grid, noise(), noise(), ch)


class TestHRowPath:
    """A state is worked from its H field alone; its curves and input
    density equal, byte for byte, the ones built from the two-row sector
    sums of tests/oracles.py, with a zero V row, and that module's J and
    P; a +-45 setting equals them on ``erase(ch, eraser)``, and their
    projection of the momentum rows of ``ch`` to 1e-13.  Bytes,
    not np.array_equal, so that -0.0 and +0.0, which %.12g prints apart,
    count as different.  T is compared on ``conditional_wvp``'s curve,
    the one that builds it; every curve of ``eraser_curves`` has none."""

    @staticmethod
    def _two_row_curve(grid, state, window, ch):
        ce = two_row_sums(grid, two_rows(
            _window_project(state, *window).field), ch)
        pe = two_row_sums(grid, two_rows(state.field), ch)
        assert all(len(total) == 2 for total in ce + pe)
        j, dens = array_joint(ce, pe), array_density(pe)
        return quotient(j, dens), j, dens, array_density(ce)

    @pytest.mark.parametrize("n_points", [256, 4096])
    @pytest.mark.parametrize("source", ["sharp", "gaussian_smoothed", "noise"])
    @pytest.mark.parametrize("kind", ["identity", "scully", "kick"])
    def test_curves_match_the_two_row_path(self, n_points, source, kind):
        """Slits of either edge profile, and a white-noise field."""
        grid = SimGrid(n_points, 16.0 if n_points == 256 else 64.0)
        if source == "noise":
            rng = np.random.default_rng(5)
            state = TransverseState(grid, rng.normal(size=n_points)
                                    + 1j * rng.normal(size=n_points))
        else:
            state = build_double_slit(SLIT_WIDTH, grid, EDGE_SCALES[source])
        ch = _equivalence_channel(kind, grid)
        window = WINDOW_WIDTH, -1
        curves = eraser_curves(state, ch, *window)
        for eraser in ERASERS:
            expected = [a.tobytes() for a in self._two_row_curve(
                grid, state, window, erase(ch, eraser))]
            curve = curves[eraser]
            assert curve.strong is None
            got = (curve.values, curve.joint, curve.density)
            assert [a.tobytes() for a in got] == expected[:3]
            curve = conditional_wvp(state, erase(ch, eraser), *window)
            got = (curve.values, curve.joint, curve.density, curve.strong)
            assert [a.tobytes() for a in got] == expected

    @pytest.mark.parametrize("fixture", ["slit_state", "smooth_state"])
    @pytest.mark.parametrize("eraser", ERASERS)
    def test_input_density_matches_the_two_row_path(self, request, fixture,
                                                    eraser):
        state = request.getfixturevalue(fixture)
        amps = two_rows(state.field)
        ch = identity_channel(state.grid)
        got = momentum_distribution(state, erase(ch, eraser))
        one_row = array_density(two_row_sums(state.grid, amps,
                                             erase(ch, eraser)))
        one_row = one_row / (np.sum(one_row) * state.grid.dp)
        assert got.tobytes() == one_row.tobytes()
        projected = array_density(two_row_sums(state.grid, amps, ch, eraser))
        projected = projected / (np.sum(projected) * state.grid.dp)
        assert np.max(np.abs(got - projected)) <= 1e-13 * projected.max()


def _traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc over ``call()``, above what was
    allocated before it; numpy reports each array's data to tracemalloc.
    A first, untraced call fills any cache."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestPeakMemory:
    """Peak array memory of the single-window curves at 2^16 points,
    where one complex row is 1 MiB.  The results themselves are three
    float rows per setting (values, J and P), and T for
    ``conditional_wvp``.  Each setting sums its own output rows one
    (chi row, psi row) pair at a time, erasing one sector at a time and
    releasing each +-45 multiplier once both of its products are built,
    and builds every J and P before any values row; the last setting
    builds its last window-side row in the projected field's buffer.
    The marker's three settings peak at 5.6 MiB, ``conditional_wvp`` at
    5.0 MiB, and the two kicks' three settings at 7.0 MiB (10.5 MiB
    when every sector's rows of both states were kept, so the peak grew
    with the sector count); the two-kick bound is that figure plus 0.5
    MiB.  Keeping the previous pair's rows while the next pair was built
    peaked at 6.0 MiB for ``conditional_wvp``; keeping each +-45
    multiplier through its rows' transforms, at 6.0 MiB for the marker
    and 7.5 MiB for two kicks; erasing the whole two-kick channel at
    once, so that both sectors' multipliers coexist, at 8.5 MiB.
    The ``eraser_curves`` bounds also guard that its curves carry no
    strong density T, which only the pointer reads.

    And of the paper preset's transfer assembly at 2^14 points, where
    one complex row is 256 KiB.  The 15-window bound guards the build
    order of each sector: each output row's padded spectrum first,
    releasing the row, then its kernels, transformed in place; and the
    release of the full momentum field once the tiled span is copied
    out.  The full-tiling bound guards the combine of each pass in
    4,096-row slices, with no n-length index, gather or product row.
    Kernels built beside the spectrum, the field kept and n-length
    combines peaked at 2.54 MiB for 15 windows and 3.46 MiB for the full
    tiling; the bounded forms peak at 1.82 and 3.14 MiB.  The -45
    eraser's full-tiling bound guards its one-row form, one spectrum and
    one kernel per sector, which peaks at 2.64 MiB: projecting the
    two-row spectrum in place peaked at 2.76 MiB, and a projected copy
    of it per kernel at 3.27 MiB."""

    @pytest.fixture(scope="class")
    def large(self):
        config = from_dict(dict(PRESETS["paper"], grid={"n_points": 2 ** 16}))
        return (config.state, config.channel, config.window_width,
                config.focus_index)

    @pytest.fixture(scope="class")
    def paper(self):
        return from_dict(dict(PRESETS["paper"], grid={"n_points": 2 ** 14}))

    @pytest.mark.parametrize("tiling, mib", [
        ("fifteen", 2.0), ("full", 3.3), ("full-minus45", 2.9)])
    def test_transfer_distribution(self, paper, tiling, mib):
        width = paper.window_width
        tiling, _, eraser = tiling.partition("-")
        indices = {"fifteen": paper.indices,
                   "full": full_tiling(paper.grid, width)}[tiling]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            peak = _traced_peak(lambda: transfer_distribution(
                paper.state, erase(paper.channel, eraser or "none"), width,
                indices))
        assert peak <= mib * 2 ** 20

    def test_eraser_curves(self, large):
        peak = _traced_peak(lambda: eraser_curves(*large))
        assert peak <= 6.4 * 2 ** 20

    def test_eraser_curves_two_kicks(self, large):
        state, _, width, index = large
        ch = classical_kick([(0.7, 0.4), (-1.3, 0.6)], state.grid)
        peak = _traced_peak(lambda: eraser_curves(state, ch, width, index))
        assert peak <= 7.5 * 2 ** 20

    def test_conditional_wvp(self, large):
        peak = _traced_peak(lambda: conditional_wvp(*large))
        assert peak <= 6.0 * 2 ** 20


@pytest.fixture(scope="module")
def dense_state(dense_grid):
    return build_double_slit(SLIT_WIDTH, dense_grid)


class TestDenseOracle:
    """The FFT pipeline against explicit transform matrices, N = 256."""

    @pytest.mark.parametrize("eraser", ["none", "plus45", "minus45"])
    def test_joint_scully(self, dense_state, dense_grid, eraser):
        ch = scully_wwm(dense_grid)
        win = WINDOW_WIDTH, -1
        fast = conditional_wvp(dense_state, erase(ch, eraser), *win).joint
        slow = dense_joint(dense_state, ch, *win, eraser)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_joint_identity_and_kick(self, dense_state, dense_grid):
        win = WINDOW_WIDTH, 1
        for ch in (identity_channel(dense_grid),
                   classical_kick([(3.0 * dense_grid.dp, 0.7),
                                   (-2.0 * dense_grid.dp, 0.3)],
                                  dense_grid)):
            fast = conditional_wvp(dense_state, ch, *win).joint
            slow = dense_joint(dense_state, ch, *win)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_conditional_scully(self, dense_state, dense_grid):
        ch = scully_wwm(dense_grid)
        win = WINDOW_WIDTH, 0
        curve = conditional_wvp(dense_state, ch, *win)
        values, defined = dense_conditional(dense_state, ch, *win)
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


class TestPartialMarker:
    """The x-space eraser e(K h) = ((u +- v)/sqrt(2)) h for a complex
    (u, v), against the dense oracles, which project the momentum rows
    (H +- V)/sqrt(2) instead; N = 256, the bounds of
    :class:`TestDenseOracle`."""

    @pytest.mark.parametrize("theta", [0.3, 0.9, np.pi / 2])
    def test_eraser_curves(self, dense_state, dense_grid, theta):
        ch = partial_marker(dense_grid, theta)
        win = WINDOW_WIDTH, -1
        curves = eraser_curves(dense_state, ch, *win)
        for eraser, curve in curves.items():
            np.testing.assert_allclose(
                curve.joint, dense_joint(dense_state, ch, *win, eraser),
                atol=1e-12)
            values, defined = dense_conditional(dense_state, ch, *win, eraser)
            np.testing.assert_array_equal(np.isfinite(curve.values), defined)
            np.testing.assert_allclose(curve.values[defined],
                                       values[defined], atol=1e-9)

    @pytest.mark.parametrize("theta", [0.3, 0.9, np.pi / 2])
    @pytest.mark.parametrize("eraser", ERASERS)
    @pytest.mark.parametrize("tiling", ["fifteen", "full"])
    def test_transfer(self, dense_state, dense_grid, theta, eraser, tiling):
        ch = partial_marker(dense_grid, theta)
        indices = _INDEX_SETS[tiling](dense_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            dist = transfer_distribution(dense_state, erase(ch, eraser),
                                         WINDOW_WIDTH, indices)
        _, slow, coverage = dense_transfer(dense_state, ch, WINDOW_WIDTH,
                                           indices, eraser)
        assert dist.coverage == pytest.approx(coverage, rel=1e-12)
        np.testing.assert_allclose(dist.density, slow,
                                   atol=1e-10 * np.max(np.abs(slow)))


class TestEraserDistributions:
    def test_plus45_restores_the_input_fringes(self, slit_state, wwm):
        erased = momentum_distribution(slit_state, erase(wwm, "plus45"))
        original = momentum_distribution(slit_state)
        np.testing.assert_allclose(erased, original,
                                   atol=1e-12 * original.max())

    def test_minus45_forms_the_antifringe(self, slit_state, wwm, grid):
        anti = momentum_distribution(slit_state, erase(wwm, "minus45"))
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
                     momentum_distribution(slit_state,
                                           erase(wwm, "minus45"))):
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
        with pytest.raises(NumericError, match="at least 2 bins"):
            transfer_distribution(slit_state, wwm, 1.5 * grid.dp)

    @pytest.mark.parametrize("indices", [[10 ** 6], []],
                             ids=["off-grid", "empty"])
    def test_rejects_a_tiling_that_holds_no_sample(self, indices):
        """Windows that hold no momentum sample are refused, not summed
        to a zero coverage and an all-NaN density."""
        grid = SimGrid(1024, 64.0)
        state = build_double_slit(SLIT_WIDTH, grid)
        with pytest.raises(NumericError, match="holds a sample"):
            transfer_distribution(state, scully_wwm(grid), WINDOW_WIDTH,
                                  indices)

    def test_a_window_off_the_grid_adds_nothing(self):
        """A tiling that also names a window holding no sample is kept:
        the density and coverage are those of the other windows alone."""
        grid = SimGrid(1024, 64.0)
        state = build_double_slit(SLIT_WIDTH, grid)
        ch = scully_wwm(grid)
        with pytest.warns(CoverageWarning):
            both = transfer_distribution(state, ch, WINDOW_WIDTH, [0, 10 ** 6])
        with pytest.warns(CoverageWarning):
            alone = transfer_distribution(state, ch, WINDOW_WIDTH, [0])
        assert both.coverage == alone.coverage
        np.testing.assert_array_equal(both.density, alone.density)

    def test_mass_outside_gaussian_closed_form(self):
        from scipy.special import erfc
        q = np.linspace(-40.0, 40.0, 8001)
        sigma = 2.0
        dens = np.exp(-q ** 2 / (2.0 * sigma ** 2)) / (sigma
                                                       * np.sqrt(2.0 * np.pi))
        dist = TransferDistribution(q, dens, (0,), 1.0, 0.0)
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


class TestRoundoffFloor:
    def test_bounds_the_paths_disagreement_at_near_zero_coverage(self):
        """One 2-bin window at the far edge of a smoothed slit's spectrum
        holds 4e-36 of the mass: the two paths' densities are
        round-off, and the floor covers their disagreement."""
        grid = SimGrid(512, 8.0)
        state = build_double_slit(0.5, grid, 0.08)
        ch = identity_channel(grid)
        args = (2.0 * grid.dp, [-127])
        with pytest.warns(CoverageWarning):
            fast = transfer_distribution(state, erase(ch, "plus45"), *args)
        with pytest.warns(CoverageWarning):
            slow = loop_transfer(state, ch, *args, "plus45")
        peak = np.max(np.abs(state.momentum_field()) ** 2)
        assert fast.roundoff_floor == pytest.approx(
            16.0 * np.finfo(float).eps * np.sqrt(peak / fast.coverage),
            rel=1e-12)
        assert np.max(np.abs(fast.density - slow.density)) \
            <= fast.roundoff_floor

    def test_is_ulps_of_a_tiling_that_holds_the_mass(self, smooth_state,
                                                     wwm):
        dist = transfer_distribution(smooth_state, wwm, WINDOW_WIDTH)
        assert 0.0 < dist.roundoff_floor < 1e-13 * np.max(dist.density)

    @pytest.mark.parametrize("command", ["transfer", "variance"])
    def test_summaries_report_it(self, command):
        config = from_dict(dict(PRESETS["paper"], grid={"n_points": 1024}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            summary = run(config, command).summary
            dist = transfer_distribution(
                config.state, erase(config.channel, config.eraser),
                config.window_width, config.indices)
        assert summary["roundoff_floor"] == dist.roundoff_floor


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
        state = build_double_slit(SLIT_WIDTH, grid, EDGE_SCALES[edge])
        ch = _equivalence_channel(kind, grid)
        indices = _INDEX_SETS[index_set](grid)
        with warnings.catch_warnings(record=True) as fast_warned:
            warnings.simplefilter("always")
            fast = transfer_distribution(state, erase(ch, eraser),
                                         WINDOW_WIDTH, indices)
        with warnings.catch_warnings(record=True) as slow_warned:
            warnings.simplefilter("always")
            slow = loop_transfer(state, ch, WINDOW_WIDTH, indices, eraser)
        assert [w.category for w in fast_warned] \
            == [w.category for w in slow_warned]
        np.testing.assert_array_equal(fast.q, slow.q)
        assert abs(fast.coverage - slow.coverage) <= 1e-14
        scale = np.max(np.abs(slow.density))
        assert np.max(np.abs(fast.density - slow.density)) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", ["scully", "kick"])
    @pytest.mark.parametrize("where", ["full", "low_edge", "high_edge"])
    def test_white_noise_state_at_the_grid_edges(self, dense_grid, kind,
                                                 where):
        """A white-noise field, nonzero on every sample, so each lag of
        each correlation carries weight, including those next to
        aliasing."""
        rng = np.random.default_rng(7)
        field = rng.normal(size=256) + 1j * rng.normal(size=256)
        field /= np.sqrt(np.sum(np.abs(field) ** 2) * dense_grid.dx)
        state = TransverseState(dense_grid, field)
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
        """The package correlates the H field alone; the two-row form of
        tests/oracles.py, run on the state's mirror in V, gives the same
        bits on ``erase(ch, eraser)``.

        Every channel's K = u + v S commutes with the swap S, so the
        mirror's P_wv equals the original's.
        """
        grid = SimGrid(n_points, 16.0 if n_points == 256 else 64.0)
        state = build_double_slit(SLIT_WIDTH, grid, EDGE_SCALES[edge])
        mirror = two_rows(state.field)[::-1].copy()
        ch = erase(_equivalence_channel(kind, grid), eraser)
        indices = _INDEX_SETS[index_set](grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            one = transfer_distribution(state, ch, WINDOW_WIDTH, indices)
        density, coverage = two_row_transfer(grid, mirror, ch, WINDOW_WIDTH,
                                             indices)
        assert one.coverage == coverage
        assert np.array_equal(one.density, density)

    @pytest.mark.parametrize("kind", ["scully", "kick"])
    @pytest.mark.parametrize("eraser", ["none", "minus45"])
    @pytest.mark.parametrize("index_set", ["fifteen", "full"])
    def test_sliced_combine_matches_the_two_row_path(self, kind, eraser,
                                                     index_set):
        """At 16,384 points each pass combines its output rows in
        several 4,096-row slices; the two-row form combines them in one
        shot, and the bits are the same."""
        self.test_one_row_path_matches_the_two_row_path(
            16384, "sharp", kind, eraser, index_set)
