"""Moments and regularisation of transfer distributions."""

import numpy as np
import pytest

from weakslit import (ConfigError, NumericError, TransferDistribution,
                      apodization_sweep, classical_kick, from_dict,
                      identity_channel, moment_change, run, scully_wwm,
                      sharp_cutoff_variance, transfer_moments,
                      window_variance)
from weakslit.moments import apodized_variance


def gaussian_dist(mu=0.0, sigma=1.5, q_lim=30.0, n=6001):
    q = np.linspace(-q_lim, q_lim, n)
    dens = np.exp(-(q - mu) ** 2 / (2.0 * sigma ** 2)) / (
        sigma * np.sqrt(2.0 * np.pi))
    return TransferDistribution(q, dens, (0,), 1.0, 0.0)


class TestSweepPoints:
    @pytest.mark.parametrize("reg", [
        {"q_max": [1.0, -2.0], "kappa": [1.0]},
        {"q_max": [1.0], "kappa": [0.0]},
    ])
    def test_config_rejects_nonpositive_entries(self, reg):
        with pytest.raises(ConfigError, match="^'regularization': "):
            from_dict({"grid": {"n_points": 1024}, "regularization": reg})

    def test_sweeps_stay_inside_the_q_range(self):
        dist = gaussian_dist(q_lim=10.0)
        sharp_cutoff_variance(dist, 9.0)
        apodization_sweep(dist, (5.0,))
        with pytest.raises(NumericError, match="outside the simulated q"):
            sharp_cutoff_variance(dist, 11.0)
        with pytest.raises(NumericError, match="kappa 10.5 beyond"):
            apodization_sweep(dist, (10.5,))
        # the range check reads the largest kappa, whatever the order
        with pytest.raises(NumericError, match="kappa 10.5 beyond"):
            apodization_sweep(dist, (10.5, 5.0))


class TestGaussianClosedForms:
    def test_mean_and_variance(self):
        dist = gaussian_dist(mu=0.7, sigma=1.5)
        mean, variance = transfer_moments(dist)
        assert mean == pytest.approx(0.7, abs=1e-10)
        assert variance == pytest.approx(1.5 ** 2, rel=1e-10)

    def test_moments_are_the_trapezoid_integrals(self):
        dist = gaussian_dist(mu=0.7, sigma=1.5)
        mean = float(np.trapezoid(dist.density * dist.q, dist.q))
        second = float(np.trapezoid(dist.density * dist.q ** 2, dist.q))
        assert transfer_moments(dist) == (mean, second - mean ** 2)

    def test_sharp_cutoff_approaches_full_variance(self):
        dist = gaussian_dist(mu=0.0, sigma=1.5)
        # for a centred Gaussian the second moment inside +-q_max grows
        # monotonically to sigma^2
        values = [sharp_cutoff_variance(dist, qm) for qm in (2.0, 4.0, 12.0)]
        assert values[0] < values[1] < values[2]
        assert values[2] == pytest.approx(1.5 ** 2, rel=1e-8)

    def test_sharp_cutoff_is_continuous_in_qmax(self):
        dist = gaussian_dist()
        dq = float(dist.q[1] - dist.q[0])
        v1 = sharp_cutoff_variance(dist, 2.0)
        v2 = sharp_cutoff_variance(dist, 2.0 + 0.3 * dq)
        # moving the cutoff a fraction of a sample moves the integral by
        # O(integrand * shift), not by a whole sample's worth
        assert abs(v2 - v1) < 0.5 * 4.0 * np.max(dist.density) * dq

    def test_sharp_cutoff_range_errors(self):
        dist = gaussian_dist(q_lim=10.0)
        with pytest.raises(NumericError, match="outside the simulated q"):
            sharp_cutoff_variance(dist, 10.5)
        with pytest.raises(NumericError, match="outside the simulated q"):
            sharp_cutoff_variance(dist, 0.0)

    def test_apodized_approaches_unregularised(self):
        dist = gaussian_dist(sigma=1.5)
        assert apodized_variance(dist, 1e4) == pytest.approx(
            transfer_moments(dist)[1], rel=1e-3)
        with pytest.raises(ConfigError):
            apodized_variance(dist, 0.0)

    @pytest.mark.parametrize("kappa", [5e-324, 1e-310])
    def test_apodized_at_a_vanishing_kappa_is_its_limit(self, kappa):
        """|q|/kappa overflows to inf there, and exp(-inf) = 0 is the
        factor's limit: the integral is 0.0, with no RuntimeWarning."""
        assert apodized_variance(gaussian_dist(), kappa) == 0.0


class TestApodizationSweep:
    def test_sorts_and_labels_increasing(self):
        dist = gaussian_dist()
        kappas, values = apodization_sweep(dist, [8.0, 2.0, 4.0])
        assert kappas == (2.0, 4.0, 8.0)
        # e^{-|q|/kappa} relaxes toward 1, so the damped integral grows
        assert values == tuple(apodized_variance(dist, k) for k in kappas)
        assert values[0] < values[1] < values[2]

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    def test_variance_summary_labels_the_sweep(self):
        """The identity channel's P_wv is a narrow window shape whose
        damped integral grows with kappa; the summary reads the sweep's
        last entries."""
        bundle = run(from_dict({"grid": {"n_points": 1024}}), "variance")
        summary, table = bundle.summary, bundle.tables["variance_apodized"]
        values = table["value [(hbar/s)^2]"]
        assert summary["apodized_trend"] == "increasing"
        assert summary["largest_kappa"] == table["kappa [hbar/s]"][-1]
        assert summary["largest_kappa_value"] == values[-1]
        assert summary["apodized_last_gap"] == pytest.approx(
            values[-1] - values[-2])

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    def test_one_kappa_is_a_single_point(self):
        config = from_dict({"grid": {"n_points": 1024},
                            "regularization": {"kappa": [6.283185307179586]}})
        summary = run(config, "variance").summary
        assert summary["apodized_trend"] == "single-point"
        assert summary["apodized_last_gap"] is None


def test_window_variance_matches_discrete_uniform():
    """(width^2 - dp^2)/12 is the exact lattice second moment."""
    dp = 0.1
    for m in (3, 15, 101):
        width = m * dp
        k = np.arange(m) - m // 2
        brute = float(np.mean((k * dp) ** 2))
        assert window_variance(width, dp) == pytest.approx(brute, rel=1e-14)
    assert window_variance(1.2) == pytest.approx(1.2 ** 2 / 12.0, rel=1e-15)


def test_window_variance_of_a_huge_width_is_inf():
    """``width ** 2`` raises OverflowError above about 1.34e154."""
    assert window_variance(1e160, 0.1) == np.inf
    assert window_variance(1e160) == np.inf


class TestMomentChange:
    def test_refuses_sharp_edges(self, slit_state, wwm):
        with pytest.raises(NumericError, match="moments diverge"):
            moment_change(slit_state, wwm)

    def test_identity_changes_nothing(self, smooth_state, grid):
        d_mean, d_var = moment_change(smooth_state, identity_channel(grid))
        assert d_mean == pytest.approx(0.0, abs=1e-13)
        assert d_var == pytest.approx(0.0, abs=1e-11)

    def test_kick_moments(self, smooth_state, grid):
        kicks = [(30.0 * grid.dp, 0.25), (-10.0 * grid.dp, 0.75)]
        d_mean, d_var = moment_change(smooth_state,
                                      classical_kick(kicks, grid))
        q = np.array([k for k, _ in kicks])
        pr = np.array([p for _, p in kicks])
        exp_mean = float(np.sum(pr * q))
        exp_var = float(np.sum(pr * q ** 2) - exp_mean ** 2)
        assert d_mean == pytest.approx(exp_mean, rel=1e-10)
        assert d_var == pytest.approx(exp_var, rel=1e-10)

    def test_marker_changes_nothing(self, smooth_state, grid):
        """Which-way marking leaves the momentum density's moments alone."""
        ch = scully_wwm(grid)
        d_mean, d_var = moment_change(smooth_state, ch)
        assert d_mean == pytest.approx(0.0, abs=1e-10)
        assert d_var == pytest.approx(0.0, abs=1e-6)
