"""End-to-end acceptance checks for the shipped claims, one per test.

Each test prints a single "criterion N: PASS/FAIL" line (run pytest with
-s to watch them live) and enforces a wall-clock budget on top of the
numeric gates.  Scenario sizes here are the production defaults -- the
smaller grids used by the unit tests are not enough for these claims.
"""

import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from weakslit import (CoverageWarning, PRESETS, SimGrid, apodization_sweep,
                      build_double_slit, build_momentum_peak, classical_kick,
                      conditional_wvp, convergence_sweep, erase,
                      eraser_curves, from_dict, identity_channel,
                      moment_change, momentum_distribution, scully_wwm,
                      sharp_cutoff_variance, transfer_distribution,
                      transfer_moments, window_mask, window_variance)
from weakslit.pointer import _floor_trend
from conftest import (EDGE_SCALE, SLIT_WIDTH, eraser_port, eraser_port_basis,
                      partial_marker)
from oracles import dense_transfer, kick_rect_density

TWO_PI = 2.0 * math.pi


def _report(num, ok, detail, elapsed, budget):
    in_time = elapsed < budget
    verdict = "PASS" if ok and in_time else "FAIL"
    print(f"criterion {num}: {verdict} - {detail} "
          f"[{elapsed:.2f}s, budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: {elapsed:.2f}s over budget {budget}s"


@pytest.fixture(scope="module")
def bench():
    """The flagship marked-slit scenario on the production grid."""
    cfg = from_dict(PRESETS["paper"])
    ns = SimpleNamespace(
        cfg=cfg, grid=cfg.grid, state=cfg.state,
        marker=cfg.channel,
        width=cfg.window_width,
        window=(cfg.window_width, cfg.focus_index),
        indices=cfg.indices,
        mm_per_unit=cfg.mm_per_unit,
    )
    return ns


def test_criterion_01_fringe_geometry(bench):
    t0 = time.perf_counter()
    # dark-fringe positions are envelope-independent, so measure those;
    # bright maxima get pulled inward by the single-slit envelope
    dens = momentum_distribution(bench.state, erase(bench.marker, "plus45"))
    p = bench.grid.p
    sel = np.abs(p) < 3.4 * math.pi
    d, ps = dens[sel], p[sel]
    idx = np.nonzero((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:]))[0] + 1
    minima = ps[idx][d[idx] < 0.02 * dens.max()]
    period_mm = float(np.mean(np.diff(minima))) * bench.mm_per_unit
    expected_mm = 633e-9 * 1.0 / 80e-6 * 1e3
    bin_mm = bench.grid.dp * bench.mm_per_unit
    elapsed = time.perf_counter() - t0
    ok = len(minima) >= 3 and abs(period_mm - expected_mm) <= bin_mm
    _report(1, ok,
            f"fringe period {period_mm:.4f} mm vs f*lambda/s = "
            f"{expected_mm:.4f} mm, grid bin {bin_mm:.3f} mm "
            f"(bench-measured 8.2 +/- 0.1 mm reflects lens calibration)",
            elapsed, 1.0)


def test_criterion_02_indicator_limit(bench):
    t0 = time.perf_counter()
    mask = window_mask(bench.grid, *bench.window)
    devs = {}
    for label, curve in (
        ("identity", conditional_wvp(bench.state, identity_channel(bench.grid),
                                     *bench.window)),
        ("erased +45", conditional_wvp(bench.state,
                                       erase(bench.marker, "plus45"),
                                       *bench.window)),
    ):
        ok = np.isfinite(curve.values)
        devs[label] = float(np.max(np.abs(curve.values[ok] - mask[ok])))
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-8 for v in devs.values())
    _report(2, ok,
            "conditional WVP = window indicator; max dev "
            + ", ".join(f"{k}: {v:.2e}" for k, v in devs.items()),
            elapsed, 5.0)


def test_criterion_03_negativity(bench):
    t0 = time.perf_counter()
    curve = conditional_wvp(bench.state, bench.marker, *bench.window)
    p = bench.grid.p
    ok = np.isfinite(curve.values)
    near_max = ok & (np.abs(p) < 0.25 * TWO_PI)
    near_min = ok & (np.abs(p - math.pi) < 0.25 * TWO_PI)
    low = float(np.min(curve.values[near_max]))
    high = float(np.max(curve.values[near_min]))
    elapsed = time.perf_counter() - t0
    _report(3, low < -0.05 and high > 0.05,
            f"marked-slit conditional WVP reaches {low:+.3f} at the central "
            f"fringe maximum and {high:+.3f} at the adjacent minimum",
            elapsed, 5.0)


def test_criterion_04_normalization(bench):
    t0 = time.perf_counter()
    with pytest.warns(CoverageWarning):
        dist = transfer_distribution(bench.state, bench.marker, bench.width,
                                     bench.indices)
    integral = dist.integral()
    elapsed = time.perf_counter() - t0
    _report(4, abs(integral - 1.0) <= 1e-3,
            f"15-window transfer density integrates to {integral:.6f} "
            f"(coverage {dist.coverage:.4f})",
            elapsed, 10.0)


def test_criterion_05_mass_beyond_one_unit(bench):
    t0 = time.perf_counter()
    with pytest.warns(CoverageWarning):
        marked = transfer_distribution(bench.state, bench.marker, bench.width,
                                       bench.indices)
        plain = transfer_distribution(bench.state, identity_channel(bench.grid),
                                      bench.width, bench.indices)
    mass = marked.mass_outside(1.0)
    floor = plain.mass_outside(1.0)
    elapsed = time.perf_counter() - t0
    ok = floor < 1e-12 and mass > 10.0 * floor and mass > 0.0
    _report(5, ok,
            f"marked-slit mass outside +-hbar/s = {mass:.4f} vs "
            f"identity-channel floor {floor:.2e}",
            elapsed, 10.0)


def test_criterion_06_variance_regularization(bench):
    t0 = time.perf_counter()
    big = SimGrid(2 ** 16, 64.0)
    state = build_double_slit(SLIT_WIDTH, big)
    marker = scully_wwm(big)
    with pytest.warns(CoverageWarning):
        dist = transfer_distribution(state, marker, bench.width, range(-7, 8))

    q_maxes = bench.cfg.q_max  # sweep of (0, 4 h/s]
    sharp = np.array([sharp_cutoff_variance(dist, q) for q in q_maxes])
    signs = np.sign(sharp[np.abs(sharp) > 0.0])
    changes = int(np.sum(signs[1:] * signs[:-1] < 0.0))

    _, values = apodization_sweep(dist,
                                  [TWO_PI * k for k in (16, 32, 64, 128)])
    last = values[-1]
    gap = abs(values[-1] - values[-2])
    # residual of the ~1/kappa tail, estimated from the last doubling
    gate = bench.width ** 2 / 12.0 + 2.0 * gap
    elapsed = time.perf_counter() - t0
    _report(6, changes >= 2 and abs(last) <= gate,
            f"sharp-cutoff variance changes sign {changes}x over (0, 4h/s]; "
            f"apodized value {last:.4f} at kappa = 128 h/s within "
            f"window-resolution gate {gate:.4f}",
            elapsed, 30.0)


def test_criterion_07_moment_matching(bench):
    t0 = time.perf_counter()

    # dense-matrix oracle first: same construction, no FFTs, N = 256
    dgrid = SimGrid(256, 16.0)
    dstate = build_double_slit(SLIT_WIDTH, dgrid, EDGE_SCALE)
    dmarker = scully_wwm(dgrid)
    with pytest.warns(CoverageWarning):
        fast = transfer_distribution(dstate, dmarker, bench.width,
                                     range(-7, 8))
    _, slow, _ = dense_transfer(dstate, dmarker, bench.width, range(-7, 8))
    oracle_dev = float(np.max(np.abs(fast.density - slow)))
    assert oracle_dev <= 1e-8, f"dense oracle disagrees: {oracle_dev:.2e}"

    grid = bench.grid
    state = build_double_slit(SLIT_WIDTH, grid, EDGE_SCALE)
    width = 15.0 * grid.dp  # lattice-aligned windows keep moments exact
    win_var = window_variance(width, grid.dp)

    marker = scully_wwm(grid)
    scully_mean, scully_var = transfer_moments(
        transfer_distribution(state, marker, width))
    scully_var -= win_var
    direct = moment_change(state, marker)
    scully_ok = all(abs(v) <= 1e-4 for v in
                    (scully_mean, scully_var, direct[0], direct[1]))

    kicks = [(24.0 * grid.dp, 0.35), (-36.0 * grid.dp, 0.65)]
    mean_ref = sum(pr * q for q, pr in kicks)
    var_ref = sum(pr * q * q for q, pr in kicks) - mean_ref ** 2
    kick = classical_kick(kicks, grid)
    kmean, kvar = transfer_moments(transfer_distribution(state, kick, width))
    kdirect = moment_change(state, kick)
    rels = (
        abs(kmean - mean_ref) / abs(mean_ref),
        abs(kvar - win_var - var_ref) / var_ref,
        abs(kdirect[0] - mean_ref) / abs(mean_ref),
        abs(kdirect[1] - var_ref) / var_ref,
    )
    elapsed = time.perf_counter() - t0
    _report(7, scully_ok and all(r <= 0.01 for r in rels),
            f"oracle dev {oracle_dev:.1e}; marker moments "
            f"({scully_mean:.1e}, {scully_var:.1e}) vs expected zero; "
            f"kick moment errors <= {max(rels):.1e} relative",
            elapsed, 60.0)


def test_criterion_08_classical_equivalence():
    t0 = time.perf_counter()
    grid = SimGrid(4096, 64.0)
    slit = build_double_slit(SLIT_WIDTH, grid)
    gauss = build_momentum_peak(0.0, 2.0, grid)
    width = 15.0 * grid.dp

    worst_neg, worst_oracle, worst_cross = 0.0, 0.0, 0.0
    for kicks in ([(24.0 * grid.dp, 1.0)],
                  [(12.0 * grid.dp, 0.4), (-36.0 * grid.dp, 0.6)],
                  [(0.0, 0.3), (48.0 * grid.dp, 0.3), (-24.0 * grid.dp, 0.4)]):
        ch = classical_kick(kicks, grid)
        d_slit = transfer_distribution(slit, ch, width)
        d_gauss = transfer_distribution(gauss, ch, width)
        ref = kick_rect_density(d_slit.q, kicks, width)
        worst_neg = min(worst_neg, float(d_slit.density.min()),
                        float(d_gauss.density.min()))
        worst_oracle = max(worst_oracle,
                           float(np.max(np.abs(d_slit.density - ref))),
                           float(np.max(np.abs(d_gauss.density - ref))))
        worst_cross = max(worst_cross, float(np.max(
            np.abs(d_slit.density - d_gauss.density))))
    elapsed = time.perf_counter() - t0
    ok = worst_neg >= -1e-8 and worst_oracle <= 1e-6 and worst_cross <= 1e-6
    _report(8, ok,
            f"3 kick channels: min density {worst_neg:.1e}, rect-convolution "
            f"dev {worst_oracle:.1e}, double-slit vs Gaussian input dev "
            f"{worst_cross:.1e}",
            elapsed, 30.0)


def test_criterion_09_pointer_convergence(bench):
    t0 = time.perf_counter()
    ratios, errors, floors = convergence_sweep(
        conditional_wvp(bench.state, bench.marker, *bench.window),
        bench.cfg.ratios)
    # log-log order over the last pair of ratios
    slope = float(np.log(errors[-2] / errors[-1])
                  / np.log(ratios[-2] / ratios[-1]))
    at_bench = errors[ratios.index(0.139)]
    elapsed = time.perf_counter() - t0
    ok = (ratios == (0.3, 0.139, 0.05, 0.01, 0.001)
          and _floor_trend(ratios, errors, floors)[1]
          and abs(slope - 2.0) <= 0.3
          and 0.05 < at_bench < 0.5)
    _report(9, ok,
            f"estimator errors {tuple(f'{e:.2e}' for e in errors)} "
            f"decrease monotonically, slope {slope:.3f}; smoothing at "
            f"D/sigma = 0.139 is {at_bench:.3f} max-abs",
            elapsed, 60.0)


def test_criterion_10_eraser_partition(bench):
    t0 = time.perf_counter()
    curves = eraser_curves(bench.state, bench.marker, *bench.window)
    j_none, j_plus, j_minus = (curves[eraser].joint
                               for eraser in ("none", "plus45", "minus45"))
    partition = float(np.max(np.abs(j_plus + j_minus - j_none)))

    outside = window_mask(bench.grid, *bench.window) < 0.5
    dp = bench.grid.dp
    out_none = float(np.sum(np.abs(j_none)[outside]) * dp)
    out_plus = float(np.sum(np.abs(j_plus)[outside]) * dp)
    out_minus = float(np.sum(np.abs(j_minus)[outside]) * dp)
    elapsed = time.perf_counter() - t0
    ok = (partition <= 1e-10 and out_plus <= 1e-10
          and abs(out_minus - out_none) <= 1e-10 and out_minus > 0.01)
    _report(10, ok,
            f"+-45 joints sum to the traced joint (max dev {partition:.1e}); "
            f"out-of-window weight: -45 carries {out_minus:.4f}, +45 carries "
            f"{out_plus:.1e}",
            elapsed, 10.0)


def test_criterion_11_closed_form():
    """The marker's narrow-window P_wv against its continuum closed form.

    For sharp slits of width a centred at +-1/2 and the marker,
    P_0(q) = delta(q)/2 + sin(q/2) sin(a q/2) / (pi a q^2).  Its
    apodised variance is A(kappa) = (1/(pi a)) [eps/(eps^2 + l^2)
    - eps/(eps^2 + r^2)], with eps = 1/kappa, l = (1 - a)/2 and
    r = (1 + a)/2, and its sharp-cutoff integral is
    S(Q) = (1/(pi a)) [sin(l Q)/l - sin(r Q)/r]; 2 int_1^inf |P_0| is
    0.48006 up to |q| = 4,000, plus a tail of about 1e-4.

    A 2-bin full tiling at 2^16 points approaches the narrow-window
    limit.  At L = 256 the apodised variance, plus the lattice window
    term, is at most 0.57% off (bound 1%), and the mass beyond hbar/s
    is 0.0017 below 0.4801 (bound 0.004).  S(Q) is checked at L = 64, where it is at
    most 0.0057 off (bound 0.01); at L = 256, Q = 10 reads 3.4% off.

    Marker strength: the partial marker's mass beyond hbar/s is
    (1 - cos theta) times the marker's at theta = pi/6, pi/4, pi/3,
    linear in the lost visibility, to 2.2e-16 relative (bound 1e-12).
    """
    t0 = time.perf_counter()
    a = 0.5
    lo, hi = (1.0 - a) / 2.0, (1.0 + a) / 2.0

    def closed_a(kappa):
        eps = 1.0 / kappa
        return (eps / (eps ** 2 + lo ** 2)
                - eps / (eps ** 2 + hi ** 2)) / (math.pi * a)

    def closed_s(q_max):
        return (math.sin(lo * q_max) / lo
                - math.sin(hi * q_max) / hi) / (math.pi * a)

    def two_bin(ch):
        """P_wv of ``ch`` on sharp slits, over a 2-bin full tiling."""
        state = build_double_slit(a, ch.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            return transfer_distribution(state, ch, 2.0 * ch.grid.dp)

    wide = SimGrid(2 ** 16, 256.0)
    marked = two_bin(scully_wwm(wide))
    sweep = apodization_sweep(marked, [TWO_PI * k for k in (1, 4, 16, 64)])
    term = window_variance(2.0 * wide.dp, wide.dp)
    a_dev = max(abs(v / (closed_a(k) + term) - 1.0) for k, v in zip(*sweep))
    mass = marked.mass_outside(1.0)
    narrow = two_bin(scully_wwm(SimGrid(2 ** 16, 64.0)))
    s_dev = max(abs(sharp_cutoff_variance(narrow, q) - closed_s(q))
                for q in (2.0, 5.0, 10.0, 20.0))
    strength_dev = max(
        abs(two_bin(partial_marker(wide, theta)).mass_outside(1.0)
            / ((1.0 - math.cos(theta)) * mass) - 1.0)
        for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0))
    elapsed = time.perf_counter() - t0
    _report(11, a_dev <= 0.01 and abs(mass - 0.4801) <= 0.004
            and s_dev <= 0.01 and strength_dev <= 1e-12,
            f"2-bin P_wv vs closed form: apodised variance within "
            f"{a_dev:.2%} at kappa = 2pi x (1, 4, 16, 64), mass beyond "
            f"hbar/s {mass:.4f} vs 0.4801, S(Q) within {s_dev:.4f} at "
            f"Q = 2, 5, 10, 20; partial markers' mass / (1 - cos theta) "
            f"within {strength_dev:.1e} of the marker's",
            elapsed, 10.0)


def test_criterion_12_eraser_ports(bench):
    """Both +-45 ports of the partial marker K_(theta, phi), cos theta +
    e^(i phi) sin theta S on x < 0, at the paper's 15 windows: each is
    1/2 [P_mk + cos theta R +- (sin 2 theta cos phi L + sin theta
    (cos phi R + sin phi I))], four eraser-free distributions that do
    not depend on (theta, phi) (``conftest.eraser_port_basis``).
    (theta, phi) = (pi/2, 0) is the marker, up to round-off in u."""
    t0 = time.perf_counter()
    basis = eraser_port_basis(bench.state, bench.width, bench.indices)
    devs = []
    for theta, phi in ((0.9, 1.1), (math.pi / 2.0, 0.0), (2.2, -0.7)):
        ch = partial_marker(bench.grid, theta, phi)
        for eraser, sign in (("plus45", 1.0), ("minus45", -1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CoverageWarning)
                got = transfer_distribution(bench.state, erase(ch, eraser),
                                            bench.width,
                                            bench.indices).density
            want = eraser_port(basis, theta, phi, sign)
            devs.append(float(np.max(np.abs(got - want))
                              / np.max(np.abs(want))))
    elapsed = time.perf_counter() - t0
    _report(12, max(devs) <= 1e-13,
            f"+-45 ports of the partial marker at (theta, phi) = (0.9, 1.1), "
            f"(pi/2, 0), (2.2, -0.7) are sums of four fixed distributions "
            f"to {max(devs):.1e} of max |P| (bound 1e-13)",
            elapsed, 10.0)
