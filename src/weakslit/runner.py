"""Scenario execution: one entry point per figure-style analysis command.

Each command assembles deterministic data tables, a scalar summary, and
its figures, each the keyword arguments of :func:`weakslit.svg.render_plot`,
from a validated :class:`ScenarioConfig`.  File
emission lives in :mod:`weakslit.outputs`.
"""

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .errors import ConfigError
from .grid import _show
from .moments import (apodization_sweep, sharp_cutoff_variance,
                      window_variance)
from .pointer import (convergence_sweep, estimate_wvp, marginal,
                      run_tagged)
from .weak_values import (EPS_DEN_FRACTION, COVERAGE_MIN, eraser_curves,
                          momentum_distribution, transfer_distribution,
                          window_mask)
# No command calls these here any more; perfbench/layers.py still wraps
# the names in this module to trace them.
from .weak_values import conditional_wvp, joint_wvp  # noqa: F401

__all__ = ["Table", "ResultBundle", "run", "COMMANDS"]

_TWO_PI = 2.0 * np.pi

#: Momentum half-range (internal units) shown in figures; tables keep all samples.
PLOT_RANGE = 4.0 * _TWO_PI


class Table:
    """A data table with (column, unit) headers; the bundle's key names it.

    ``data`` holds one 1-D array per header, all of one length.  A bool
    array (a ``defined`` mask, ``np.isfinite`` of a curve) is written
    as 0/1.
    """

    def __init__(self, columns: tuple[tuple[str, str], ...],
                 data: tuple[np.ndarray, ...]):
        self.columns = columns
        self.data = data


class ResultBundle:
    """One command's results.  ``figures`` maps each SVG's name to the
    keyword arguments of :func:`weakslit.svg.render_plot`."""

    def __init__(self, command: str, tables: dict | None = None,
                 summary: dict | None = None):
        self.command = command
        self.tables = {} if tables is None else tables
        self.summary = {} if summary is None else summary
        self.provenance = {}
        self.figures = {}


def _mm_per_unit(config: ScenarioConfig) -> float:
    """Focal-plane millimetres per internal momentum unit."""
    return float(config.lab.focal_plane_position(1.0)) * 1e3


def _momentum_figure(p: np.ndarray, mm: float, curves, title: str,
                     x: str = "p_f", ylabel: str = "value") -> dict:
    """``render_plot`` arguments for (y, label) *curves* over momentum
    *p*, cut to |p| <= PLOT_RANGE, with the focal-plane scale *mm* on top."""
    sel = np.abs(p) <= PLOT_RANGE
    return {"series": [(p[sel], y[sel], label) for y, label in curves],
            "title": title, "xlabel": f"{x} [hbar/s x 2pi per fringe]",
            "ylabel": ylabel, "x2label": "focal plane [mm]", "x2scale": mm}


def _provenance(config: ScenarioConfig) -> dict:
    grid = config.grid
    return {
        "config_sha256": config.config_hash(),
        "package_version": __version__,
        "grid_n_points": grid.n_points,
        "grid_x_extent": grid.x_extent,
        "dp_internal": grid.dp,
        "eps_den_fraction": EPS_DEN_FRACTION,
        "coverage_min": COVERAGE_MIN,
    }


def _run_wvp(config: ScenarioConfig) -> ResultBundle:
    window = config.window
    # One set of full-state sector sums gives the curve and, through the
    # un-erased density, the output distribution.
    curves = eraser_curves(config.state, config.channel, window,
                           ("none", config.eraser))
    curve = curves[config.eraser]
    dens_in = momentum_distribution(config.state)
    dens_out = curves["none"].density
    dens_out = dens_out / (np.sum(dens_out) * config.grid.dp)
    p, mm = config.grid.p, _mm_per_unit(config)
    p_lab = p * mm
    ok = np.isfinite(curve.values)

    bundle = ResultBundle("wvp")
    bundle.tables["wvp"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"), ("conditional", "1"),
        ("joint", "s/hbar"), ("defined", "0/1"),
    ), (p, p_lab, curve.values, curve.joint, ok))
    bundle.tables["intensity"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"),
        ("input_density", "s/hbar"), ("output_density", "s/hbar"),
    ), (p, p_lab, dens_in, dens_out))

    in_window = curve.values[window_mask(config.grid, window) > 0.5]
    in_window = in_window[np.isfinite(in_window)]
    bundle.summary = {
        "window_index": window.index,
        "window_width": window.width,
        "eraser": config.eraser,
        "conditional_min": float(np.nanmin(curve.values[ok])),
        "conditional_max": float(np.nanmax(curve.values[ok])),
        # null when no defined sample lies in the window
        "in_window_min": float(in_window.min()) if in_window.size else None,
        "in_window_max": float(in_window.max()) if in_window.size else None,
    }
    bundle.figures["wvp"] = _momentum_figure(
        p, mm, [(curve.values, "conditional WVP"),
                (dens_out / dens_out.max(), "output density (scaled)")],
        "Conditional weak-valued probability")
    return bundle


def _run_transfer(config: ScenarioConfig) -> ResultBundle:
    dist = transfer_distribution(config.state, config.channel,
                                 config.window.width, config.indices,
                                 config.eraser)
    mm = _mm_per_unit(config)
    bundle = ResultBundle("transfer")
    bundle.tables["transfer"] = Table((
        ("q", "hbar/s"), ("q_lab", "mm"), ("density", "s/hbar"),
    ), (dist.q, dist.q * mm, dist.density))
    bundle.summary = {
        "integral": dist.integral(),
        "coverage": dist.coverage,
        "mass_outside_hbar_over_s": dist.mass_outside(1.0),
        "window_width": dist.window_width,
        "n_windows": len(dist.windows),
        "eraser": dist.eraser,
        "density_min": float(dist.density.min()),
        "density_max": float(dist.density.max()),
        "roundoff_floor": dist.roundoff_floor,
    }
    bundle.figures["transfer"] = _momentum_figure(
        dist.q, mm, [(dist.density, "P_wv(q)")],
        "Weak-valued momentum-transfer distribution", "q", "density [s/hbar]")
    return bundle


def _run_variance(config: ScenarioConfig) -> ResultBundle:
    dist = transfer_distribution(config.state, config.channel,
                                 config.window.width, config.indices,
                                 config.eraser)
    sharp = np.array([sharp_cutoff_variance(dist, q) for q in config.q_max])
    report = apodization_sweep(dist, config.kappa)

    signs = np.sign(sharp[np.abs(sharp) > 0.0])
    sign_changes = int(np.sum(signs[1:] * signs[:-1] < 0.0))

    bundle = ResultBundle("variance")
    bundle.tables["variance_sharp"] = Table((
        ("q_max", "hbar/s"), ("value", "(hbar/s)^2"),
    ), (np.array(config.q_max), sharp))
    bundle.tables["variance_apodized"] = Table((
        ("kappa", "hbar/s"), ("value", "(hbar/s)^2"),
    ), (np.array(report.kappas), np.array(report.values)))
    bundle.summary = {
        "sign_changes": sign_changes,
        "largest_kappa": report.kappas[-1],
        "largest_kappa_value": report.largest_kappa_value,
        "apodized_last_gap": report.last_gap,
        "apodized_trend": report.trend,
        "window_variance_lattice": window_variance(dist.window_width,
                                                   config.grid.dp),
        "window_variance_continuum": window_variance(dist.window_width),
        "coverage": dist.coverage,
        "roundoff_floor": dist.roundoff_floor,
    }
    bundle.figures["variance_sharp"] = {
        "series": [(np.array(config.q_max), sharp, "sharp-cutoff variance")],
        "title": "Variance integral vs sharp cutoff",
        "xlabel": "q_max [hbar/s]", "ylabel": "integral [(hbar/s)^2]"}
    bundle.figures["variance_apodized"] = {
        "series": [(np.array(report.kappas), np.array(report.values),
                    "apodized variance")],
        "title": "Variance integral vs apodization scale",
        "xlabel": "kappa [hbar/s]", "ylabel": "integral [(hbar/s)^2]"}
    return bundle


def _run_eraser(config: ScenarioConfig) -> ResultBundle:
    window = config.window
    curves = eraser_curves(config.state, config.channel, window)
    plus, minus = curves["plus45"].values, curves["minus45"].values
    j_none, j_plus, j_minus = (curves["none"].joint, curves["plus45"].joint,
                               curves["minus45"].joint)
    # The densities and the un-erased values are not written: free them
    # before the summary's temporaries.
    del curves
    p, mm = config.grid.p, _mm_per_unit(config)
    in_window = window_mask(config.grid, window) > 0.5
    out = ~in_window

    def out_mass(j):
        return float(np.sum(np.abs(j)[out]) * config.grid.dp)

    indicator = in_window.astype(float)
    plus_ok, minus_ok = np.isfinite(plus), np.isfinite(minus)
    plus_dev = float(np.nanmax(np.abs(plus[plus_ok] - indicator[plus_ok])))

    bundle = ResultBundle("eraser")
    bundle.tables["eraser_curves"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"),
        ("plus45", "1"), ("plus45_defined", "0/1"),
        ("minus45", "1"), ("minus45_defined", "0/1"),
    ), (p, p * mm, plus, plus_ok, minus, minus_ok))
    bundle.tables["eraser_joint"] = Table((
        ("p_f", "hbar/s"), ("joint_none", "s/hbar"),
        ("joint_plus45", "s/hbar"), ("joint_minus45", "s/hbar"),
    ), (p, j_none, j_plus, j_minus))
    bundle.summary = {
        "window_index": window.index,
        "partition_max_abs": float(np.max(np.abs(j_none - j_plus - j_minus))),
        "plus45_indicator_max_dev": plus_dev,
        "out_of_window_mass_none": out_mass(j_none),
        "out_of_window_mass_plus45": out_mass(j_plus),
        "out_of_window_mass_minus45": out_mass(j_minus),
    }
    bundle.figures["eraser"] = _momentum_figure(
        p, mm, [(plus, "+45 eraser"), (minus, "-45 eraser")],
        "Eraser-resolved conditional WVP")
    return bundle


def _run_pointer(config: ScenarioConfig) -> ResultBundle:
    window, ratio = config.window, config.ratio
    analytic = run_tagged(config.state, config.channel, window)
    est = estimate_wvp(analytic, ratio)
    est_defined = np.isfinite(est)
    analytic_defined = np.isfinite(analytic.values)
    both = est_defined & analytic_defined
    dev = float(np.max(np.abs(est[both] - analytic.values[both])))
    dens = analytic.density / (np.sum(analytic.density) * config.grid.dp)
    marg = marginal(analytic, ratio)
    marg = marg / (np.sum(marg) * config.grid.dp)
    marg_dev = np.subtract(marg, dens, out=marg)
    p, mm = config.grid.p, _mm_per_unit(config)

    bundle = ResultBundle("pointer")
    bundle.tables["pointer"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"), ("estimate", "1"),
        ("estimate_defined", "0/1"), ("analytic", "1"),
        ("analytic_defined", "0/1"),
    ), (p, p * mm, est, est_defined, analytic.values, analytic_defined))
    bundle.summary = {
        "ratio": ratio,
        "window_index": window.index,
        "window_width": window.width,
        "max_abs_dev_vs_analytic": dev,
        "marginal_max_abs_dev": float(np.max(np.abs(marg_dev, out=marg_dev))),
    }
    bundle.figures["pointer"] = _momentum_figure(
        p, mm, [(est, f"pointer estimate (D/sigma={ratio:g})"),
                (analytic.values, "analytic")],
        "Pointer emulation vs analytic conditional WVP")
    return bundle


def _run_sweep(config: ScenarioConfig) -> ResultBundle:
    report = convergence_sweep(config.state, config.channel, config.window,
                               config.ratios)
    ratios = np.array(report.ratios)
    errors = np.array(report.errors)

    bundle = ResultBundle("sweep")
    bundle.tables["sweep"] = Table((
        ("ratio", "1"), ("max_abs_error", "1"),
    ), (ratios, errors))
    bundle.summary = {
        "ratios": list(report.ratios),
        "errors": list(report.errors),
        "slope_smallest_pair": report.slope_smallest_pair,
        "monotone_decreasing": report.monotone_decreasing,
        "roundoff_floor": {"error": list(report.floors),
                           "ratios_under": report.under_floor},
    }
    bundle.figures["sweep"] = {
        "series": [(np.log10(ratios), np.log10(errors), "max-abs error")],
        "title": "Pointer estimator convergence",
        "xlabel": "log10 D/sigma", "ylabel": "log10 max-abs error"}
    return bundle


COMMANDS = {
    "wvp": _run_wvp,
    "transfer": _run_transfer,
    "variance": _run_variance,
    "eraser": _run_eraser,
    "pointer": _run_pointer,
    "sweep": _run_sweep,
}


def run(config: ScenarioConfig, command: str) -> ResultBundle:
    """Execute one analysis command; see COMMANDS for the valid set."""
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {_show(command)}; expected one of "
            f"{sorted(COMMANDS)}")
    bundle = COMMANDS[command](config)
    bundle.provenance = _provenance(config)
    return bundle
