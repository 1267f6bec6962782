"""Scenario execution: one entry point per figure-style analysis command.

Each command returns its deterministic data tables, a scalar summary and
its figures, built from a validated :class:`ScenarioConfig`; :func:`run`
wraps them in a :class:`ResultBundle`.  File emission lives in
:mod:`weakslit.outputs`.
"""

import numpy as np

from . import __version__
from .channels import erase
from .config import ScenarioConfig
from .errors import ConfigError
from .grid import _show
from .moments import (apodization_sweep, sharp_cutoff_variance,
                      window_variance)
from .pointer import (_floor_trend, convergence_sweep, estimate_wvp, marginal,
                      run_tagged)
from .weak_values import (EPS_DEN_FRACTION, COVERAGE_MIN, eraser_curves,
                          momentum_distribution, transfer_distribution,
                          window_mask)
# No command calls these here any more; perfbench/layers.py still wraps
# the names in this module to trace them.
from .weak_values import conditional_wvp, joint_wvp  # noqa: F401

__all__ = ["ResultBundle", "run"]

_TWO_PI = 2.0 * np.pi

#: Momentum half-range (internal units) shown in figures; tables keep all samples.
PLOT_RANGE = 4.0 * _TWO_PI


class ResultBundle:
    """One command's results.  ``tables`` maps each CSV's name to a dict
    from header text ``"name [unit]"`` to 1-D column, all of one length (a
    bool column is written 0/1); ``figures`` maps each SVG's name to the
    keyword arguments of :func:`weakslit.svg.render_plot`."""

    def __init__(self, command: str, tables: dict, summary: dict,
                 figures: dict, provenance: dict):
        self.command = command
        self.tables = tables
        self.summary = summary
        self.figures = figures
        self.provenance = provenance


def _momentum_axis(p: np.ndarray, mm: float, x: str = "p_f") -> dict:
    """Columns *x*, momentum *p*, and *x*_lab, its focal-plane mm."""
    return {f"{x} [hbar/s]": p, f"{x}_lab [mm]": p * mm}


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


def _run_wvp(config: ScenarioConfig) -> tuple[dict, dict, dict]:
    width, index = config.window_width, config.focus_index
    # One set of full-state sector sums gives the curve and, through the
    # un-erased density, the output distribution.
    curves = eraser_curves(config.state, config.channel, width, index,
                           ("none", config.eraser))
    curve = curves[config.eraser]
    dens_in = momentum_distribution(config.state)
    dens_out = curves["none"].density
    dens_out = dens_out / (np.sum(dens_out) * config.grid.dp)
    p, mm = config.grid.p, config.mm_per_unit
    axis = _momentum_axis(p, mm)
    ok = np.isfinite(curve.values)
    tables = {"wvp": {**axis, "conditional [1]": curve.values,
                      "joint [s/hbar]": curve.joint, "defined [0/1]": ok},
              "intensity": {**axis, "input_density [s/hbar]": dens_in,
                            "output_density [s/hbar]": dens_out}}

    in_window = curve.values[window_mask(config.grid, width, index) > 0.5]
    in_window = in_window[np.isfinite(in_window)]
    summary = {
        "window_index": index,
        "window_width": width,
        "eraser": config.eraser,
        "conditional_min": float(np.nanmin(curve.values[ok])),
        "conditional_max": float(np.nanmax(curve.values[ok])),
        # null when no defined sample lies in the window
        "in_window_min": float(in_window.min()) if in_window.size else None,
        "in_window_max": float(in_window.max()) if in_window.size else None,
    }
    figures = {"wvp": _momentum_figure(
        p, mm, [(curve.values, "conditional WVP"),
                (dens_out / dens_out.max(), "output density (scaled)")],
        "Conditional weak-valued probability")}
    return tables, summary, figures


def _run_transfer(config: ScenarioConfig) -> tuple[dict, dict, dict]:
    dist = transfer_distribution(config.state,
                                 erase(config.channel, config.eraser),
                                 config.window_width, config.indices)
    mm = config.mm_per_unit
    tables = {"transfer": {**_momentum_axis(dist.q, mm, "q"),
                           "density [s/hbar]": dist.density}}
    summary = {
        "integral": dist.integral(),
        "coverage": dist.coverage,
        "mass_outside_hbar_over_s": dist.mass_outside(1.0),
        "window_width": config.window_width,
        "n_windows": len(config.indices),
        "eraser": config.eraser,
        "density_min": float(dist.density.min()),
        "density_max": float(dist.density.max()),
        "roundoff_floor": dist.roundoff_floor,
    }
    figures = {"transfer": _momentum_figure(
        dist.q, mm, [(dist.density, "P_wv(q)")],
        "Weak-valued momentum-transfer distribution", "q", "density [s/hbar]")}
    return tables, summary, figures


def _run_variance(config: ScenarioConfig) -> tuple[dict, dict, dict]:
    dist = transfer_distribution(config.state,
                                 erase(config.channel, config.eraser),
                                 config.window_width, config.indices)
    # Each distinct point once, ascending, as the sign count reads them.
    q_max = np.array(sorted(set(config.q_max)))
    sharp = np.array([sharp_cutoff_variance(dist, q) for q in q_max])
    kappas, values = apodization_sweep(dist, config.kappa)

    signs = np.sign(sharp[np.abs(sharp) > 0.0])
    sign_changes = int(np.sum(signs[1:] * signs[:-1] < 0.0))
    steps = np.diff(values)
    trend = ("single-point" if steps.size == 0 else
             "decreasing" if np.all(steps < 0.0) else
             "increasing" if np.all(steps > 0.0) else "oscillating")

    tables = {"variance_sharp": {"q_max [hbar/s]": q_max,
                                 "value [(hbar/s)^2]": sharp},
              "variance_apodized": {"kappa [hbar/s]": np.array(kappas),
                                    "value [(hbar/s)^2]": np.array(values)}}
    summary = {
        "sign_changes": sign_changes,
        "largest_kappa": kappas[-1],
        "largest_kappa_value": values[-1],
        # |change over the final sweep step|, a convergence estimate
        "apodized_last_gap": (abs(values[-1] - values[-2])
                              if len(values) > 1 else None),
        "apodized_trend": trend,
        "window_variance_lattice": window_variance(config.window_width,
                                                   config.grid.dp),
        "window_variance_continuum": window_variance(config.window_width),
        "coverage": dist.coverage,
        "roundoff_floor": dist.roundoff_floor,
    }
    figures = {
        "variance_sharp": {
            "series": [(q_max, sharp, "sharp-cutoff variance")],
            "title": "Variance integral vs sharp cutoff",
            "xlabel": "q_max [hbar/s]", "ylabel": "integral [(hbar/s)^2]"},
        "variance_apodized": {
            "series": [(kappas, values, "apodized variance")],
            "title": "Variance integral vs apodization scale",
            "xlabel": "kappa [hbar/s]", "ylabel": "integral [(hbar/s)^2]"},
    }
    return tables, summary, figures


def _run_eraser(config: ScenarioConfig) -> tuple[dict, dict, dict]:
    width, index = config.window_width, config.focus_index
    curves = eraser_curves(config.state, config.channel, width, index)
    plus, minus = curves["plus45"].values, curves["minus45"].values
    j_none, j_plus, j_minus = (curves["none"].joint, curves["plus45"].joint,
                               curves["minus45"].joint)
    # The densities and the un-erased values are not written: free them
    # before the summary's temporaries.
    del curves
    p, mm = config.grid.p, config.mm_per_unit
    in_window = window_mask(config.grid, width, index) > 0.5
    out = ~in_window

    def out_mass(j):
        return float(np.sum(np.abs(j)[out]) * config.grid.dp)

    indicator = in_window.astype(float)
    plus_ok, minus_ok = np.isfinite(plus), np.isfinite(minus)
    plus_dev = float(np.nanmax(np.abs(plus[plus_ok] - indicator[plus_ok])))

    tables = {"eraser_curves": {**_momentum_axis(p, mm), "plus45 [1]": plus,
                                "plus45_defined [0/1]": plus_ok,
                                "minus45 [1]": minus,
                                "minus45_defined [0/1]": minus_ok},
              "eraser_joint": {"p_f [hbar/s]": p,
                               "joint_none [s/hbar]": j_none,
                               "joint_plus45 [s/hbar]": j_plus,
                               "joint_minus45 [s/hbar]": j_minus}}
    summary = {
        "window_index": index,
        "partition_max_abs": float(np.max(np.abs(j_none - j_plus - j_minus))),
        "plus45_indicator_max_dev": plus_dev,
        "out_of_window_mass_none": out_mass(j_none),
        "out_of_window_mass_plus45": out_mass(j_plus),
        "out_of_window_mass_minus45": out_mass(j_minus),
    }
    figures = {"eraser": _momentum_figure(
        p, mm, [(plus, "+45 eraser"), (minus, "-45 eraser")],
        "Eraser-resolved conditional WVP")}
    return tables, summary, figures


def _run_pointer(config: ScenarioConfig) -> tuple[dict, dict, dict]:
    width, index = config.window_width, config.focus_index
    ratio = config.ratio
    analytic = run_tagged(config.state, config.channel, width, index)
    est = estimate_wvp(analytic, ratio)
    est_defined = np.isfinite(est)
    analytic_defined = np.isfinite(analytic.values)
    both = est_defined & analytic_defined
    dev = float(np.max(np.abs(est[both] - analytic.values[both])))
    dens = analytic.density / (np.sum(analytic.density) * config.grid.dp)
    marg = marginal(analytic, ratio)
    marg = marg / (np.sum(marg) * config.grid.dp)
    marg_dev = np.subtract(marg, dens, out=marg)
    p, mm = config.grid.p, config.mm_per_unit

    tables = {"pointer": {**_momentum_axis(p, mm), "estimate [1]": est,
                          "estimate_defined [0/1]": est_defined,
                          "analytic [1]": analytic.values,
                          "analytic_defined [0/1]": analytic_defined}}
    summary = {
        "ratio": ratio,
        "window_index": index,
        "window_width": width,
        "max_abs_dev_vs_analytic": dev,
        "marginal_max_abs_dev": float(np.max(np.abs(marg_dev, out=marg_dev))),
    }
    figures = {"pointer": _momentum_figure(
        p, mm, [(est, f"pointer estimate (D/sigma={ratio:g})"),
                (analytic.values, "analytic")],
        "Pointer emulation vs analytic conditional WVP")}
    return tables, summary, figures


def _run_sweep(config: ScenarioConfig) -> tuple[dict, dict, dict]:
    ratios, errors, floors = convergence_sweep(
        run_tagged(config.state, config.channel, config.window_width,
                   config.focus_index), config.ratios)
    under_floor, monotone, slope = _floor_trend(ratios, errors, floors)
    ratio_col, error_col = np.array(ratios), np.array(errors)
    # An exact estimate's error is 0.0, which has no logarithm: the
    # figure leaves it out, and the table and summary keep it.
    shown = error_col > 0.0

    tables = {"sweep": {"ratio [1]": ratio_col,
                        "max_abs_error [1]": error_col}}
    summary = {
        "ratios": list(ratios),
        "errors": list(errors),
        "slope_smallest_pair": slope,
        "monotone_decreasing": monotone,
        "roundoff_floor": {"error": list(floors),
                           "ratios_under": under_floor},
    }
    figures = {"sweep": {
        "series": [(np.log10(ratio_col[shown]), np.log10(error_col[shown]),
                    "max-abs error")],
        "title": "Pointer estimator convergence",
        "xlabel": "log10 D/sigma", "ylabel": "log10 max-abs error"}}
    return tables, summary, figures


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
    return ResultBundle(command, *COMMANDS[command](config),
                        _provenance(config))
