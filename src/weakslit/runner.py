"""Scenario execution: one entry point per figure-style analysis command.

Each command assembles deterministic data tables, a scalar summary, and
figure descriptions from a validated :class:`ScenarioConfig`.  File
emission lives in :mod:`weakslit.outputs`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .errors import ConfigError
from .moments import (apodization_sweep, sharp_cutoff_variance,
                      window_variance)
from .pointer import convergence_sweep, estimate_wvp, run_tagged
from .weak_values import (EPS_DEN_FRACTION, COVERAGE_MIN, conditional_wvp,
                          eraser_curves, momentum_distribution,
                          transfer_distribution, window_mask)
# No command calls joint_wvp any more; perfbench/layers.py still wraps
# the name here to trace it.
from .weak_values import joint_wvp  # noqa: F401

__all__ = ["Table", "Figure", "ResultBundle", "run", "COMMANDS"]

_TWO_PI = 2.0 * np.pi

#: Momentum half-range (internal units) shown in figures; tables keep all samples.
PLOT_RANGE = 4.0 * _TWO_PI


@dataclass
class Table:
    """A data table with (column, unit) headers; the bundle's key names it."""

    columns: tuple[tuple[str, str], ...]
    data: np.ndarray


@dataclass
class Figure:
    """Declarative line-plot description rendered by the SVG backend."""

    name: str
    series: list
    title: str
    xlabel: str
    ylabel: str
    x2label: str | None = None
    x2scale: float | None = None


@dataclass
class ResultBundle:
    command: str
    tables: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    figures: list = field(default_factory=list)


class _Scene:
    """The config's built objects plus the per-run plot helpers."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.grid = config.grid
        self.state = config.state
        self.channel = config.channel
        self.width = config.window_width_internal()
        self.indices = config.window_indices()
        self.eraser = config.eraser()
        # focal-plane millimetres per internal momentum unit
        self.mm_per_unit = float(config.lab.focal_plane_position(1.0)) * 1e3

    def lab_mm(self, p_internal: np.ndarray) -> np.ndarray:
        return p_internal * self.mm_per_unit

    def plot_sel(self, p: np.ndarray) -> np.ndarray:
        return np.abs(p) <= PLOT_RANGE

    def provenance(self) -> dict:
        return {
            "config_sha256": self.config.config_hash(),
            "package_version": __version__,
            "grid_n_points": self.grid.n_points,
            "grid_x_extent": self.grid.x_extent,
            "dp_internal": self.grid.dp,
            "eps_den_fraction": EPS_DEN_FRACTION,
            "coverage_min": COVERAGE_MIN,
        }


def _run_wvp(scene: _Scene) -> ResultBundle:
    window = scene.config.pointer.window()
    curve = conditional_wvp(scene.state, scene.channel, window, scene.eraser)
    dens_in = momentum_distribution(scene.state)
    dens_out = momentum_distribution(scene.state, scene.channel)
    p = scene.grid.p

    bundle = ResultBundle("wvp")
    bundle.tables["wvp"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"), ("conditional", "1"),
        ("joint", "s/hbar"), ("defined", "0/1"),
    ), np.column_stack([p, scene.lab_mm(p), curve.values, curve.joint,
                        curve.defined.astype(float)]))
    bundle.tables["intensity"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"),
        ("input_density", "s/hbar"), ("output_density", "s/hbar"),
    ), np.column_stack([p, scene.lab_mm(p), dens_in, dens_out]))

    in_window = window_mask(scene.grid, window) > 0.5
    ok = curve.defined
    bundle.summary = {
        "window_index": window.index,
        "window_width": window.width,
        "eraser": scene.eraser,
        "conditional_min": float(np.nanmin(curve.values[ok])),
        "conditional_max": float(np.nanmax(curve.values[ok])),
        "in_window_min": float(np.nanmin(curve.values[ok & in_window])),
        "in_window_max": float(np.nanmax(curve.values[ok & in_window])),
    }
    sel = scene.plot_sel(p)
    bundle.figures.append(Figure(
        "wvp",
        [(p[sel], curve.values[sel], "conditional WVP"),
         (p[sel], dens_out[sel] / dens_out.max(), "output density (scaled)")],
        "Conditional weak-valued probability",
        "p_f [hbar/s x 2pi per fringe]", "value",
        "focal plane [mm]", scene.mm_per_unit,
    ))
    return bundle


def _run_transfer(scene: _Scene) -> ResultBundle:
    dist = transfer_distribution(scene.state, scene.channel, scene.width,
                                 scene.indices, scene.eraser)
    bundle = ResultBundle("transfer")
    bundle.tables["transfer"] = Table((
        ("q", "hbar/s"), ("q_lab", "mm"), ("density", "s/hbar"),
    ), np.column_stack([dist.q, scene.lab_mm(dist.q), dist.density]))
    bundle.summary = {
        "integral": dist.integral(),
        "coverage": dist.coverage,
        "mass_outside_hbar_over_s": dist.mass_outside(1.0),
        "window_width": dist.window_width,
        "n_windows": len(dist.windows),
        "eraser": dist.eraser,
        "density_min": float(dist.density.min()),
        "density_max": float(dist.density.max()),
    }
    sel = scene.plot_sel(dist.q)
    bundle.figures.append(Figure(
        "transfer",
        [(dist.q[sel], dist.density[sel], "P_wv(q)")],
        "Weak-valued momentum-transfer distribution",
        "q [hbar/s x 2pi per fringe]", "density [s/hbar]",
        "focal plane [mm]", scene.mm_per_unit,
    ))
    return bundle


def _run_variance(scene: _Scene) -> ResultBundle:
    dist = transfer_distribution(scene.state, scene.channel, scene.width,
                                 scene.indices, scene.eraser)
    reg = scene.config.regularization
    reg.validate_range(dist)
    sharp = np.array([sharp_cutoff_variance(dist, q) for q in reg.q_max])
    report = apodization_sweep(dist, reg.kappa)

    signs = np.sign(sharp[np.abs(sharp) > 0.0])
    sign_changes = int(np.sum(signs[1:] * signs[:-1] < 0.0))

    bundle = ResultBundle("variance")
    bundle.tables["variance_sharp"] = Table((
        ("q_max", "hbar/s"), ("value", "(hbar/s)^2"),
    ), np.column_stack([np.array(reg.q_max), sharp]))
    bundle.tables["variance_apodized"] = Table((
        ("kappa", "hbar/s"), ("value", "(hbar/s)^2"),
    ), np.column_stack([np.array(report.kappas), np.array(report.values)]))
    bundle.summary = {
        "sign_changes": sign_changes,
        "largest_kappa": report.kappas[-1],
        "largest_kappa_value": report.largest_kappa_value,
        "apodized_last_gap": report.last_gap,
        "apodized_trend": report.trend,
        "window_variance_lattice": window_variance(dist.window_width,
                                                   scene.grid.dp),
        "window_variance_continuum": window_variance(dist.window_width),
        "coverage": dist.coverage,
    }
    bundle.figures.append(Figure(
        "variance_sharp",
        [(np.array(reg.q_max), sharp, "sharp-cutoff variance")],
        "Variance integral vs sharp cutoff",
        "q_max [hbar/s]", "integral [(hbar/s)^2]",
    ))
    bundle.figures.append(Figure(
        "variance_apodized",
        [(np.array(report.kappas), np.array(report.values), "apodized variance")],
        "Variance integral vs apodization scale",
        "kappa [hbar/s]", "integral [(hbar/s)^2]",
    ))
    return bundle


def _run_eraser(scene: _Scene) -> ResultBundle:
    window = scene.config.pointer.window()
    curves = eraser_curves(scene.state, scene.channel, window)
    plus, minus = curves["plus45"], curves["minus45"]
    j_none, j_plus, j_minus = curves["none"].joint, plus.joint, minus.joint
    p = scene.grid.p
    in_window = window_mask(scene.grid, window) > 0.5
    out = ~in_window

    def out_mass(j):
        return float(np.sum(np.abs(j)[out]) * scene.grid.dp)

    indicator = in_window.astype(float)
    plus_dev = float(np.nanmax(np.abs(plus.values[plus.defined]
                                      - indicator[plus.defined])))

    bundle = ResultBundle("eraser")
    bundle.tables["eraser_curves"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"),
        ("plus45", "1"), ("plus45_defined", "0/1"),
        ("minus45", "1"), ("minus45_defined", "0/1"),
    ), np.column_stack([p, scene.lab_mm(p), plus.values,
                        plus.defined.astype(float), minus.values,
                        minus.defined.astype(float)]))
    bundle.tables["eraser_joint"] = Table((
        ("p_f", "hbar/s"), ("joint_none", "s/hbar"),
        ("joint_plus45", "s/hbar"), ("joint_minus45", "s/hbar"),
    ), np.column_stack([p, j_none, j_plus, j_minus]))
    bundle.summary = {
        "window_index": window.index,
        "partition_max_abs": float(np.max(np.abs(j_none - j_plus - j_minus))),
        "plus45_indicator_max_dev": plus_dev,
        "out_of_window_mass_none": out_mass(j_none),
        "out_of_window_mass_plus45": out_mass(j_plus),
        "out_of_window_mass_minus45": out_mass(j_minus),
    }
    sel = scene.plot_sel(p)
    bundle.figures.append(Figure(
        "eraser",
        [(p[sel], plus.values[sel], "+45 eraser"),
         (p[sel], minus.values[sel], "-45 eraser")],
        "Eraser-resolved conditional WVP",
        "p_f [hbar/s x 2pi per fringe]", "value",
        "focal plane [mm]", scene.mm_per_unit,
    ))
    return bundle


def _run_pointer(scene: _Scene) -> ResultBundle:
    spec = scene.config.pointer
    imap = run_tagged(scene.state, scene.channel, spec)
    est = estimate_wvp(imap)
    analytic = imap.analytic
    both = est.defined & analytic.defined
    dev = float(np.max(np.abs(est.values[both] - analytic.values[both])))
    dens = analytic.density / (np.sum(analytic.density) * scene.grid.dp)
    marg = imap.marginal()
    marg = marg / (np.sum(marg) * scene.grid.dp)
    p = scene.grid.p

    bundle = ResultBundle("pointer")
    bundle.tables["pointer"] = Table((
        ("p_f", "hbar/s"), ("p_f_lab", "mm"), ("estimate", "1"),
        ("estimate_defined", "0/1"), ("analytic", "1"),
        ("analytic_defined", "0/1"),
    ), np.column_stack([p, scene.lab_mm(p), est.values,
                        est.defined.astype(float), analytic.values,
                        analytic.defined.astype(float)]))
    bundle.summary = {
        "ratio": spec.ratio,
        "window_index": spec.index,
        "window_width": spec.window().width,
        "max_abs_dev_vs_analytic": dev,
        "marginal_max_abs_dev": float(np.max(np.abs(marg - dens))),
    }
    sel = scene.plot_sel(p)
    bundle.figures.append(Figure(
        "pointer",
        [(p[sel], est.values[sel], f"pointer estimate (D/sigma={spec.ratio:g})"),
         (p[sel], analytic.values[sel], "analytic")],
        "Pointer emulation vs analytic conditional WVP",
        "p_f [hbar/s x 2pi per fringe]", "value",
        "focal plane [mm]", scene.mm_per_unit,
    ))
    return bundle


def _run_sweep(scene: _Scene) -> ResultBundle:
    spec = scene.config.pointer
    report = convergence_sweep(scene.state, scene.channel, spec,
                               scene.config.pointer_ratios())
    ratios = np.array(report.ratios)
    errors = np.array(report.errors)

    bundle = ResultBundle("sweep")
    bundle.tables["sweep"] = Table((
        ("ratio", "1"), ("max_abs_error", "1"),
    ), np.column_stack([ratios, errors]))
    bundle.summary = {
        "ratios": list(report.ratios),
        "errors": list(report.errors),
        "slope_smallest_pair": report.slope(),
        "monotone_decreasing": report.monotone_decreasing,
    }
    bundle.figures.append(Figure(
        "sweep",
        [(np.log10(ratios), np.log10(errors), "max-abs error")],
        "Pointer estimator convergence",
        "log10 D/sigma", "log10 max-abs error",
    ))
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
            f"unknown command {command!r}; expected one of {sorted(COMMANDS)}")
    scene = _Scene(config)
    bundle = COMMANDS[command](scene)
    bundle.provenance = scene.provenance()
    return bundle
