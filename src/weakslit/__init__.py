"""Weak-valued momentum-transfer analysis for a marked double slit.

The package simulates a two-slit interferometer with an optional
polarization which-way marker, computes weak-valued probabilities and
the windowed momentum-transfer distribution they induce, regularizes
the distribution's moments, and emulates the whole protocol with a
finite-strength displaced-beam pointer.
"""

__version__ = "0.1.0"

from .errors import (CoverageWarning, ConfigError, GeometryError,
                     GridMismatchError, MomentUndefinedError, OutputError,
                     ResolutionError, WeakslitError, WindowRangeError)
from .grid import LabFrame, SimGrid, make_grid
from .states import (SlitGeometry, TransverseState, build_double_slit,
                     build_momentum_peak)
from .channels import (Branch, MeasurementChannel, classical_kick,
                       identity_channel, scully_wwm)
from .weak_values import (MomentumWindow, TransferDistribution, WvpCurve,
                          conditional_wvp, joint_wvp, momentum_distribution,
                          transfer_distribution, window_mask, window_project)
from .moments import (ApodizationReport, RegularizationSpec,
                      apodization_sweep, apodized_variance, mean_transfer,
                      moment_change, sharp_cutoff_variance, transfer_variance,
                      window_variance)
from .pointer import (ConvergenceReport, IntensityMap, PointerSpec,
                      convergence_sweep, estimate_wvp, run_tagged)
from .config import PRESETS, ScenarioConfig, from_dict, parse_config
from .runner import ResultBundle, run
from .outputs import emit_outputs

__all__ = [
    "__version__",
    # errors
    "WeakslitError", "ConfigError", "GeometryError", "GridMismatchError",
    "MomentUndefinedError", "OutputError", "ResolutionError",
    "WindowRangeError", "CoverageWarning",
    # grids and lab frame
    "SimGrid", "LabFrame", "make_grid",
    # states
    "SlitGeometry", "TransverseState", "build_double_slit",
    "build_momentum_peak",
    # channels
    "Branch", "MeasurementChannel", "identity_channel", "scully_wwm",
    "classical_kick",
    # weak values
    "MomentumWindow", "WvpCurve", "TransferDistribution", "joint_wvp",
    "conditional_wvp", "momentum_distribution", "transfer_distribution",
    "window_mask", "window_project",
    # moments and regularization
    "RegularizationSpec", "ApodizationReport", "mean_transfer",
    "transfer_variance", "sharp_cutoff_variance", "apodized_variance",
    "apodization_sweep", "window_variance", "moment_change",
    # pointer emulation
    "PointerSpec", "IntensityMap", "ConvergenceReport", "run_tagged",
    "estimate_wvp", "convergence_sweep",
    # scenarios
    "ScenarioConfig", "PRESETS", "parse_config", "from_dict",
    "ResultBundle", "run", "emit_outputs",
]
