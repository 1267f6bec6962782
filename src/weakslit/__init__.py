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
from .grid import LabFrame, SimGrid
from .states import (SlitGeometry, TransverseState, build_double_slit,
                     build_momentum_peak)
from .channels import (MeasurementChannel, classical_kick, identity_channel,
                       scully_wwm)
from .weak_values import (MomentumWindow, TransferDistribution, WvpCurve,
                          conditional_wvp, eraser_curves, joint_wvp,
                          momentum_distribution, transfer_distribution,
                          window_mask)
from .moments import (apodization_sweep, apodized_variance, mean_transfer,
                      moment_change, sharp_cutoff_variance, transfer_variance,
                      window_variance)
from .pointer import convergence_sweep, estimate_wvp, marginal, run_tagged
from .config import PRESETS, ScenarioConfig, from_dict
from .runner import ResultBundle, run
from .outputs import emit_outputs

__all__ = [
    "__version__",
    # errors
    "WeakslitError", "ConfigError", "GeometryError", "GridMismatchError",
    "MomentUndefinedError", "OutputError", "ResolutionError",
    "WindowRangeError", "CoverageWarning",
    # grids and lab frame
    "SimGrid", "LabFrame",
    # states
    "SlitGeometry", "TransverseState", "build_double_slit",
    "build_momentum_peak",
    # channels
    "MeasurementChannel", "identity_channel", "scully_wwm", "classical_kick",
    # weak values
    "MomentumWindow", "WvpCurve", "TransferDistribution", "joint_wvp",
    "conditional_wvp", "eraser_curves", "momentum_distribution",
    "transfer_distribution",
    "window_mask",
    # moments and regularization
    "mean_transfer", "transfer_variance", "sharp_cutoff_variance",
    "apodized_variance", "apodization_sweep", "window_variance",
    "moment_change",
    # pointer emulation
    "run_tagged", "estimate_wvp", "marginal", "convergence_sweep",
    # scenarios
    "ScenarioConfig", "PRESETS", "from_dict",
    "ResultBundle", "run", "emit_outputs",
]
