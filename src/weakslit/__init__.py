"""Weak-valued momentum-transfer analysis for a marked double slit.

The package simulates a two-slit interferometer with an optional
polarization which-way marker, computes weak-valued probabilities and
the windowed momentum-transfer distribution they induce, regularizes
the distribution's moments, and emulates the whole protocol with a
finite-strength displaced-beam pointer.

Each module's ``__all__`` is the one list of its public names; the
package exports those of the modules below and nothing else.
"""

__version__ = "0.1.0"

# Importing a submodule binds its name here, so ``errors.__all__`` and
# the rest resolve below.
from .errors import *
from .grid import *
from .states import *
from .channels import *
from .weak_values import *
from .moments import *
from .pointer import *
from .config import *
from .runner import *
from .outputs import *

__all__ = ["__version__", *errors.__all__, *grid.__all__, *states.__all__,
           *channels.__all__, *weak_values.__all__, *moments.__all__,
           *pointer.__all__, *config.__all__, *runner.__all__,
           *outputs.__all__]
