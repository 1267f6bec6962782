"""Shared fixtures: one mid-resolution grid for unit tests plus the
standard sharp/smooth slit states and channels built on it.

Unit tests run on 4096 points over 64 slit separations -- same momentum
spacing as the production default, a quarter of the samples.  The
acceptance tests build their own grids at the sizes their runtimes are
specified for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weakslit import (LabFrame, MomentumWindow, SimGrid, SlitGeometry,
                      build_double_slit, scully_wwm)

#: Tagged-window width in internal units: the 1.77 mm focal-plane sliver
#: mapped back through f = 1 m, lambda = 633 nm, s = 80 um.
BENCH_LAB = LabFrame(wavelength=633e-9, focal_length=1.0,
                     slit_separation=80e-6)
WINDOW_WIDTH = float(BENCH_LAB.momentum_from_position(1.77e-3))

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process that imports this checkout.

    ``src/`` goes first on the child's ``PYTHONPATH``, so the child finds
    the package whether or not it is installed.  stdout and stderr are
    piped and returned as text.
    """
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          **kwargs)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """``json.loads`` that refuses NaN and +-Infinity: Python writes them,
    but they are not JSON and strict parsers reject them."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.fixture(scope="session")
def grid():
    return SimGrid(4096, 64.0)


@pytest.fixture(scope="session")
def dense_grid():
    """Small enough for O(N^2) dense-matrix oracles."""
    return SimGrid(256, 16.0)


@pytest.fixture(scope="session")
def geom():
    return SlitGeometry(width=0.5)


@pytest.fixture(scope="session")
def smooth_geom():
    return SlitGeometry(width=0.5, edge_profile="gaussian_smoothed")


@pytest.fixture(scope="session")
def slit_state(geom, grid):
    return build_double_slit(geom, grid)


@pytest.fixture(scope="session")
def smooth_state(smooth_geom, grid):
    return build_double_slit(smooth_geom, grid)


@pytest.fixture(scope="session")
def wwm(grid):
    return scully_wwm(grid)


@pytest.fixture
def focus_window():
    return MomentumWindow(-1, WINDOW_WIDTH)


@pytest.fixture(scope="session")
def lab():
    return BENCH_LAB


def assert_all_finite(arr):
    assert np.all(np.isfinite(arr))
