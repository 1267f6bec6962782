"""Shared fixtures: one mid-resolution grid for unit tests plus the
standard sharp/smooth slit states and channels built on it.

Unit tests run on 4096 points over 64 slit separations -- same momentum
spacing as the production default, a quarter of the samples.  The
acceptance tests build their own grids at the sizes their runtimes are
specified for.
"""

import numpy as np
import pytest

from weakslit import (LabFrame, MomentumWindow, SlitGeometry,
                      build_double_slit, make_grid, scully_wwm)

#: Tagged-window width in internal units: the 1.77 mm focal-plane sliver
#: mapped back through f = 1 m, lambda = 633 nm, s = 80 um.
BENCH_LAB = LabFrame(wavelength=633e-9, focal_length=1.0,
                     slit_separation=80e-6)
WINDOW_WIDTH = float(BENCH_LAB.momentum_from_position(1.77e-3))


@pytest.fixture(scope="session")
def grid():
    return make_grid(4096, 64.0)


@pytest.fixture(scope="session")
def dense_grid():
    """Small enough for O(N^2) dense-matrix oracles."""
    return make_grid(256, 16.0)


@pytest.fixture(scope="session")
def geom():
    return SlitGeometry(width=0.5, separation=1.0)


@pytest.fixture(scope="session")
def smooth_geom():
    return SlitGeometry(width=0.5, separation=1.0,
                        edge_profile="gaussian_smoothed")


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
