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
import warnings
from pathlib import Path

import numpy as np
import pytest

from weakslit import (CoverageWarning, MeasurementChannel, SimGrid,
                      build_double_slit, identity_channel, scully_wwm,
                      transfer_distribution)

#: Tagged-window width in internal units: the 1.77 mm focal-plane sliver
#: over the fringe period f * lambda / s, with f = 1 m, lambda = 633 nm
#: and s = 80 um, times 2 pi.
WINDOW_WIDTH = 1.77e-3 * (2.0 * np.pi) / (1.0 * 633e-9 / 80e-6)

#: The standard slit: half a separation wide; smoothed slits take the
#: config's default edge scale, a tenth of the width.
SLIT_WIDTH = 0.5
EDGE_SCALE = SLIT_WIDTH / 10.0

#: The standard slit's edge scale by the config's edge_profile name.
EDGE_SCALES = {"sharp": None, "gaussian_smoothed": EDGE_SCALE}

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, prefix=(), **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process that imports this checkout.

    ``src/`` goes first on the child's ``PYTHONPATH``, so the child finds
    the package whether or not it is installed.  A *prefix* command, such
    as ``taskset -c 0``, runs the interpreter.  stdout and stderr are
    piped and returned as text.
    """
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([*prefix, sys.executable, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """``json.loads`` that refuses NaN and +-Infinity: Python writes them,
    but they are not JSON and strict parsers reject them."""
    return json.loads(text, parse_constant=_refuse_constant)


def partial_marker(grid, theta, phi=np.pi / 2) -> MeasurementChannel:
    """K = 1 on x >= 0 and cos theta + e^(i phi) sin theta S on x < 0,
    built straight from its (u, v).  At the default phi = pi/2 it is
    exp(i theta S): which-way distinguishability sin theta, fringe
    visibility cos theta; theta = pi/2 marks fully.  e^(i phi) is formed
    as i e^(i (phi - pi/2)), which is exactly i at the default."""
    left = grid.x < 0.0
    swap = 1j * np.exp(1j * (phi - np.pi / 2)) * np.sin(theta)
    return MeasurementChannel("partial_marker", (
        (np.where(left, np.cos(theta), 1.0), np.where(left, swap, 0.0)),),
        grid)


def eraser_port_basis(state, width, indices=None) -> tuple:
    """(P_mk, R, L, I): the four eraser-free transfer densities whose
    sums give a +-45 port of every :func:`partial_marker`.

    P_mk is the marker's; R = P_id - P_mk; L = P_mk - P_right, where the
    right-slit channel blocks x < 0; I = P_i - P_mk, where the phase-step
    channel multiplies x < 0 by i.  None depends on (theta, phi).
    """
    grid = state.grid
    left = grid.x < 0.0
    channels = (scully_wwm(grid), identity_channel(grid),
                MeasurementChannel("right_slit", ((~left, None),), grid),
                MeasurementChannel("phase_step",
                                   ((np.where(left, 1j, 1.0), None),), grid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        marked, plain, right, step = (
            transfer_distribution(state, ch, width, indices).density
            for ch in channels)
    return marked, plain - marked, marked - right, step - marked


def eraser_port(basis, theta, phi, sign) -> np.ndarray:
    """P_+ (sign 1, ``plus45``) or P_- (sign -1, ``minus45``) of
    ``partial_marker(grid, theta, phi)`` from :func:`eraser_port_basis`:

        1/2 [P_mk + cos(theta) R
             + sign (sin(2 theta) cos(phi) L
                     + sin(theta) (cos(phi) R + sin(phi) I))].
    """
    marked, r, l_, i = basis
    return 0.5 * (marked + np.cos(theta) * r + sign * (
        np.sin(2.0 * theta) * np.cos(phi) * l_
        + np.sin(theta) * (np.cos(phi) * r + np.sin(phi) * i)))


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process behind, running or not
    yet waited for: emit_outputs forks row writers and must reap them."""
    yield
    try:
        found = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid: {found})")


@pytest.fixture(scope="session")
def grid():
    return SimGrid(4096, 64.0)


@pytest.fixture(scope="session")
def dense_grid():
    """Small enough for O(N^2) dense-matrix oracles."""
    return SimGrid(256, 16.0)


@pytest.fixture(scope="session")
def slit_state(grid):
    return build_double_slit(SLIT_WIDTH, grid)


@pytest.fixture(scope="session")
def smooth_state(grid):
    return build_double_slit(SLIT_WIDTH, grid, EDGE_SCALE)


@pytest.fixture(scope="session")
def wwm(grid):
    return scully_wwm(grid)


@pytest.fixture
def focus_window():
    """(width, index) of the tagged window, as the window functions
    take them."""
    return WINDOW_WIDTH, -1


def assert_all_finite(arr):
    assert np.all(np.isfinite(arr))
