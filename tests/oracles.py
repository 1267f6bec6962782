"""Slow, obviously-correct reference implementations for the tests.

Everything here is dense linear algebra on small grids: the centred
Fourier transform is an explicit N x N matrix, window projectors are
boolean selections in momentum space, and joint quantities are
assembled branch by branch.  O(N^2) per curve is fine at N <= 256 and
keeps every intermediate inspectable.  None of it touches the FFT code
paths under test, except :func:`loop_transfer`: the per-window transfer
loop, which reuses the package's single-window J kernel and checks the
correlation-form assembly at production grid sizes.
"""

import warnings

import numpy as np

from weakslit import MomentumWindow, TransferDistribution, TransverseState
from weakslit.errors import CoverageWarning
from weakslit.weak_values import (COVERAGE_MIN, _check_eraser, _check_width,
                                  _joint, _sector_momentum_sums,
                                  _tiling_indices, window_mask)

ROOT_2PI = np.sqrt(2.0 * np.pi)


def dft_matrix(grid) -> np.ndarray:
    """W[k, j] = dx/sqrt(2 pi) * exp(-i p_k x_j); rows are momentum samples."""
    return np.exp(-1j * np.outer(grid.p, grid.x)) * (grid.dx / ROOT_2PI)


def idft_matrix(grid) -> np.ndarray:
    """Exact lattice inverse of :func:`dft_matrix` (dx dp N = 2 pi)."""
    return np.exp(1j * np.outer(grid.x, grid.p)) * (grid.dp / ROOT_2PI)


def _apply_branch(branch, amps):
    if branch.swap:
        amps = amps[::-1]
    return amps * branch.u


def _sector_amps(amps, ch, dft):
    """Per sector: coherently summed branch outputs in momentum space."""
    out = []
    for sector in ch.sectors:
        acc = np.zeros_like(amps, dtype=complex)
        for branch in ch.branches:
            if branch.sector == sector:
                acc = acc + _apply_branch(branch, amps)
        out.append(acc @ dft.T)
    return out


def _erase(amps_t, eraser):
    if eraser == "none":
        return list(amps_t)
    sign = 1.0 if eraser == "plus45" else -1.0
    return [(amps_t[0] + sign * amps_t[1]) / np.sqrt(2.0)]


def dense_joint(state, ch, window, eraser="none"):
    """Brute-force J(p_f) via explicit transform matrices."""
    grid = state.grid
    dft, idft = dft_matrix(grid), idft_matrix(grid)
    lo, hi = window.bounds
    sel = ((grid.p >= lo) & (grid.p < hi)).astype(float)
    chi = (sel * (state.amps @ dft.T)) @ idft.T

    psi_amps = _sector_amps(state.amps, ch, dft)
    chi_amps = _sector_amps(chi, ch, dft)
    j = np.zeros(grid.n_points)
    for psi_t, chi_t in zip(psi_amps, chi_amps):
        for pe, ce in zip(_erase(psi_t, eraser), _erase(chi_t, eraser)):
            j += np.real(ce * np.conj(pe))
    return j


def dense_conditional(state, ch, window, eraser="none"):
    """(values-with-NaN, defined) like the package curve, dense arithmetic."""
    grid = state.grid
    dft = dft_matrix(grid)
    j = dense_joint(state, ch, window, eraser)
    dens = np.zeros(grid.n_points)
    for psi_t in _sector_amps(state.amps, ch, dft):
        for pe in _erase(psi_t, eraser):
            dens += np.abs(pe) ** 2
    defined = dens > 1e-6 * dens.max()
    values = np.full(grid.n_points, np.nan)
    values[defined] = j[defined] / dens[defined]
    return values, defined


def dense_transfer(state, ch, width, indices, eraser="none"):
    """(q, density, coverage): the windowed transfer assembly, dense path.

    Shifting uses np.roll plus explicit zeroing of the wrapped samples,
    deliberately different from the slicing in the package.
    """
    grid = state.grid
    dft = dft_matrix(grid)
    dens = np.sum(np.abs(state.amps @ dft.T) ** 2, axis=0)
    acc = np.zeros(grid.n_points)
    coverage = 0.0
    for idx in indices:
        window = MomentumWindow(idx, width)
        lo, hi = window.bounds
        sel = (grid.p >= lo) & (grid.p < hi)
        coverage += float(np.sum(dens[sel]) * grid.dp)
        j = dense_joint(state, ch, window, eraser)
        m = int(round(window.center / grid.dp))
        rolled = np.roll(j, -m)
        if m >= 0:
            rolled[grid.n_points - m:] = 0.0
        else:
            rolled[:-m] = 0.0
        acc += rolled
    return grid.p.copy(), acc / coverage, coverage


def loop_transfer(state, ch, window_width, indices=None, eraser="none"):
    """The per-window transfer assembly: one projection and one
    channel pass per window, each window's J shifted to its centre.

    O(W N log N).  This was the package's implementation before the
    correlation form; kept verbatim as the oracle for it.
    """
    _check_eraser(eraser)
    grid = state.grid
    _check_width(grid, window_width)
    if indices is None:
        indices = _tiling_indices(grid, window_width)
    indices = tuple(int(n) for n in indices)

    amps_t = state.momentum_amplitudes()
    input_dens = np.sum(np.abs(amps_t) ** 2, axis=0)
    # The full-state side of J does not depend on the window: hoist it.
    psi_erased = _sector_momentum_sums(state, ch, eraser)

    acc = np.zeros(grid.n_points)
    coverage = 0.0
    n = grid.n_points
    for idx in indices:
        window = MomentumWindow(idx, window_width)
        mask = window_mask(grid, window)
        window_mass = float(np.sum(mask * input_dens) * grid.dp)
        coverage += window_mass
        if window_mass == 0.0:
            continue
        chi = TransverseState(grid, grid.from_momentum(mask * amps_t),
                              state.sharp_edges)
        j = _joint(chi, psi_erased, ch, eraser)
        shift = int(round(window.center / grid.dp))
        if shift >= n or shift <= -n:
            continue
        if shift >= 0:
            acc[: n - shift] += j[shift:]
        else:
            acc[-shift:] += j[: n + shift]

    if coverage < COVERAGE_MIN:
        warnings.warn(
            CoverageWarning(
                f"window tiling covers {coverage:.4f} of the momentum mass "
                f"(< {COVERAGE_MIN}); density is normalised to the covered part"
            ),
            stacklevel=2,
        )
    density = acc / coverage
    return TransferDistribution(grid.p.copy(), density, window_width,
                                indices, coverage, eraser)


def double_slit_momentum_amplitude(p, width, separation=1.0):
    """Continuum Fourier transform of two unit top-hat slits (unnormalised)."""
    envelope = width * np.sinc(p * width / (2.0 * np.pi))
    return 2.0 * np.cos(p * separation / 2.0) * envelope / ROOT_2PI


def kick_rect_density(q, kicks, width):
    """Kick distribution convolved with the window indicator, exactly."""
    out = np.zeros_like(q)
    for q_j, prob in kicks:
        box = (q >= q_j - width / 2.0) & (q < q_j + width / 2.0)
        out += prob * box.astype(float) / width
    return out


def pointer_intensity(imap, y):
    """Evaluate I(p_f, y) of an IntensityMap; shape (len(y), n_p)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    norm = (2.0 / (np.pi * imap.sigma ** 2)) ** 0.25
    g0 = norm * np.exp(-(y ** 2) / imap.sigma ** 2)
    gd = norm * np.exp(-((y - imap.displacement) ** 2) / imap.sigma ** 2)
    # rows: y samples; columns: p_f samples; sum over rank-2 terms
    field = (imap.untagged[np.newaxis, :, :] * g0[:, np.newaxis, np.newaxis]
             + imap.tagged[np.newaxis, :, :] * gd[:, np.newaxis, np.newaxis])
    return np.sum(np.abs(field) ** 2, axis=1)


def ygrid_pointer_stats(imap, n_y=4001, span=8.0):
    """Pointer marginal and centroid by brute-force y quadrature.

    Cross-checks the closed-form Gaussian integrals in the package
    against trapezoid integration of the evaluated intensity.
    """
    y = np.linspace(-span * imap.sigma,
                    span * imap.sigma + imap.displacement, n_y)
    intensity = pointer_intensity(imap, y)
    marginal = np.trapezoid(intensity, y, axis=0)
    first = np.trapezoid(intensity * y[:, np.newaxis], y, axis=0)
    centroid = np.where(marginal > 1e-6 * marginal.max(),
                        first / marginal, np.nan)
    return marginal, centroid
