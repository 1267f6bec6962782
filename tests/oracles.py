"""Slow, obviously-correct reference implementations for the tests.

Everything here is dense linear algebra on small grids: the centred
Fourier transform is an explicit N x N matrix, each sector's operator
u + v S is written out row by row, window projectors are boolean
selections in momentum space, and joint quantities are assembled
sector by sector.  O(N^2) per curve is fine at N <= 256 and
keeps every intermediate inspectable.  None of it touches the FFT code
paths under test, except the ``loop_*`` functions: the package's earlier
one-thing-at-a-time implementations, kept as oracles for the faster
paths that replaced them.  :func:`loop_transfer` is the per-window
transfer loop, :func:`loop_conditional_wvp` one eraser setting per call,
:func:`loop_convergence_sweep` one tagged run per ratio,
:func:`loop_table_csv` one formatting call per CSV value, and
:func:`stack_run_tagged` and :func:`stack_convergence_sweep` the pointer
built from complex amplitude stacks rather than from J, P and T.  The
``array_*`` functions are the package's earlier whole-array expressions
for J, P and the eraser projection of sector sums, kept as oracles for
the row-buffer forms that replaced them, and :func:`array_tiling_weights`
the (3, n) form of the tiling weights, kept for the one-candidate-at-a-
time form.

The oracles stay general in the polarisation: they act on (2, n)
amplitudes, which :func:`two_rows` builds from a state's H field and a
zero V row, and which :func:`transform_rows` transforms one row at a
time through the package's one-row transform.  :func:`two_row_sums` is
the package's two-row sector sum on them, and :func:`two_row_transfer`
its two-row correlation-form transfer assembly.  They project a +-45
eraser on each sector's momentum rows, (H +- V)/sqrt(2), as the package
once did; the package applies it in x, as the one-row multiplier
(u +- v)/sqrt(2) that :func:`erased_channel` builds, so the oracles
check that identity from outside it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from weakslit import (MeasurementChannel, MomentumWindow,
                      TransferDistribution, conditional_wvp, estimate_wvp,
                      run_tagged)
from weakslit.errors import CoverageWarning
from weakslit.grid import indicator
from weakslit.weak_values import (COVERAGE_MIN, EPS_DEN_FRACTION,
                                  _check_eraser, _check_width, _fast_len,
                                  _tiling_indices, _tiling_weights,
                                  _window_project, window_mask)

ROOT_2PI = np.sqrt(2.0 * np.pi)


def dft_matrix(grid) -> np.ndarray:
    """W[k, j] = dx/sqrt(2 pi) * exp(-i p_k x_j); rows are momentum samples."""
    return np.exp(-1j * np.outer(grid.p, grid.x)) * (grid.dx / ROOT_2PI)


def idft_matrix(grid) -> np.ndarray:
    """Exact lattice inverse of :func:`dft_matrix` (dx dp N = 2 pi)."""
    return np.exp(1j * np.outer(grid.x, grid.p)) * (grid.dp / ROOT_2PI)


def two_rows(field) -> np.ndarray:
    """(2, n) polarisation amplitudes of an H-polarised field: ``field``
    in H and zeros in V."""
    return np.array([field, np.zeros_like(field)])


def transform_rows(grid, amps, inverse=False) -> np.ndarray:
    """(rows, n) stack of the package's transform of each row of
    ``amps``, to momentum (or back, if ``inverse``)."""
    transform = grid.from_momentum if inverse else grid.to_momentum
    return np.array([transform(row) for row in amps])


def apply_sector(amps, u, v) -> np.ndarray:
    """(2, n) output of the sector operator K = u + v S on (2, n)
    amplitudes, written out row by row: H' = u H + v V, V' = u V + v H."""
    h, vert = amps
    v = 0.0 if v is None else v
    return np.array([u * h + v * vert, u * vert + v * h])


def _sector_amps(amps, ch, dft):
    """Per sector: its operator's output in momentum space."""
    return [apply_sector(amps, u, v) @ dft.T for u, v in ch.sectors]


def two_row_sums(grid, amps, ch, eraser="none"):
    """Per sector: the eraser-projected momentum output of its operator
    on (2, n) amplitudes, amps u + S(amps) v, through
    :func:`transform_rows`; the package's sector sums before states held
    H alone."""
    sums = []
    for u, v in ch.sectors:
        out = amps * u
        if v is not None:
            out += amps[::-1] * v
        sums.append(array_eraser_project(transform_rows(grid, out), eraser))
    return sums


def _erase(amps_t, eraser):
    if eraser == "none":
        return list(amps_t)
    sign = 1.0 if eraser == "plus45" else -1.0
    return [(amps_t[0] + sign * amps_t[1]) / np.sqrt(2.0)]


def array_joint(chi_erased, psi_erased) -> np.ndarray:
    """J(p_f): Re sum over rows of ce conj(pe), one stack per sector."""
    j = np.zeros(psi_erased[0].shape[-1])
    for ce, pe in zip(chi_erased, psi_erased):
        j += np.real(np.sum(ce * np.conj(pe), axis=0))
    return j


def array_density(erased) -> np.ndarray:
    """sum over rows of |pe|^2, one stack per sector."""
    dens = np.zeros(erased[0].shape[-1])
    for pe in erased:
        dens += np.sum(np.abs(pe) ** 2, axis=0)
    return dens


def array_eraser_project(amps, eraser) -> np.ndarray:
    """(2, n) amplitudes as they are for "none", else (1, n) (H +- V)/sqrt 2."""
    if eraser == "none":
        return amps
    sign = 1.0 if eraser == "plus45" else -1.0
    return ((amps[0] + sign * amps[1]) / np.sqrt(2.0))[np.newaxis, :]


def array_tiling_weights(grid, width, indices):
    """(samples, windows, weights) of ``weak_values._tiling_weights``,
    built over all three candidate windows at once as (3, n) arrays."""
    windows = (np.rint(grid.p / width)
               + np.array([[-1.0], [0.0], [1.0]])).astype(np.int64)
    center = windows * width
    half = width / 2.0
    weights = indicator(grid.p, grid.dp, center - half, center + half)
    k_lo, k_hi = int(windows[0, 0]), int(windows[-1, -1])
    weights *= np.bincount(
        np.array([k - k_lo for k in indices if k_lo <= k <= k_hi],
                 dtype=np.int64), minlength=k_hi - k_lo + 1)[windows - k_lo]
    rows, samples = np.nonzero(weights)
    return samples, windows[rows, samples], weights[rows, samples]


def dense_joint(state, ch, window, eraser="none"):
    """Brute-force J(p_f) via explicit transform matrices."""
    grid = state.grid
    dft, idft = dft_matrix(grid), idft_matrix(grid)
    lo, hi = window.bounds
    sel = ((grid.p >= lo) & (grid.p < hi)).astype(float)
    amps = two_rows(state.field)
    chi = (sel * (amps @ dft.T)) @ idft.T

    psi_amps = _sector_amps(amps, ch, dft)
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
    for psi_t in _sector_amps(two_rows(state.field), ch, dft):
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
    dens = np.sum(np.abs(two_rows(state.field) @ dft.T) ** 2, axis=0)
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
    correlation form; kept as the oracle for it, with the two-row sector
    sums of :func:`two_row_sums`.
    """
    _check_eraser(eraser)
    grid = state.grid
    _check_width(grid, window_width)
    if indices is None:
        indices = _tiling_indices(grid, window_width)
    indices = tuple(int(n) for n in indices)

    amps = two_rows(state.field)
    amps_t = transform_rows(grid, amps)
    input_dens = np.sum(np.abs(amps_t) ** 2, axis=0)
    # The full-state side of J does not depend on the window: hoist it.
    psi_erased = two_row_sums(grid, amps, ch, eraser)

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
        chi = transform_rows(grid, mask * amps_t, inverse=True)
        j = array_joint(two_row_sums(grid, chi, ch, eraser), psi_erased)
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
    floor = 16.0 * np.finfo(float).eps * np.sqrt(input_dens.max() / coverage)
    return TransferDistribution(grid.p.copy(), density, window_width,
                                indices, coverage, eraser, float(floor))


def sector_kernels(grid, u, v):
    """(swap, K) for the sector's swap part v, if any, then its part u:
    each multiplier's momentum-space convolution kernel, its response
    to a unit sample at p = 0."""
    unit = np.zeros(grid.n_points)
    unit[grid.n_points // 2] = 1.0
    flat = grid.from_momentum(unit)
    return [(swap, grid.to_momentum(m * flat))
            for swap, m in ((True, v), (False, u)) if m is not None]


def erased_channel(ch, eraser):
    """The channel whose one sector row is, for each sector K = u + v S
    of ``ch``, the multiplier (u +- v)/sqrt(2) of a +-45 eraser: the
    x-space form of projecting the sector's output on (H +- V)/sqrt(2).
    Run with no eraser, it is the one-row form of ``ch`` under
    ``eraser``."""
    sign = 1.0 if eraser == "plus45" else -1.0
    return MeasurementChannel(f"{ch.name}_{eraser}", tuple(
        ((u if v is None else u + sign * v) / np.sqrt(2.0), None)
        for u, v in ch.sectors), ch.grid)


def two_row_transfer(grid, amps, ch, window_width, indices, eraser="none"):
    """(density, coverage) of the correlation-form transfer assembly on
    (2, n) amplitudes ``amps``: the package's passes before states held
    H alone, with both rows transformed and correlated, the swap and the
    eraser applied to the rows themselves.  Refuses no input and warns
    of no coverage."""
    n = grid.n_points
    amps_t = transform_rows(grid, amps)
    samples, windows, weights = _tiling_weights(grid, window_width,
                                                tuple(indices))
    input_dens = np.sum(np.abs(amps_t) ** 2, axis=0)
    coverage = float(np.dot(weights, input_dens[samples]) * grid.dp)
    offsets = (samples - n // 2
               - np.rint(windows * window_width / grid.dp).astype(np.int64))
    j_lo = int(samples.min())
    span = int(samples.max()) + 1 - j_lo
    passes = []
    for d in sorted(set(offsets.tolist())):
        lag0 = d + n // 2 - j_lo
        passes.append((d, lag0, max(0, lag0 + 1 - span), min(n, lag0 + n)))
    size = _fast_len(max(max(n + lag0 - i_lo, i_hi - 1 - lag0 + span)
                         for _, lag0, i_lo, i_hi in passes))
    chunk = amps_t[:, j_lo:j_lo + span]
    acc = np.zeros(n)
    for (u, v), out in zip(ch.sectors, two_row_sums(grid, amps, ch, eraser)):
        phi = np.conj(np.fft.fft(out, size)) / size
        for d, lag0, i_lo, i_hi in passes:
            sel = offsets == d
            buf = np.zeros((2, size), dtype=complex)
            buf[:, :span] = chunk * np.bincount(samples[sel] - j_lo,
                                                weights[sel], span)
            buf = np.fft.fft(buf)
            for swap, kern in sector_kernels(grid, u, v):
                factor = array_eraser_project(buf[::-1] if swap else buf,
                                              eraser)
                corr = np.fft.fft(np.einsum("rl,rl->l", factor, phi))
                part = (kern.take(np.arange(i_lo - d, i_hi - d), mode="wrap")
                        * corr.take(np.arange(i_lo - lag0, i_hi - lag0),
                                    mode="wrap"))
                acc[i_lo:i_hi] += part.real
    return acc / coverage, coverage


def loop_conditional_wvp(state, ch, window, eraser="none"):
    """(values, defined, joint) of one eraser setting, built from its own
    window projection and its own eraser-projected two-row sector sums
    (:func:`two_row_sums`), with J and P from :func:`array_joint` and
    :func:`array_density`.

    This was the package's ``conditional_wvp`` before the eraser
    settings shared one projection; the oracle for ``eraser_curves``.
    """
    _check_eraser(eraser)
    grid = state.grid
    psi_erased = two_row_sums(grid, two_rows(state.field), ch, eraser)
    chi = two_rows(_window_project(state, window).field)
    j = array_joint(two_row_sums(grid, chi, ch, eraser), psi_erased)
    dens = array_density(psi_erased)
    defined = dens > EPS_DEN_FRACTION * dens.max()
    values = np.full(grid.n_points, np.nan)
    values[defined] = j[defined] / dens[defined]
    return values, defined, j


def loop_convergence_sweep(state, ch, window, ratios):
    """(ratios, errors) with one tagged run and one estimate per ratio.

    This was the package's ``convergence_sweep`` before the tagged run
    was hoisted out of the ratio loop.
    """
    ratios = tuple(sorted((float(r) for r in ratios), reverse=True))
    analytic = conditional_wvp(state, ch, window)
    errors = []
    for ratio in ratios:
        est = estimate_wvp(run_tagged(state, ch, window), ratio)
        both = np.isfinite(analytic.values) & np.isfinite(est)
        errors.append(float(np.max(np.abs(est[both]
                                          - analytic.values[both]))))
    return ratios, tuple(errors)


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


def _row_sums(untagged: np.ndarray, tagged: np.ndarray) -> tuple:
    """(cross, tagged_w, squares) per p_f sample, summed over the rows:
    Re sum untagged conj(tagged), sum |tagged|^2 and
    sum |untagged|^2 + |tagged|^2.  None of them depends on D."""
    cross = np.sum(np.real(untagged * np.conj(tagged)), axis=0)
    tagged_w = np.sum(np.abs(tagged) ** 2, axis=0)
    squares = np.sum(np.abs(untagged) ** 2 + np.abs(tagged) ** 2, axis=0)
    return cross, tagged_w, squares


def pointer_centroid(curve, sigma, displacement) -> np.ndarray:
    """Mean vertical displacement d(p_f) of the tagged window's
    conditional curve under a pointer of half-width ``sigma`` shifted by
    ``displacement``: D times the estimate; NaN where the intensity
    vanishes.  Only the tests read it, so it lives here rather than in
    the package."""
    return displacement * estimate_wvp(curve, displacement / sigma)


def _gaussian_overlap(displacement: float, sigma: float) -> float:
    """<G_0|G_D> = exp(-D^2 / (2 sigma^2)), straight from D and sigma."""
    return float(np.exp(-0.5 * (displacement / sigma) ** 2))


def _centroid(sums: tuple, displacement: float, overlap: float) -> np.ndarray:
    """Mean vertical displacement from :func:`_row_sums`; NaN where the
    y-integrated intensity is below the definedness threshold."""
    cross, tagged_w, squares = sums
    num = displacement * (tagged_w + overlap * cross)
    den = squares + 2.0 * overlap * cross
    out = np.full(den.shape, np.nan)
    ok = den > EPS_DEN_FRACTION * den.max()
    out[ok] = num[ok] / den[ok]
    return out


@dataclass
class StackMap:
    """Rank-2 representation of the joint (p_f, y) intensity.

    ``untagged`` and ``tagged`` stack one row per (sector,
    polarisation) term; the y profile attached to each row is G_0 for
    untagged and G_D for tagged amplitude.
    """

    p_f: np.ndarray
    untagged: np.ndarray
    tagged: np.ndarray
    sigma: float
    displacement: float
    window: MomentumWindow
    ratio: float

    @property
    def overlap(self) -> float:
        """<G_0|G_D> = exp(-D^2 / (2 sigma^2))."""
        return _gaussian_overlap(self.displacement, self.sigma)

    def marginal(self) -> np.ndarray:
        """y-integrated intensity per p_f sample."""
        cross, _, squares = _row_sums(self.untagged, self.tagged)
        return squares + 2.0 * self.overlap * cross

    def centroid(self) -> np.ndarray:
        """Mean vertical displacement d(p_f); NaN where intensity vanishes."""
        return _centroid(_row_sums(self.untagged, self.tagged),
                         self.displacement, self.overlap)


def stack_run_tagged(state, ch, window, sigma, displacement) -> StackMap:
    """Propagate the state, ``window`` tagged by a pointer of half-width
    ``sigma`` shifted by ``displacement``, through the channel.

    The window projection and its complement each pass through the
    channel, and their sector sums are kept as complex (rows, n)
    stacks.  This was the package's ``run_tagged`` before the pointer
    was built from the conditional curve's J, P and T; the oracle for
    ``run_tagged``.
    """
    grid = state.grid
    proj = _window_project(state, window)
    rest = two_rows(state.field - proj.field)
    tagged = np.concatenate(two_row_sums(grid, two_rows(proj.field), ch))
    untagged = np.concatenate(two_row_sums(grid, rest, ch))
    return StackMap(grid.p.copy(), untagged, tagged, sigma, displacement,
                    window, displacement / sigma)


def stack_convergence_sweep(state, ch, window, sigma, ratios):
    """(ratios, errors) from the row sums of :func:`stack_run_tagged`,
    with D = ratio * ``sigma`` at each ratio.

    This was the package's ``convergence_sweep`` before the pointer was
    built from J, P and T.
    """
    ratios = tuple(sorted((float(r) for r in ratios), reverse=True))
    analytic = conditional_wvp(state, ch, window)
    stacks = stack_run_tagged(state, ch, window, sigma, sigma)
    sums = _row_sums(stacks.untagged, stacks.tagged)
    errors = []
    for ratio in ratios:
        d = ratio * sigma
        values = _centroid(sums, d, _gaussian_overlap(d, sigma)) / d
        both = np.isfinite(analytic.values) & np.isfinite(values)
        errors.append(float(np.max(np.abs(values[both]
                                          - analytic.values[both]))))
    return ratios, tuple(errors)


def dense_pointer_stacks(state, ch, window):
    """(untagged, tagged) momentum stacks, one row per (sector,
    polarisation), from explicit transform matrices: the channel
    outputs of the rest of the state and of its window projection."""
    grid = state.grid
    dft, idft = dft_matrix(grid), idft_matrix(grid)
    lo, hi = window.bounds
    sel = ((grid.p >= lo) & (grid.p < hi)).astype(float)
    amps = two_rows(state.field)
    chi = (sel * (amps @ dft.T)) @ idft.T
    tagged = np.concatenate(_sector_amps(chi, ch, dft), axis=0)
    untagged = np.concatenate(_sector_amps(amps - chi, ch, dft), axis=0)
    return untagged, tagged


def pointer_intensity(untagged, tagged, sigma, displacement, y):
    """Evaluate I(p_f, y) of two amplitude stacks; shape (len(y), n_p)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    norm = (2.0 / (np.pi * sigma ** 2)) ** 0.25
    g0 = norm * np.exp(-(y ** 2) / sigma ** 2)
    gd = norm * np.exp(-((y - displacement) ** 2) / sigma ** 2)
    # rows: y samples; columns: p_f samples; sum over rank-2 terms
    field = (untagged[np.newaxis, :, :] * g0[:, np.newaxis, np.newaxis]
             + tagged[np.newaxis, :, :] * gd[:, np.newaxis, np.newaxis])
    return np.sum(np.abs(field) ** 2, axis=1)


def ygrid_pointer_stats(untagged, tagged, sigma, displacement, n_y=4001,
                        span=8.0):
    """Pointer marginal and centroid by brute-force y quadrature.

    Cross-checks the closed-form Gaussian integrals in the package
    against trapezoid integration of the evaluated intensity.
    """
    y = np.linspace(-span * sigma, span * sigma + displacement, n_y)
    intensity = pointer_intensity(untagged, tagged, sigma, displacement, y)
    marginal = np.trapezoid(intensity, y, axis=0)
    first = np.trapezoid(intensity * y[:, np.newaxis], y, axis=0)
    centroid = np.where(marginal > 1e-6 * marginal.max(),
                        first / marginal, np.nan)
    return marginal, centroid


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return "%.12g" % value


def loop_table_csv(table) -> str:
    """The per-value CSV writer: one formatting call per number.

    This was the package's ``outputs._table_csv`` before rows were
    formatted in blocks; kept verbatim as the oracle for it, except that
    it stacks the table's columns into rows first.
    """
    header = ",".join(f"{name} [{unit}]" for name, unit in table.columns)
    lines = [header]
    for row in np.column_stack(table.data):
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"
