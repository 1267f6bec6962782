"""Weak-valued probabilities, conditional curves, and transfer distributions.

The central objects are built from the joint quantity

    J(p_f) = Re sum_sectors < e(U chi) , e(U psi) > (p_f),

where chi is the momentum-window projection of the input state, U the
measurement channel applied one sector's operator u + v S at a time,
and e the optional polarisation-eraser projection.  Every state is H
polarised, so a sector's output is one or two multiples of the H field
h: u h in H and v h in V without an eraser, and
e(K h) = ((u +- v)/sqrt(2)) h with a +-45 one (:func:`_output_rows`).
J is a sum over those rows, one (chi row, psi row) pair at a time.
J equals
the conditional weak-valued probability times the post-selection
density, so it is finite everywhere -- including the fringe zeros where
the conditional ratio is 0/0.  Division happens only at display time,
guarded by a relative threshold on the denominator.

Summing J over a window tiling, with each window's contribution shifted
to its momentum offset q = p_f - p_i, yields the weak-valued
momentum-transfer distribution P_wv(q).  It integrates to one over the
covered momentum mass, can be negative for nonclassical channels, and
reduces to the kick distribution convolved with the window indicator
for classical ones.

P_wv(q) is not assembled window by window but as about width/dp + 1
cross-correlations, one per offset of a sample from its window's centre,
whatever the window count: see :func:`transfer_distribution`.
"""

import warnings
from typing import Iterable

import numpy as np

from .channels import MeasurementChannel, identity_channel
from .errors import (ConfigError, CoverageWarning, GridMismatchError,
                     ResolutionError, WindowRangeError)
from .grid import SimGrid, indicator
from .states import TransverseState

__all__ = [
    "ERASERS",
    "MomentumWindow",
    "WvpCurve",
    "TransferDistribution",
    "window_mask",
    "joint_wvp",
    "conditional_wvp",
    "eraser_curves",
    "transfer_distribution",
    "momentum_distribution",
]

ERASERS = ("none", "plus45", "minus45")

#: Relative denominator threshold below which conditional values are undefined.
EPS_DEN_FRACTION = 1e-6

#: Minimum fraction of momentum mass a window tiling must cover.
COVERAGE_MIN = 0.99


class MomentumWindow:
    """Momentum bin number ``index`` of a tiling with bin width ``width``.

    Window n covers the half-open interval
    [n*width - width/2, n*width + width/2), so integer-indexed windows
    tile momentum space without overlap.
    """

    def __init__(self, index: int, width: float):
        self.index = index
        self.width = width

    @property
    def center(self) -> float:
        return self.index * self.width

    @property
    def bounds(self) -> tuple[float, float]:
        half = self.width / 2.0
        return (self.center - half, self.center + half)


class WvpCurve:
    """Conditional weak-valued probability sampled over final momentum.

    ``values`` holds NaN where the post-selection density is below the
    definedness threshold (:func:`quotient`), and nowhere else.
    ``joint`` is the numerator J(p_f), defined everywhere, ``density``
    the denominator P(p_f) = sum |e(U psi)|^2 and ``strong``
    T(p_f) = sum |e(U chi)|^2, the joint probability a projective
    measurement of the window gives, which only :func:`conditional_wvp`
    builds (None otherwise).  Every array is sampled on the grid's ``p``.
    """

    def __init__(self, values: np.ndarray, joint: np.ndarray,
                 density: np.ndarray, strong: np.ndarray | None):
        self.values = values
        self.joint = joint
        self.density = density
        self.strong = strong


class TransferDistribution:
    """Sampled momentum-transfer quasi-probability density P_wv(q).

    ``density`` is normalised to the covered momentum mass, so it
    integrates to one whenever the window tiling is complete enough;
    ``coverage`` records the raw mass the tiling actually captured.
    ``roundoff_floor`` bounds the FFT round-off the density carries
    (see :func:`transfer_distribution`): a density value no larger is
    indistinguishable from zero.
    """

    def __init__(self, q: np.ndarray, density: np.ndarray,
                 window_width: float, windows: tuple[int, ...],
                 coverage: float, eraser: str, roundoff_floor: float):
        self.q = q
        self.density = density
        self.window_width = window_width
        self.windows = windows
        self.coverage = coverage
        self.eraser = eraser
        self.roundoff_floor = roundoff_floor

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.q))

    def mass_outside(self, p_abs: float) -> float:
        """Absolute density mass at |q| > p_abs (operational width statistic).

        The two tails are integrated separately so the gap between them
        contributes nothing.
        """
        mag = np.abs(self.density)
        total = 0.0
        for sel in (self.q < -p_abs, self.q > p_abs):
            if np.count_nonzero(sel) >= 2:
                total += float(np.trapezoid(mag[sel], self.q[sel]))
        return total


def _check_eraser(eraser: str):
    if eraser not in ERASERS:
        raise ConfigError(f"eraser must be one of {ERASERS}, got {eraser!r}")


def _check_width(grid: SimGrid, width: float):
    if not 2.0 * grid.dp <= width < np.inf:
        raise ResolutionError(f"window width {width} must be finite and at "
                              f"least 2 bins ({2.0 * grid.dp:.4g})")


def quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, NaN wherever den is at most EPS_DEN_FRACTION times its
    maximum: the definedness threshold of every conditional value."""
    return np.divide(num, den, out=np.full(den.shape, np.nan),
                     where=den > EPS_DEN_FRACTION * den.max())


def window_mask(grid: SimGrid, window: MomentumWindow) -> np.ndarray:
    """Indicator of the window on the momentum samples.

    Half-open [lo, hi) so adjacent windows partition the axis exactly;
    a sample landing on a boundary to round-off takes weight 1/2 (the
    midpoint convention used for discontinuous apertures).
    """
    return indicator(grid.p, grid.dp, *window.bounds)


def _window_project(state: TransverseState, window: MomentumWindow) -> TransverseState:
    """Project the state onto one momentum window (unnormalised result).

    Refuses windows narrower than two bins (:class:`ResolutionError`)
    and windows that hold no momentum sample at all
    (:class:`WindowRangeError`).
    """
    grid = state.grid
    _check_width(grid, window.width)
    mask = window_mask(grid, window)
    if not mask.any():
        lo, hi = window.bounds
        raise WindowRangeError(
            f"window [{lo:.4g}, {hi:.4g}] outside the simulated momentum "
            f"range [{grid.p[0]:.4g}, {grid.p[-1]:.4g}]")
    field = state.momentum_field()
    field *= mask
    return TransverseState(grid, grid.from_momentum(field, out=field),
                           state.sharp_edges)


def _check_grid(state: TransverseState, ch: MeasurementChannel):
    if ch.grid != state.grid:
        raise GridMismatchError(
            f"channel {ch.name!r} built on a different grid than the state"
        )


def _output_rows(ch: MeasurementChannel, eraser: str):
    """Yield each sector's list of output-row multipliers under
    ``eraser``, one sector at a time.

    A sector K = u + v S sends the H field h to an H row u h and, unless
    v is None, a V row v h: [u] or [u, v] with no eraser.  A +-45 eraser
    keeps the projection (H +- V)/sqrt(2), e(K h) = ((u +- v)/sqrt(2)) h,
    so its sector is the one row [(u +- v)/sqrt(2)], with v = 0 where
    v is None.
    """
    sign = 1.0 if eraser == "plus45" else -1.0
    for u, v in ch.sectors:
        if eraser == "none":
            yield [u] if v is None else [u, v]
        else:
            yield [(u if v is None else u + sign * v) / np.sqrt(2.0)]


def _curve_sums(grid: SimGrid, psi: np.ndarray, chi: np.ndarray | None,
                ch: MeasurementChannel, eraser: str, strong: bool = False,
                consume: bool = False) -> tuple:
    """(J, P, T) of the full field ``psi`` and the window-projected
    field ``chi`` through the output rows of :func:`_output_rows`; J is
    None if ``chi`` is, T unless ``strong``.

    Row m adds, one (chi row, psi row) pair at a time and 4,096 samples
    at a time, Re ce conj(pe) to J, |pe|^2 to P and |ce|^2 to T, each
    starting from 0.0, with ce and pe the momentum rows of m chi and
    m psi.  A row's multiplier is released once both products are
    built, and ``consume`` builds the last ce in chi's own buffer.
    """
    n = grid.n_points
    j, dens, t = (np.zeros(n) if want else None
                  for want in (chi is not None, True, strong))
    for s, rows in enumerate(_output_rows(ch, eraser), 1):
        while rows:
            m = rows.pop(0)
            if chi is not None:
                last = consume and not rows and s == len(ch.sectors)
                ce = np.multiply(chi, m, out=chi if last else None)
                grid.to_momentum(ce, out=ce)
            pe = psi * m
            del m
            grid.to_momentum(pe, out=pe)
            for lo in range(0, n, 4096):
                part = slice(lo, lo + 4096)
                dens[part] += np.square(np.abs(pe[part]))
                if chi is not None:
                    j[part] += (ce[part] * np.conj(pe[part])).real
                if strong:
                    t[part] += np.square(np.abs(ce[part]))
            pe = ce = None  # free this pair's rows before the next pair's
    return j, dens, t


def _curves(state: TransverseState, ch: MeasurementChannel,
            window: MomentumWindow, erasers: Iterable[str],
            strong: bool) -> dict[str, WvpCurve]:
    """The curves of :func:`eraser_curves`, each with T if ``strong``."""
    erasers = tuple(dict.fromkeys(erasers))
    for eraser in erasers:
        _check_eraser(eraser)
    _check_grid(state, ch)
    chi = _window_project(state, window).field
    sums = {eraser: _curve_sums(state.grid, state.field, chi, ch, eraser,
                                strong, k == len(erasers))
            for k, eraser in enumerate(erasers, 1)}
    del chi  # holds the last row: free it before the values rows
    return {eraser: WvpCurve(quotient(j, dens), j, dens, t)
            for eraser, (j, dens, t) in sums.items()}


def joint_wvp(state: TransverseState, ch: MeasurementChannel,
              window: MomentumWindow, eraser: str = "none") -> np.ndarray:
    """J(p_f): conditional WVP times post-selection density, per sample.

    Computed as Re sum over the output rows of :func:`_output_rows` of
    the product of the window-projected state's momentum row and the
    conjugate of the full state's.  Finite everywhere, negative where
    the weak value leaves [0, 1].
    """
    return eraser_curves(state, ch, window, (eraser,))[eraser].joint


def conditional_wvp(state: TransverseState, ch: MeasurementChannel,
                    window: MomentumWindow, eraser: str = "none") -> WvpCurve:
    """Conditional weak-valued probability J(p_f)/P(p_f), with T.

    Samples below the definedness threshold of :func:`quotient` are
    NaN; everything else is an exact ratio.  With
    the identity channel (or the +45 eraser on the which-way marker)
    the defined part is the window indicator.
    """
    return _curves(state, ch, window, (eraser,), True)[eraser]


def eraser_curves(state: TransverseState, ch: MeasurementChannel,
                  window: MomentumWindow,
                  erasers: Iterable[str] = ERASERS) -> dict[str, WvpCurve]:
    """:func:`conditional_wvp` for each eraser setting but without T,
    keyed by setting in the order requested, each built once.

    The window projection does not depend on the eraser, so it is built
    once; each setting then sums its own output rows.  Every setting's J
    and P come before any ``values`` row, and the last setting builds
    its last window-side row in the projected field's buffer: 5.6 MiB of
    arrays for all three settings at 2^16 points, 5.0 MiB for
    :func:`conditional_wvp`'s one with T.
    """
    return _curves(state, ch, window, erasers, False)


def momentum_distribution(state: TransverseState,
                          ch: MeasurementChannel | None = None,
                          eraser: str = "none") -> np.ndarray:
    """Normalised momentum density before (ch=None) or after a channel."""
    _check_eraser(eraser)
    ch = identity_channel(state.grid) if ch is None else ch
    _check_grid(state, ch)
    dens = _curve_sums(state.grid, state.field, None, ch, eraser)[1]
    return np.divide(dens, np.sum(dens) * state.grid.dp, out=dens)


def _tiling_indices(grid: SimGrid, width: float) -> range:
    """Window indices covering the full simulated momentum range."""
    n_cov = int(np.ceil(grid.p[-1] / width)) + 1
    return range(-n_cov, n_cov + 1)


def _fast_len(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length the FFT handles at full speed."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _tiling_weights(grid: SimGrid, width: float, indices: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(samples, windows, weights): each nonzero weight of a momentum
    sample in a window of ``indices``, as three flat arrays.

    Only windows k0 - 1, k0 and k0 + 1, with k0 = round(p/width), can
    hold a sample, so one O(N) pass over those three candidates replaces
    a :func:`window_mask` call per window.  ``weights[m]`` equals
    ``window_mask(grid, MomentumWindow(windows[m], width))[samples[m]]``
    bit for bit, times the number of times ``windows[m]`` occurs in
    ``indices``.  The candidates are taken one at a time.
    """
    k0 = np.rint(grid.p / width)
    k_lo, k_hi = int(k0[0]) - 1, int(k0[-1]) + 1
    counts = np.bincount(
        np.array([k - k_lo for k in indices if k_lo <= k <= k_hi],
                 dtype=np.int64), minlength=k_hi - k_lo + 1)
    half = width / 2.0
    found = []
    for shift in (-1.0, 0.0, 1.0):
        windows = (k0 + shift).astype(np.int64)
        center = windows * width
        weights = indicator(grid.p, grid.dp, center - half, center + half)
        weights *= counts[windows - k_lo]
        samples = np.flatnonzero(weights)
        found.append((samples, windows[samples], weights[samples]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _sector_kernels(grid: SimGrid, rows: list) -> list[np.ndarray]:
    """The momentum kernel K of each multiplier m of ``rows``, each
    transformed in place in its row m * flat, with no second row.

    A multiplier diagonal in x is, in momentum space, a circular
    convolution: to_momentum(m * from_momentum(a))[i] =
    sum_j K[(i - j + n/2) mod n] a[j], with K the multiplier's response
    to a unit sample at p = 0.
    """
    unit = np.zeros(grid.n_points)
    unit[grid.n_points // 2] = 1.0
    flat = grid.from_momentum(unit)
    return [grid.to_momentum(row := m * flat, out=row) for m in rows]


def transfer_distribution(state: TransverseState, ch: MeasurementChannel,
                          window_width: float,
                          indices: Iterable[int] | None = None,
                          eraser: str = "none") -> TransferDistribution:
    """Assemble P_wv(q) by summing shifted per-window joint quantities.

    Parameters
    ----------
    window_width :
        Common width of the tiling windows (internal momentum units).
    indices :
        Window indices to include; None means a tiling of the whole
        simulated momentum range.  The flagship 15-window scenario
        passes range(-7, 8).  A repeated index counts once per
        occurrence.  Indices whose windows hold no momentum sample at
        all are refused (:class:`WindowRangeError`).
    eraser :
        Optional polarisation post-selection applied to every window.

    Window w contributes its J_w(p_f) shifted by s_w, its centre
    rounded to the nearest sample: P(i) = sum_w J_w(i + s_w), dropping
    the part of J_w that the shift moves off the grid.  The assembled
    density is divided by the covered momentum mass (sum over included
    windows of the window-projected norm), so it integrates to one
    whenever the covering precondition is met.  A
    :class:`CoverageWarning` reports tilings that capture < 99% of the
    mass -- the sharp-slit 15-window configuration does miss ~10% in
    its 1/p^2 tails, and the normalisation makes that explicit rather
    than silently rescaling.

    The sum is not built window by window.  Each output row of a
    sector (:func:`_output_rows`) is a multiplier m of the H field,
    diagonal in x, hence a circular convolution with a kernel K_m in
    momentum space (see :func:`_sector_kernels`).
    Grouping every input sample j by its offset d = j - s_w - n/2 from
    the centre of its window w,

        P(i) = Re sum_d sum_m K_m[(i - d) mod n] R_{d,m}(i - d - n/2),
        R_{d,m}(t) = sum_j c_d(j) psi(j) . conj Phi_m(t + j),

    where c_d(j) is the total weight of sample j in windows at offset d,
    psi the input momentum amplitude and Phi_m the full state's output
    row m in momentum space, taken as zero off the grid (which is the
    dropped part of each shifted J_w).  R_{d,m} is one
    zero-padded linear cross-correlation over the span of tiled
    samples, evaluated with circular FFTs just long enough that no lag
    read is aliased: about n + span/2 for a narrow tiling, 1.5 n for a
    full one.  There are about width/dp + 1 offsets whatever the window
    count W, so the cost is O((width/dp) N log N) instead of
    O(W N log N): far cheaper for tilings of narrow windows, dearer for
    a few windows much wider than W samples.  This sum and a
    window-by-window one differ by FFT round-off, a few
    eps * sqrt(c * max P) before the division by the covered mass c,
    with P the input momentum density: a few ulps of the density
    maximum when the tiling holds most of the mass, but all of the
    density when it holds less than about eps^2 of it.  The result's
    ``roundoff_floor``, 16 eps sqrt(max P / c), bounds that difference
    after the division.

    Only the H field is transformed and correlated: a +-45 eraser is
    one row, hence one kernel per pass, like a sector whose v is None.
    Within a pass a sector's V row adds its term before its H row.
    The build order sets the peak memory, not the bits: the passes keep
    only the tiled span of the H spectrum, each sector builds its
    kernels after its padded output spectra, so its output rows, those
    spectra and the kernels never coexist, and each pass combines its
    output rows 4,096 at a time.
    """
    _check_eraser(eraser)
    grid = state.grid
    _check_width(grid, window_width)
    if indices is None:
        indices = _tiling_indices(grid, window_width)
    indices = tuple(int(n) for n in indices)
    _check_grid(state, ch)
    n = grid.n_points
    field_t = state.momentum_field()

    samples, windows, weights = _tiling_weights(grid, window_width, indices)
    if not samples.size:
        raise WindowRangeError(
            f"none of the {len(indices)} windows of width {window_width:.4g} "
            f"holds a sample of the simulated momentum range "
            f"[{grid.p[0]:.4g}, {grid.p[-1]:.4g}]")
    input_dens = np.abs(field_t) ** 2
    coverage = float(np.dot(weights, input_dens[samples]) * grid.dp)
    roundoff_floor = float(16.0 * np.finfo(float).eps
                           * np.sqrt(input_dens.max() / coverage))
    offsets = (samples - n // 2
               - np.rint(windows * window_width / grid.dp).astype(np.int64))
    j_lo = int(samples.min())
    span = int(samples.max()) + 1 - j_lo
    chunk = field_t[j_lo:j_lo + span].copy()
    del field_t, input_dens, windows  # keep the peak memory of the passes low

    acc = np.zeros(n)
    # The distinct offsets, ascending (np.unique would import all of
    # numpy.ma to check for a mask).
    d_lo = int(offsets.min())
    distinct = np.flatnonzero(np.bincount(offsets - d_lo)) + d_lo
    # Offset d reads lag i - lag0 of its correlation at output row i,
    # for the rows [i_lo, i_hi) whose lag is inside the support
    # [1 - span, n - 1].  A circular correlation of length L is exact
    # at a lag t when t + L lies above the support and t - L below it.
    passes = []
    for d in distinct.tolist():
        lag0 = d + n // 2 - j_lo
        passes.append((d, lag0, max(0, lag0 + 1 - span),
                       min(n, lag0 + n)))
    size = _fast_len(max(max(n + lag0 - i_lo, i_hi - 1 - lag0 + span)
                         for _, lag0, i_lo, i_hi in passes))
    # One sector at a time, so only one sector's spectra exist.
    for rows in _output_rows(ch, eraser):
        # conj(FFT(Phi)) / L turns each correlation into one forward FFT.
        spectra = np.fft.fft([grid.to_momentum(state.field * m)
                              for m in rows], size)
        np.conj(spectra, out=spectra)
        spectra /= size
        # The V row's term first, the order the pinned outputs sum in.
        terms = list(zip(spectra, _sector_kernels(grid, rows)))[::-1]
        buf = np.empty(size, dtype=complex)
        corr = np.empty(size, dtype=complex)
        for d, lag0, i_lo, i_hi in passes:
            sel = offsets == d
            np.multiply(chunk, np.bincount(samples[sel] - j_lo,
                                           weights[sel], span),
                        out=buf[:span])
            buf[span:] = 0.0
            np.fft.fft(buf, out=buf)
            for phi, kern in terms:
                # einsum: np.multiply rounds some complex products differently.
                np.einsum("l,l->l", buf, phi, out=corr)
                np.fft.fft(corr, out=corr)
                for lo in range(i_lo, i_hi, 4096):
                    hi = min(lo + 4096, i_hi)
                    part = kern.take(np.arange(lo - d, hi - d), mode="wrap")
                    part *= corr.take(np.arange(lo - lag0, hi - lag0),
                                      mode="wrap")
                    acc[lo:hi] += part.real
        # Free this sector's buffers before the next sector's rows.
        del spectra, terms, phi, kern, buf, corr

    if coverage < COVERAGE_MIN:
        warnings.warn(CoverageWarning(
            f"window tiling covers {coverage:.4f} of the momentum mass "
            f"(< {COVERAGE_MIN}); density is normalised to the covered part"),
            stacklevel=2)
    density = acc / coverage
    return TransferDistribution(grid.p, density, window_width,
                                indices, coverage, eraser, roundoff_floor)
