"""Grid construction and unitary transforms."""

import numpy as np
import pytest

from weakslit import ConfigError, NumericError, SimGrid
from weakslit.grid import MAX_POINTS, indicator

from oracles import dft_matrix, idft_matrix


def test_grid_spacings():
    grid = SimGrid(1024, 64.0)
    assert grid.dx == 64.0 / 1024
    assert grid.dp == 2.0 * np.pi / 64.0
    # conjugacy: dx * dp * n == 2 pi, the unitarity condition
    assert grid.dx * grid.dp * grid.n_points == pytest.approx(2.0 * np.pi,
                                                              rel=1e-15)


def test_grid_centred_samples():
    grid = SimGrid(16, 4.0)
    assert grid.x[grid.n_points // 2] == 0.0
    assert grid.p[grid.n_points // 2] == 0.0
    np.testing.assert_allclose(np.diff(grid.x), grid.dx)
    np.testing.assert_allclose(np.diff(grid.p), grid.dp)


@pytest.mark.parametrize("n_points", [8, 256, 4096, 2 ** 16])
@pytest.mark.parametrize("x_extent", [64.0, 7.3, 1e-3])
def test_axes_equal_the_integer_form_bit_for_bit(n_points, x_extent):
    """Both axes are built as floats and scaled in place, with the bits
    of integer offsets times the spacing."""
    grid = SimGrid(n_points, x_extent)
    offsets = np.arange(n_points) - n_points // 2
    assert grid.x.tobytes() == (offsets * grid.dx).tobytes()
    assert grid.p.tobytes() == (offsets * grid.dp).tobytes()


@pytest.mark.parametrize("n", [0, 4, 7, 12, 1000, -16, MAX_POINTS * 2,
                               True, 16.0, "16", None])
def test_grid_rejects_bad_sizes(n):
    """The constructor refuses all but an int power of two in
    [8, MAX_POINTS], a bool or a float of integral value too, rather
    than fail later inside a transform."""
    with pytest.raises(ConfigError, match=r"^n_points must be a power of "
                       rf"two in \[8, {MAX_POINTS}\], got {n}$"):
        SimGrid(n, 8.0)


@pytest.mark.parametrize("extent", [0.0, -1.0, -3.0, float("nan"),
                                    float("inf"), 1e-320, 5e-324,
                                    pytest.param(10 ** 400, id="10**400"),
                                    True, "64", None, np.float32("inf")])
def test_grid_rejects_bad_extent(extent):
    """No division by zero, no negative dx and dp, and no lattice whose
    dx or dp is 0 or infinite: inf gives dx = inf and dp = 0.0, 1e-320
    dp = inf, and 5e-324 dx = 0.0 as well.  The extent passes the
    package's number test, as n_points does: an int beyond float range,
    a bool or a string is refused, not converted."""
    with pytest.raises(ConfigError, match=rf"^x_extent must be positive and "
                       rf"finite, with a finite dp, got {extent}$"):
        SimGrid(16, extent)


def test_grid_values_too_long_to_print_are_refused():
    """Python prints no int of over 4,300 digits; the message gives its
    bit length instead."""
    with pytest.raises(ConfigError, match=r"^n_points must be a power of "
                       r"two .*, got <an integer of 16610 bits>$"):
        SimGrid(10 ** 5000, 1.0)
    with pytest.raises(ConfigError, match=r"^x_extent must be positive and "
                       r"finite, .*, got <an integer of 16610 bits>$"):
        SimGrid(16, 10 ** 5000)


def test_grid_stores_its_extent_as_a_float():
    grid = SimGrid(8, 80)
    assert type(grid.x_extent) is float and grid.x_extent == 80.0
    assert grid == SimGrid(8, 80.0)
    assert SimGrid(MAX_POINTS, 1.0).n_points == MAX_POINTS


def test_grid_takes_a_numpy_integer_size_as_an_int():
    """n_points passes the package's one number test, so a numpy
    integer is a size; the grid stores it as a Python int."""
    grid = SimGrid(np.int64(16), 8.0)
    assert type(grid.n_points) is int and grid == SimGrid(16, 8.0)


def test_indicator_is_half_open_with_half_weight_edges():
    """1 on [lo, hi), and 1/2 on a sample within 1e-12 step of an edge;
    the edges broadcast against the samples."""
    samples = np.arange(-4, 4) * 0.5
    edge = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0]
    np.testing.assert_array_equal(indicator(samples, 0.5, -1.0, 1.0), edge)
    np.testing.assert_array_equal(
        indicator(samples, 0.5, -1.0 + 1e-13, 1.0 - 1e-13), edge)
    np.testing.assert_array_equal(indicator(samples, 0.5, -0.9, 0.9),
                                  [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    rows = indicator(samples, 0.5, np.array([[-1.0], [-0.9]]),
                     np.array([[1.0], [0.9]]))
    np.testing.assert_array_equal(rows, [edge, indicator(samples, 0.5,
                                                         -0.9, 0.9)])


def norm_x(grid, values):
    """L2 norm of one (n,) row of position samples."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx))


def norm_p(grid, values):
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.dp))


def test_transform_is_unitary():
    grid = SimGrid(512, 32.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=512) + 1j * rng.normal(size=512)
    g = grid.to_momentum(f)
    assert norm_p(grid, g) == pytest.approx(norm_x(grid, f), rel=1e-13)
    np.testing.assert_allclose(grid.from_momentum(g), f, atol=1e-12)


def test_transform_matches_dense_matrix():
    grid = SimGrid(256, 16.0)
    rng = np.random.default_rng(11)
    f = rng.normal(size=256) + 1j * rng.normal(size=256)
    np.testing.assert_allclose(grid.to_momentum(f), dft_matrix(grid) @ f,
                               atol=1e-12)
    np.testing.assert_allclose(grid.from_momentum(f), idft_matrix(grid) @ f,
                               atol=1e-12)


def test_dense_matrices_are_mutually_inverse():
    grid = SimGrid(128, 8.0)
    prod = idft_matrix(grid) @ dft_matrix(grid)
    np.testing.assert_allclose(prod, np.eye(128), atol=1e-12)


def test_gaussian_transform_closed_form():
    """exp(-x^2/(2 a^2)) maps to a * exp(-p^2 a^2 / 2) under this convention."""
    grid = SimGrid(2048, 64.0)
    a = 1.3
    f = np.exp(-grid.x ** 2 / (2.0 * a ** 2)).astype(complex)
    expected = a * np.exp(-grid.p ** 2 * a ** 2 / 2.0)
    np.testing.assert_allclose(grid.to_momentum(f).real, expected, atol=1e-12)
    np.testing.assert_allclose(grid.to_momentum(f).imag, 0.0, atol=1e-12)


def shifted_fft(grid, values, inverse=False):
    """fftshift(fft(ifftshift(v))) * scale, each step in a new array."""
    if inverse:
        spec = np.fft.ifft(np.fft.ifftshift(values))
        scale = grid.n_points * grid.dp / np.sqrt(2.0 * np.pi)
    else:
        spec = np.fft.fft(np.fft.ifftshift(values))
        scale = grid.dx / np.sqrt(2.0 * np.pi)
    return np.fft.fftshift(spec) * scale


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("inverse", [False, True])
def test_transform_equals_the_shifted_fft_bit_for_bit(inverse):
    """Shifting, transforming and scaling in one buffer changes no bit
    of the result, on a contiguous, a strided and a reversed row; the
    input is left as it was, unless it is the buffer."""
    rng = np.random.default_rng(5)
    for n in (2 ** k for k in range(3, 13)):
        grid = SimGrid(n, 16.0)
        transform = grid.from_momentum if inverse else grid.to_momentum
        big = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        for values in (big[:n], big[::2], big[:n][::-1]):
            before = values.copy()
            expected = shifted_fft(grid, values, inverse)
            assert_same_bits(transform(values), expected)
            assert_same_bits(values, before)
            owned = values.copy()
            assert grid._transform(owned, inverse, out=owned) is owned
            assert_same_bits(owned, expected)


@pytest.mark.parametrize("inverse", [False, True])
def test_real_input_gives_a_new_complex_array(inverse):
    """A float array (as the unit sample of the sector kernels) is never
    the buffer of a complex transform."""
    grid = SimGrid(64, 8.0)
    transform = grid.from_momentum if inverse else grid.to_momentum
    unit = np.zeros(64)
    unit[32] = 1.0
    row = np.random.default_rng(9).normal(size=64)
    for values in (unit, row):
        before = values.copy()
        out = transform(values)
        assert out.dtype == complex
        assert_same_bits(out, shifted_fft(grid, values, inverse))
        assert_same_bits(values, before)


def test_transform_rejects_wrong_length():
    """A transform takes one (n,) row: a (2, n) stack is refused too,
    its shape named."""
    grid = SimGrid(64, 8.0)
    with pytest.raises(NumericError, match=r"^array of shape \(65,\)"):
        grid.to_momentum(np.zeros(65))
    with pytest.raises(NumericError, match=r"^array of shape \(32,\)"):
        grid.from_momentum(np.zeros(32))
    for transform in (grid.to_momentum, grid.from_momentum):
        with pytest.raises(NumericError, match=r"^array of shape "
                           r"\(2, 64\) on a grid of 64 points$"):
            transform(np.zeros((2, 64), dtype=complex))

