"""Properties: physics invariants over random slits, channels, erasers
and windows on grids of at most 512 points.

Every channel is a Kraus set with one operator K = u + v S per sector.
Whatever the slit width and edges, the channel (identity, which-way
marker, or one to three kicks on or off the momentum lattice with
random probabilities), the eraser and the window:

* the Kraus set is complete: sum |u|^2 + |v|^2 = 1 to round-off, which
  is sum K^dag K = 1 because conj(u) v = 0 at every sample;
* the +-45 degree erasers partition the joint quantity J exactly:
  J_none = J_plus45 + J_minus45;
* the transform is unitary: Parseval holds and a round trip returns
  the state, to a few eps;
* ``window_mask`` of an integer array of windows on and off the grid
  is the scalar masks stacked, or picked one per sample, bit for bit;
* over a full tiling of windows an odd number of samples wide, which
  puts every sample inside exactly one window and none on an edge,
  the windows' joint quantities J_w sum to the post-selection density
  P at every sample, for every eraser, and their strong densities T_w
  (which only ``conditional_wvp`` builds) integrate to the tiling's
  coverage;
* the correlation form of ``transfer_distribution`` equals the
  per-window loop it replaced, to 1e-13 of the density maximum plus
  the round-off both carry, the result's ``roundoff_floor``;
* without an eraser, the partial marker K_theta (cos theta + i sin
  theta S on x < 0, 1 elsewhere) gives the mixture
  cos theta P_id + (1 - cos theta) P_marker, to 1e-13 of max |P|, for
  every theta in (0, pi) and window set;
* through a +-45 eraser, the partial marker with the swap phase phi
  (cos theta + e^(i phi) sin theta S on x < 0) gives
  1/2 [P_mk + cos theta R +- (sin 2 theta cos phi L
  + sin theta (cos phi R + sin phi I))], to 1e-13 of max |P|, for
  every theta in (0, pi), phi in [-pi, pi] and window set, where P_mk
  is the marker's, R = P_id - P_mk, L = P_mk - P_right (the left slit
  blocked) and I = P_i - P_mk (x < 0 multiplied by i).

That round-off is normwise, as FFT round-off is: before the division
by the covered mass c, each un-normalised sum is off by a few
eps * sqrt(c * max P), with P the input momentum density.  After it,
the error is a few eps * sqrt(max P / c), which exceeds 1e-13 of the
density maximum once a tiling holds less than about 1e-7 of the mass
(a single window far out in a smoothed slit's spectrum holds 1e-33).

Two sums that look like identities are not tested, because on these
grids they are not: the full tiling's P_wv(q) integrates to one only
up to the mass each window's shift moves off the grid (up to 1% off),
and with kicks on the momentum lattice P_wv(q) equals the kick
distribution convolved with the window indicator only while the sum of
the input density at one point per window is its integral, which
fails as the window width nears the 2 pi fringe period (up to 96% off
for windows 15 samples of 2 pi / 16 wide).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakslit import (SimGrid, build_double_slit, classical_kick,
                      conditional_wvp, erase, eraser_curves, identity_channel,
                      scully_wwm, transfer_distribution, window_mask)
from weakslit.channels import ERASERS
from weakslit.errors import CoverageWarning
from weakslit.weak_values import _tiling_indices

from conftest import eraser_port, eraser_port_basis, partial_marker
from oracles import loop_transfer

EPS = np.finfo(float).eps


@st.composite
def slits(draw) -> tuple[float, float | None]:
    """(width, edge_scale): sharp edges, or smoothed ones at a drawn
    scale or the config's default of a tenth of the width."""
    width = draw(st.floats(0.25, 0.8))
    if draw(st.booleans()):
        return width, None
    scale = draw(st.one_of(st.none(), st.floats(0.01, 0.08)))
    return width, width / 10.0 if scale is None else scale


@st.composite
def kicks(draw, grid) -> list[tuple[float, float]]:
    """One to three (q, prob) pairs; each q on the lattice or anywhere in
    the grid's momentum range."""
    half = grid.n_points // 2
    q_lim = abs(float(grid.p[0]))
    qs = draw(st.lists(st.one_of(
        st.integers(-half, half).map(lambda m: m * grid.dp),
        st.floats(-q_lim, q_lim)), min_size=1, max_size=3))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(qs),
                            max_size=len(qs)).filter(lambda w: sum(w) > 0.0))
    total = sum(weights)
    return [(q, w / total) for q, w in zip(qs, weights)]


@st.composite
def scenarios(draw):
    grid = SimGrid(draw(st.sampled_from([128, 256, 512])), 16.0)
    width, edge_scale = draw(slits())
    state = build_double_slit(width, grid, edge_scale)
    kind = draw(st.sampled_from(["identity", "scully", "kick"]))
    if kind == "identity":
        ch = identity_channel(grid)
    elif kind == "scully":
        ch = scully_wwm(grid)
    else:
        ch = classical_kick(draw(kicks(grid)), grid)
    width = draw(st.floats(2.0, 16.0)) * grid.dp
    reach = int(abs(float(grid.p[0])) / width) - 1
    window = width, draw(st.integers(-reach, reach))
    return state, ch, window, draw(st.sampled_from(ERASERS))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.sampled_from([128, 256, 512]),
       st.one_of(st.integers(2, 40).map(float), st.floats(2.0, 40.0)),
       st.lists(st.integers(-400, 400), min_size=1, max_size=8))
def test_window_mask_of_an_index_array(n_points, bins, indices):
    """An (m, 1) array stacks the m scalar masks, and an (n,) array gives
    each sample its own window's mask value, bit for bit, for windows
    of at least 2 dp (a whole number of dp puts edges on samples) both
    inside and outside the grid, whose |p| range holds up to 128 such
    windows."""
    grid = SimGrid(n_points, 16.0)
    width = bins * grid.dp
    masks = {k: window_mask(grid, width, k) for k in indices}
    stacked = window_mask(grid, width, np.array(indices)[:, np.newaxis])
    assert stacked.tobytes() == np.stack([masks[k] for k in indices]
                                         ).tobytes()
    per_sample = np.resize(np.array(indices), n_points)
    picked = [masks[k][i] for i, k in enumerate(per_sample.tolist())]
    assert window_mask(grid, width, per_sample).tobytes() \
        == np.array(picked).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(scenarios())
def test_kraus_set_is_complete(scenario):
    _, ch, _, _ = scenario
    assert ch.completeness_defect() <= 1e-14
    for u, v in ch.sectors:
        if v is not None:
            assert np.all(np.conj(u) * v == 0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(scenarios())
def test_erasers_partition_the_joint_quantity(scenario):
    state, ch, window, _ = scenario
    curves = eraser_curves(state, ch, *window)
    np.testing.assert_allclose(
        curves["none"].joint,
        curves["plus45"].joint + curves["minus45"].joint, rtol=0.0,
        atol=1e-13)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(scenarios(), st.one_of(st.none(), st.integers(0, 3)))
def test_transfer_matches_the_window_loop(scenario, half):
    state, ch, (width, index), eraser = scenario
    indices = None if half is None else range(index - half, index + half + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        fast = transfer_distribution(state, erase(ch, eraser), width, indices)
        slow = loop_transfer(state, ch, width, indices, eraser)
    assert fast.coverage == pytest.approx(slow.coverage, rel=1e-13)
    np.testing.assert_allclose(
        fast.density, slow.density, rtol=0.0,
        atol=1e-13 * np.max(np.abs(slow.density)) + fast.roundoff_floor)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(scenarios(), st.floats(0.0, math.pi, exclude_min=True,
                              exclude_max=True),
       st.one_of(st.none(), st.integers(0, 3)))
def test_partial_marker_is_a_mixture(scenario, theta, half):
    """Without an eraser, P_wv of the partial marker is
    cos theta P_id + (1 - cos theta) P_marker for any window set."""
    state, _, (width, index), _ = scenario
    grid = state.grid
    indices = None if half is None else range(index - half, index + half + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        got, plain, marked = (
            transfer_distribution(state, ch, width, indices)
            for ch in (partial_marker(grid, theta), identity_channel(grid),
                       scully_wwm(grid)))
    c = math.cos(theta)
    want = c * plain.density + (1.0 - c) * marked.density
    np.testing.assert_allclose(got.density, want, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(want)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(scenarios(), st.floats(0.0, math.pi, exclude_min=True,
                              exclude_max=True),
       st.floats(-math.pi, math.pi), st.one_of(st.none(), st.integers(0, 3)))
def test_eraser_ports_are_sums_of_four_distributions(scenario, theta, phi,
                                                     half):
    """Through either +-45 port, P_wv of the partial marker K_(theta, phi)
    is a fixed sum of the four distributions of ``eraser_port_basis``,
    for any window set."""
    state, _, (width, index), _ = scenario
    indices = None if half is None else range(index - half, index + half + 1)
    basis = eraser_port_basis(state, width, indices)
    ch = partial_marker(state.grid, theta, phi)
    for eraser, sign in (("plus45", 1.0), ("minus45", -1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            got = transfer_distribution(state, erase(ch, eraser), width,
                                        indices)
        want = eraser_port(basis, theta, phi, sign)
        np.testing.assert_allclose(got.density, want, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(want)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(scenarios())
def test_transform_is_unitary(scenario):
    state = scenario[0]
    grid = state.grid
    field_t = state.momentum_field()
    norm_x = np.sum(np.abs(state.field) ** 2) * grid.dx
    norm_p = np.sum(np.abs(field_t) ** 2) * grid.dp
    assert abs(norm_p - norm_x) <= 8.0 * EPS
    back = grid.from_momentum(field_t)
    assert np.max(np.abs(back - state.field)) <= 8.0 * EPS * np.max(
        np.abs(state.field))


def odd_tiling(grid, samples) -> tuple[float, list[int]]:
    """(width, indices) of the windows of a full tiling that hold a
    sample, each ``samples`` (odd) samples wide, so every edge falls
    halfway between two."""
    width = samples * grid.dp
    return width, [k for k in _tiling_indices(grid, width)
                   if window_mask(grid, width, k).any()]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(scenarios(), st.integers(1, 7))
def test_full_tiling_sums_to_the_post_selection_density(scenario, half):
    state, ch, _, _ = scenario
    grid = state.grid
    width, tiling = odd_tiling(grid, 2 * half + 1)
    np.testing.assert_array_equal(
        sum(window_mask(grid, width, k) for k in tiling), 1.0)
    curves = [eraser_curves(state, ch, width, k) for k in tiling]
    for eraser in ERASERS:
        density = curves[0][eraser].density
        np.testing.assert_allclose(
            sum(c[eraser].joint for c in curves), density, rtol=0.0,
            atol=16.0 * EPS * density.max())
    strong = sum(float(np.sum(conditional_wvp(state, ch, width, k).strong))
                 for k in tiling) * grid.dp
    coverage = transfer_distribution(state, ch, width, tiling).coverage
    assert strong == pytest.approx(coverage, rel=0.0, abs=16.0 * EPS)
