"""Invariants of the correlation map, checked on random small grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcoh import GridSpec, SpectralGrid
from pdcoh.coherence import correlation_columns, correlation_map, direct_correlation, \
    factorability_defect
from pdcoh.spectrum import s_mirror

# small maps keep each example to about a millisecond
SIDE = dict(oversample=2, extent_cells=6)

seeds = st.integers(0, 2**32 - 1)
n_omegas = st.sampled_from([64, 128])


def _grid(values):
    """S over the whole grid, an even array, held as its quadrant."""
    spec = GridSpec(omega_center=1.2e15, omega_half_width=2e14,
                    n_omega=values.shape[0], k_half_width=1e5,
                    n_k=values.shape[1])
    return SpectralGrid(spec, np.ascontiguousarray(s_mirror(values)[0]),
                        {"edge_ratio": 0.0})


def _mirror(n):
    """Index n/2 +- m of an even axis is index m of a table drawn on its
    >= 0 half; the unpaired first index (-n/2 steps) is table index n/2,
    drawn on its own."""
    return np.abs(np.arange(n) - n // 2)


MIRROR = _mirror(64)


def _random_density(seed, n_omega):
    """A random S, even in Omega and k as every S(Omega^2, k^2) is."""
    return np.random.default_rng(seed).random((n_omega, 64))[_mirror(n_omega)][:, MIRROR]


@settings(max_examples=25, deadline=None)
@given(seeds, n_omegas)
def test_center_is_one_and_magnitude_bounded(seed, n_omega):
    cm = correlation_map(_grid(_random_density(seed, n_omega)), **SIDE)
    n = cm.tau_axis.size // 2
    m = cm.xi_axis.size // 2
    assert cm.g.dtype == float and cm.g[n, m] == 1.0
    assert np.abs(cm.g).max() <= 1 + 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, n_omegas)
def test_density_even_in_k_gives_a_map_even_in_xi(seed, n_omega):
    # k[0] has no +k partner on the grid; it counts half at -k_max and half
    # at +k_max, so its mass keeps the map even bit for bit
    values = _random_density(seed, n_omega)
    assert np.all(values[:, 0] > 0)
    g = correlation_map(_grid(values), **SIDE).g
    assert np.array_equal(np.ascontiguousarray(g[:, ::-1]).view(np.uint64),
                          g.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(seeds, n_omegas, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_reference_differs_from_the_plain_sum_only_in_the_unpaired_column(
        seed, n_omega, tau_cells, xi_cells):
    # with the unpaired column and row empty, direct_correlation is the
    # plain sum of S e^{-i omega tau + i k xi} over the grid, normalized
    values = _random_density(seed, n_omega)
    values[:, 0] = values[0] = 0.0
    sg = _grid(values)
    tau = tau_cells * 2 * np.pi / sg.spec.omega_step
    xi = xi_cells * 2 * np.pi / sg.spec.k_step
    plain = np.exp(-1j * sg.omega_axis() * tau) @ values @ np.exp(1j * sg.k_axis() * xi)
    assert abs(direct_correlation(sg, tau, xi) - plain / values.sum()) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, n_omegas)
def test_separable_density_factorizes(seed, n_omega):
    rng = np.random.default_rng(seed)
    values = np.outer(rng.random(n_omega)[_mirror(n_omega)], rng.random(64)[MIRROR])
    assert factorability_defect(correlation_map(_grid(values), **SIDE)) < 1e-12


# per-axis (tau, xi) sizes: with oversample o the tau kernel's table has
# L = o * n_omega entries, and extents past 2 cells make n * m wrap it
oversamples = st.tuples(st.sampled_from([2, 3, 4]), st.sampled_from([2, 3]))
extents = st.tuples(st.sampled_from([4, 6]), st.sampled_from([3, 6]))


@settings(max_examples=25, deadline=None)
@given(seeds, n_omegas, oversamples, extents,
       st.lists(st.tuples(st.integers(0, 48), st.integers(0, 36)),
                min_size=1, max_size=5))
def test_map_agrees_with_direct_quadrature(seed, n_omega, oversample, extent, nodes):
    # a random even S, whose unpaired first row and column (-n/2 steps)
    # are not zero
    sg = _grid(_random_density(seed, n_omega))
    cm = correlation_map(sg, oversample=oversample, extent_cells=extent)
    for i, j in nodes:
        i, j = i % cm.tau_axis.size, j % cm.xi_axis.size
        tau, xi = cm.tau_axis[i], cm.xi_axis[j]
        envelope = cm.g[i, j] * np.exp(-1j * cm.carrier_omega * tau)
        assert abs(direct_correlation(sg, tau, xi) - envelope) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, n_omegas, st.lists(st.integers(0, 1024), min_size=1, max_size=5),
       st.floats(-0.999, 0.999))
def test_column_restores_to_the_direct_quadrature_at_any_xi(seed, n_omega, nodes,
                                                            xi_range):
    # any xi of the alias-free range |xi| < pi / k_step, which on 64 k nodes
    # is twice the xi extent of the map
    sg = _grid(_random_density(seed, n_omega))
    xi = xi_range * np.pi / sg.spec.k_step
    column = correlation_columns(sg)(xi)
    for i in nodes:
        tau = column.tau_axis[i]
        full = column.g[i] * np.exp(-1j * column.carrier_omega * tau)
        assert abs(direct_correlation(sg, tau, xi) - full) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, n_omegas, st.integers(0, 256))
def test_column_at_a_map_node_is_the_maps_column(seed, n_omega, j):
    sg = _grid(_random_density(seed, n_omega))
    cm = correlation_map(sg)
    column = correlation_columns(sg)(cm.xi_axis[j])
    assert column.tau_axis.tobytes() == cm.tau_axis.tobytes()
    assert column.g.dtype == float
    assert np.max(np.abs(column.g - cm.g[:, j])) < 1e-13
