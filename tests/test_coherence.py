import math
import tracemalloc

import numpy as np
import pytest

from pdcoh import (
    ConfigurationError,
    CrystalConfig,
    EdgeDecayError,
    GridSpec,
    MapExtentError,
    ResolutionError,
    SpectralGrid,
    auto_grid,
    build_spectrum,
    load_sellmeier,
)
from pdcoh.coherence import (
    FWHM_TO_SIGMA,
    CoherenceMap,
    correlation_columns,
    correlation_map,
    direct_correlation,
    factorability_defect,
    instrument_blur,
    map_mirror,
    metrics,
)
from pdcoh.gridio import read_coherence_map, read_spectral_grid, write_coherence_map, \
    write_spectral_grid

ANGLES_DEG = (19.87, 19.90, 19.94)
FWHM_SIGMA = 2.3548200450309493


@pytest.fixture(scope="module")
def sell():
    return load_sellmeier("bbo_kato1986")


def _cfg(theta_deg, sell):
    return CrystalConfig(length_m=0.01, theta_rad=math.radians(theta_deg),
                         pump_wavelength_m=800e-9, gain=6.0, sellmeier=sell)


@pytest.fixture(scope="module")
def map94(sell):
    return correlation_map(build_spectrum(_cfg(19.94, sell)))


@pytest.fixture(scope="module")
def spectra(sell):
    return {deg: build_spectrum(_cfg(deg, sell)) for deg in ANGLES_DEG}


def _gaussian_grid(sigma_w=2e13, sigma_k=1e4):
    spec = GridSpec(omega_center=1.2e15, omega_half_width=2e14,
                    n_omega=256, k_half_width=1e5, n_k=128)
    # the (|Omega|, |k|) quadrant
    abs_omega = np.arange(spec.n_omega // 2 + 1) * spec.omega_step
    abs_k = np.arange(spec.n_k // 2 + 1) * spec.k_step
    quadrant = np.exp(-0.5 * (abs_omega / sigma_w) ** 2)[:, None] \
        * np.exp(-0.5 * (abs_k / sigma_k) ** 2)[None, :]
    return SpectralGrid(spec, domain=quadrant)


def _gaussian_map(sigma_tau=2e-14, sigma_xi=4e-5, n=257, tau_step=1e-15,
                  xi_step=2e-6):
    tau = (np.arange(n) - n // 2) * tau_step
    xi = (np.arange(n) - n // 2) * xi_step
    g = np.exp(-0.5 * (tau / sigma_tau) ** 2)[:, None] \
        * np.exp(-0.5 * (xi / sigma_xi) ** 2)[None, :]
    return CoherenceMap(tau, xi, domain=map_mirror(g)[0], carrier_omega=1.2e15,
                        intensity=1.0, provenance={})


def test_center_is_one_exactly(map94):
    i0, j0 = map94.tau_axis.size // 2, map94.xi_axis.size // 2
    assert map94.g[i0, j0] == 1.0 + 0.0j
    assert not np.signbit(map94.g[i0, j0].imag)
    assert map94.tau_axis[i0] == 0.0
    assert map94.xi_axis[j0] == 0.0


def test_center_is_one_exactly_at_collinear(sell):
    # on this grid a complex division by the centre gives 1 - 1 ulp
    cfg = _cfg(19.87, sell)
    g = correlation_map(build_spectrum(cfg, auto_grid(cfg, 512, 256))).g
    assert g[g.shape[0] // 2, g.shape[1] // 2] == 1.0 + 0.0j


def test_default_map_shape_and_sizes_survive_both_formats(spectra,
                                                         tmp_path):
    sg = spectra[19.94]
    assert sg.values.shape == (1024, 512)
    cmap = correlation_map(sg)
    assert cmap.g.shape == (1025, 257)
    sizes = {"oversample_tau": 16, "oversample_xi": 8,
             "extent_cells_tau": 32, "extent_cells_xi": 16}
    for fmt in ("csv", "binary"):
        path = tmp_path / f"map.{fmt}"
        write_coherence_map(path, cmap, fmt=fmt)
        back = read_coherence_map(path)
        assert back.g.shape == (1025, 257)
        assert {key: back.provenance[key] for key in sizes} == sizes


def test_default_map_sizes_converge(spectra):
    # against xi at tau's oversample 16 over +-32 cells: a 1025 x 1025 map
    for deg, sg in spectra.items():
        small = correlation_map(sg)
        full = correlation_map(sg, oversample=16, extent_cells=32)
        m, ref = metrics(small), metrics(full)
        assert m.tau_c == pytest.approx(ref.tau_c, rel=1e-4, abs=0), deg
        assert m.xi_c == pytest.approx(ref.xi_c, rel=1e-4, abs=0), deg
        assert m.first_ring_height == pytest.approx(ref.first_ring_height,
                                                    rel=1e-4), deg
        assert factorability_defect(small) == pytest.approx(
            factorability_defect(full), abs=1e-3), deg


def test_magnitude_bounded(map94):
    assert np.abs(map94.g).max() <= 1 + 1e-9


def test_hermitian_symmetry(map94):
    # S is real, so g(-tau, -xi) = conj g(tau, xi) holds bit for bit
    assert np.array_equal(map94.g[::-1, ::-1], np.conj(map94.g))


_SPEC64 = GridSpec(omega_center=1.2e15, omega_half_width=2e14,
                   n_omega=64, k_half_width=1e5, n_k=64)


def test_transform_is_exact_for_a_k_mirrored_density():
    # a random S, even in Omega and k, with mass in the unpaired Omega row
    # and k column: the quadrant's last row and column. Its two outermost
    # rows and columns are tapered by 1e-4, so it decays at the edges
    quadrant = np.random.default_rng(3).random((33, 33))
    quadrant[-2:] *= 1e-4
    quadrant[:, -2:] *= 1e-4
    assert np.all(quadrant[-1] > 0) and np.all(quadrant[:, -1] > 0)
    sg = SpectralGrid(_SPEC64, domain=quadrant)
    cm = correlation_map(sg, oversample=2, extent_cells=4)
    for i, tau in enumerate(cm.tau_axis):
        for j, xi in enumerate(cm.xi_axis):
            envelope = cm.g[i, j] * np.exp(-1j * cm.carrier_omega * tau)
            assert abs(direct_correlation(sg, tau, xi) - envelope) < 1e-12


def test_zero_lag_intensity_is_grid_sum(map94, sell):
    sg = build_spectrum(_cfg(19.94, sell))
    cell = sg.spec.omega_step * sg.spec.k_step
    assert map94.intensity == pytest.approx(sg.values.sum() * cell, rel=1e-9)


def test_refuses_undecayed_grid(spectra, map94):
    # the edge ratio is S's own, from its quadrant, whatever its provenance
    # says: an S whose -Omega_max row holds its peak is refused though its
    # provenance says 0.0, and one with no positive peak is refused too
    sg = spectra[19.94]
    bad = sg.domain.copy()
    bad[-1, 0] = bad.max()
    with pytest.raises(EdgeDecayError, match=r"^S holds 1\.00e\+00 of its sampled "
                                             r"peak on the edge of its 1024 x 512 grid$"):
        correlation_map(SpectralGrid(sg.spec, domain=bad, provenance={"edge_ratio": 0.0}))
    with pytest.raises(EdgeDecayError, match=r"^S holds inf "):
        correlation_map(SpectralGrid(sg.spec, domain=np.zeros_like(bad)))
    # build_spectrum's S without its provenance transforms to the same map
    bare = correlation_map(SpectralGrid(sg.spec, domain=sg.domain))
    assert bare.domain.tobytes() == map94.domain.tobytes()


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_a_read_spectrum_is_judged_by_its_quadrant(sell, tmp_path, fmt):
    # a file's header keeps the edge ratio of the S it was written from; the
    # transforms judge the quadrant read back, whose -Omega_max row holds
    # its peak
    cfg = _cfg(19.94, sell)
    sg = build_spectrum(cfg, auto_grid(cfg, 64, 64))
    bad = sg.domain.copy()
    bad[-1, 0] = bad.max()
    path = tmp_path / f"spectrum.{fmt}"
    write_spectral_grid(path, SpectralGrid(sg.spec, domain=bad, provenance=sg.provenance),
                        fmt=fmt)
    back = read_spectral_grid(path)
    assert back.provenance["edge_ratio"] == sg.edge_ratio < 1e-3
    for transform in (correlation_map, correlation_columns):
        with pytest.raises(EdgeDecayError, match=r"^S holds 1\.00e\+00 "):
            transform(back)


def test_separable_gaussian_factorizes():
    sg = _gaussian_grid()
    cm = correlation_map(sg)
    assert factorability_defect(cm) < 1e-6
    # continuous-transform envelope, exact for a well-sampled Gaussian pair
    expected = np.exp(-0.5 * (2e13 * cm.tau_axis) ** 2)[:, None] \
        * np.exp(-0.5 * (1e4 * cm.xi_axis) ** 2)[None, :]
    assert np.max(np.abs(np.abs(cm.g) - expected)) < 1e-8


def test_delta_spectrum_is_fully_coherent():
    spec = GridSpec(omega_center=1.2e15, omega_half_width=2e14,
                    n_omega=128, k_half_width=1e5, n_k=64)
    # S at Omega = 0, k = 0 alone: its quadrant's first node
    quadrant = np.zeros((65, 33))
    quadrant[0, 0] = 1.0
    cm = correlation_map(SpectralGrid(spec, domain=quadrant))
    assert np.max(np.abs(np.abs(cm.g) - 1.0)) < 1e-12


def test_ring_spectrum_couples_time_and_space(map94):
    assert factorability_defect(map94) > 0.1


def test_transform_matches_direct_quadrature(sell):
    cfg = _cfg(19.94, sell)
    sg = build_spectrum(cfg, auto_grid(cfg, n_omega=256, n_k=256))
    cm = correlation_map(sg)
    rng = np.random.default_rng(11)
    rows = rng.integers(0, cm.tau_axis.size, size=40)
    cols = rng.integers(0, cm.xi_axis.size, size=40)
    for i, j in zip(rows, cols):
        direct = direct_correlation(sg, cm.tau_axis[i], cm.xi_axis[j])
        envelope = cm.g[i, j] * np.exp(-1j * cm.carrier_omega * cm.tau_axis[i])
        assert abs(direct - envelope) < 1e-6


def test_direct_correlation_normalizes_at_zero(sell):
    sg = build_spectrum(_cfg(19.94, sell))
    assert direct_correlation(sg, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_correlation_decays_far_outside(sell):
    sg = build_spectrum(_cfg(19.94, sell))
    assert abs(direct_correlation(sg, 1.5e-12, 0.0)) < 1e-2
    assert abs(direct_correlation(sg, 0.0, 3e-3)) < 1e-2


def test_column_refuses_xi_past_the_alias_free_range_and_nan(spectra):
    sg = spectra[19.94]
    column = correlation_columns(sg)
    limit = math.pi / sg.spec.k_step
    assert column(np.nextafter(limit, 0)).g.size == 1025
    for xi in (limit, -limit, math.nan):
        with pytest.raises(MapExtentError, match="outside the map's alias-free range"):
            column(xi)


def test_metric_values_for_the_three_orientations(sell):
    # frozen from an independent quadrature pipeline; grid-converged.
    # These and test_acceptance's REF_WIDTHS and ring bounds cannot both pass
    # under the documented model: regenerate neither (see ROADMAP "Standing").
    expected = {19.87: (27.949e-15, 72.079e-6, 0.0728),
                19.90: (22.292e-15, 56.826e-6, 0.1447),
                19.94: (16.816e-15, 42.020e-6, 0.2657)}
    rings = []
    for theta, (tau_c, xi_c, ring) in expected.items():
        m = metrics(correlation_map(build_spectrum(_cfg(theta, sell))))
        assert m.tau_c == pytest.approx(tau_c, rel=5e-3, abs=0), theta
        assert m.xi_c == pytest.approx(xi_c, rel=5e-3), theta
        assert m.first_ring_height == pytest.approx(ring, abs=5e-3), theta
        rings.append(m.first_ring_height)
    assert rings[0] < rings[1] < rings[2]


def test_metrics_on_synthetic_gaussian():
    m = metrics(_gaussian_map())
    assert m.tau_c == pytest.approx(FWHM_SIGMA * 2e-14, rel=5e-3, abs=0)
    assert m.xi_c == pytest.approx(FWHM_SIGMA * 4e-5, rel=5e-3)
    assert m.first_ring_height == 0.0
    assert m.tau_cut.size == m.tau_axis.size


def test_metrics_needs_eight_samples_per_width():
    # 2.35 sigma of 1.5 steps ~ 3.5 samples across the peak
    coarse = _gaussian_map(sigma_tau=1.5e-15, n=65)
    with pytest.raises(ResolutionError) as err:
        metrics(coarse)
    assert err.value.refine_factor >= 2


def test_metrics_needs_the_crossing_inside_the_map():
    wide = _gaussian_map(sigma_tau=1e-12, sigma_xi=1e-3)
    with pytest.raises(MapExtentError, match="extent"):
        metrics(wide)


@pytest.mark.parametrize("cell", [(0, 0), (3, 0)])
def test_metrics_refuses_a_cut_whose_peak_is_infinite(cell):
    # the infinity won _fwhm's argmax, and its half gave a NaN width after a
    # RuntimeWarning; a map file may hold Infinity, so the map takes it
    tau, xi = (np.arange(201) - 100) * 1e-15, (np.arange(101) - 50) * 2e-6
    g = np.exp(-0.5 * (tau / 2e-14) ** 2)[:, None] * np.exp(-0.5 * (xi / 4e-5) ** 2)
    quadrant = map_mirror(g)[0].copy()
    quadrant[cell] = np.inf
    cmap = CoherenceMap(tau, xi, domain=quadrant, carrier_omega=1.2e15, intensity=1.0)
    with pytest.raises(ConfigurationError, match="^central peak must be a finite number, got inf$"):
        metrics(cmap)


def test_grid_convergence_of_downstream_metrics(sell):
    cfg = _cfg(19.90, sell)
    coarse = metrics(correlation_map(build_spectrum(cfg, auto_grid(cfg, 512, 256))))
    fine = metrics(correlation_map(build_spectrum(cfg, auto_grid(cfg, 1024, 512))))
    assert coarse.tau_c == pytest.approx(fine.tau_c, rel=1e-2, abs=0)
    assert coarse.xi_c == pytest.approx(fine.xi_c, rel=1e-2)


def test_blur_zero_is_identity(map94):
    out = instrument_blur(map94, 0.0, 0.0)
    assert np.array_equal(out.g, map94.g)
    assert out.g is not map94.g


def test_zero_blur_records_its_widths_and_keeps_the_values(map94):
    out = instrument_blur(map94, 0.0, 0.0)
    assert out.domain.tobytes() == map94.domain.tobytes()
    assert out.domain is not map94.domain
    assert (out.provenance["blur_tau_s"], out.provenance["blur_xi_m"]) == (0.0, 0.0)


def test_blur_keeps_phase_and_caps_peak(map94):
    out = instrument_blur(map94, 1e-15, 6e-6)
    assert np.abs(out.g).max() < 1.0
    assert np.abs(out.g).max() > 0.98
    mask = np.abs(map94.g) > 1e-3
    assert np.allclose(np.angle(out.g[mask]), np.angle(map94.g[mask]),
                       atol=1e-12)


def test_blur_widens_separable_gaussian_widths():
    cm = _gaussian_map()
    m0 = metrics(cm)
    mb = metrics(instrument_blur(cm, 5e-15, 1e-5))
    assert mb.tau_c > m0.tau_c
    assert mb.xi_c > m0.xi_c
    sigma = math.hypot(2e-14, 5e-15 / FWHM_SIGMA)
    assert mb.tau_c == pytest.approx(FWHM_SIGMA * sigma, rel=5e-3, abs=0)


def test_blur_on_pdc_map_changes_widths_marginally(map94):
    # the 2D kernel couples the axes: tau_c may shrink, but only by a
    # fraction of the blur width itself
    m0 = metrics(map94)
    mb = metrics(instrument_blur(map94, 1e-15, 6e-6))
    assert mb.tau_c > m0.tau_c - 0.5e-15
    assert mb.xi_c > m0.xi_c - 3e-6
    assert mb.xi_c < m0.xi_c * 1.05


def _random_map(shape):
    """A map of this shape from a random quadrant of either sign; an even
    count mirrors about the half cell."""
    quadrant = map_mirror(np.empty(shape))[0]
    g = np.random.default_rng(5).normal(size=quadrant.shape)
    return CoherenceMap(np.arange(shape[0]) * 1e-15, np.arange(shape[1]) * 1e-6,
                        domain=g, carrier_omega=1.2e15, intensity=1.0, provenance={})


@pytest.mark.parametrize("shape, sigma", [
    (None, None),
    ((37, 91), (2.2, 0.7)),
    ((91, 37), (0.0, 3.3)),
    ((37, 91), (1e-16, 2.0)),
    ((37, 91), (1e-16, 1e-16)),
    ((60, 128), (12.5, 30.0))],
    ids=["map94", "both", "xi_only", "tau_tiny", "both_tiny", "wide"])
def test_blur_matches_scipy_bit_for_bit(map94, shape, sigma):
    # scipy is the reference only; pdcoh does its own blur
    from scipy.ndimage import gaussian_filter
    cm = map94 if shape is None else _random_map(shape)
    if sigma is None:
        dtau, dxi = 1e-15, 6e-6
    else:
        dtau = sigma[0] * FWHM_TO_SIGMA * cm.tau_step
        dxi = sigma[1] * FWHM_TO_SIGMA * cm.xi_step
    out = instrument_blur(cm, dtau, dxi)
    mag = np.abs(cm.g)
    want = gaussian_filter(mag, (dtau / FWHM_TO_SIGMA / cm.tau_step,
                                 dxi / FWHM_TO_SIGMA / cm.xi_step),
                           mode="constant", cval=0.0)
    phase = np.where(mag > 0, cm.g / np.where(mag > 0, mag, 1.0), 1.0)
    assert np.array_equal((want * phase).view(np.uint64), out.g.view(np.uint64))


def test_blur_refuses_sigma_below_the_sampling_floor(spectra):
    # at tau oversample 8 a 1 fs blur's sigma spans only 0.32-0.40 samples,
    # where the sampled Gaussian keeps only 15-51 % of its variance
    for deg, sg in spectra.items():
        coarse = correlation_map(sg, oversample=8, extent_cells=(32, 16))
        with pytest.raises(ResolutionError, match="tau") as err:
            instrument_blur(coarse, 1e-15, 6e-6)
        assert err.value.refine_factor == 2, deg
        cmap = correlation_map(sg)
        blurred = instrument_blur(cmap, 1e-15, 6e-6)
        assert abs(blurred.g).max() < 1.0, deg
        with pytest.raises(ResolutionError, match="xi"):
            instrument_blur(cmap, 0.0, 1e-6)


def test_blur_kernel_must_fit_the_map(map94):
    span = map94.tau_axis[-1] - map94.tau_axis[0]
    with pytest.raises(MapExtentError, match="kernel"):
        instrument_blur(map94, 2 * span, 0.0)
    with pytest.raises(MapExtentError, match="^blur widths must be finite and nonnegative$"):
        instrument_blur(map94, -1e-15, 0.0)
    # a NaN width once blurred only the other axis and recorded NaN in the
    # provenance of every blurred product
    for widths, words in (((math.nan, 6e-6), "blur tau width must be a finite number, got nan"),
                          ((1e-15, math.nan), "blur xi width must be a finite number, got nan"),
                          ((math.inf, 0.0), "blur tau width must be a finite number, got inf")):
        with pytest.raises(ConfigurationError) as info:
            instrument_blur(map94, *widths)
        assert type(info.value) is ConfigurationError and str(info.value) == words


def test_provenance_flows_through(map94, sell):
    assert map94.provenance["crystal_hash"] == _cfg(19.94, sell).config_hash()
    out = instrument_blur(map94, 1e-15, 6e-6)
    assert out.provenance["blur_tau_s"] == 1e-15
    assert map94.provenance.get("blur_tau_s") is None


def test_tau_stage_holds_r_and_a_few_blocks_not_the_whole_cos_kernel(sell):
    """On the example's 1024 x 512 grid either transform's peak stays within
    R (513 x 257, 1.05 MB) and a few 64-row blocks (0.26 MB each): the
    whole 513 x 513 cos kernel, 2.1 MB more, took it to 3.32 MB."""
    cfg = _cfg(19.94, sell)
    sg = build_spectrum(cfg, auto_grid(cfg, 1024, 512))
    for transform in (correlation_columns, correlation_map):
        tracemalloc.start()
        try:
            transform(sg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_300_000, (transform.__name__, peak)
