"""Physical invariants of S(omega, k) and of its map g1(tau, xi), checked
over the crystal parameter box.

The orientation, gain and length are drawn; each draw is either accepted
by `auto_grid` on a 256 x 128 grid, and then its density and map must obey
the invariants below, or refused with the one refusal that names the
Sellmeier set and the angle.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdcoh import ConfigurationError, CrystalConfig, auto_grid, build_spectrum, \
    load_sellmeier, spectral_density, to_wavelength_angle
from pdcoh.coherence import FWHM_TO_SIGMA, _gaussian_rows, blur_sigma, correlation_map, \
    instrument_blur, metrics
from pdcoh.dispersion import ORDINARY, c, gvd, index
from pdcoh.phasematch import _mismatch, phase_matched_locus
from pdcoh.spectrum import _masked_density, s_mirror

SELL = load_sellmeier("bbo_kato1986")

# the box the README states as a limit: theta 19.6-20.1 deg, gain 0.5-8,
# length 2-20 mm
BOX = (st.floats(19.6, 20.1), st.floats(0.5, 8.0), st.floats(2e-3, 20e-3))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _spectrum(theta_deg, gain, length_m):
    """(config, 256 x 128 density) of a drawn crystal, or None when auto_grid
    refuses it up front, by name: its support reaches auto_grid's cap."""
    cfg = CrystalConfig(length_m=length_m, theta_rad=math.radians(theta_deg),
                        pump_wavelength_m=800e-9, gain=gain, sellmeier=SELL)
    try:
        spec = auto_grid(cfg, 256, 128)
    except ConfigurationError as exc:
        assert str(exc).startswith(
            f"{SELL.name} at theta {math.degrees(cfg.theta_rad):g} deg: ")
        return None
    return cfg, build_spectrum(cfg, spec)


@settings(max_examples=60, deadline=None)
@given(*BOX)
def test_density_is_bounded_and_exchange_symmetric(theta_deg, gain, length_m):
    drawn = _spectrum(theta_deg, gain, length_m)
    if drawn is None:
        return
    _, sg = drawn
    values = sg.values
    # G^2 f^2 is largest at delta_k = 0, where it is sinh^2 G
    assert values.min() >= 0.0
    assert values.max() <= math.sinh(gain) ** 2 * (1 + 1e-12)
    # signal-idler exchange: S(omega_c + W, k) = S(omega_c - W, -k); row and
    # column 0 have no partner on the grid
    pairs = np.abs(values[1:, 1:] - values[:0:-1, :0:-1])
    assert pairs.max() <= 1e-10 * values.max()
    # the edge check that guards the transform passes on every accepted grid
    correlation_map(sg, oversample=2, extent_cells=4)


@settings(max_examples=40, deadline=None)
@given(*BOX)
def test_quadrant_unfolds_to_the_full_grid_density(theta_deg, gain, length_m):
    """S is held as its (|Omega|, |k|) quadrant. Unfolded, it is bit for bit
    _masked_density over the rows Omega <= 0 and the whole k axis, mirrored
    onto Omega > 0 by s_mirror (rows there evaluated directly differ from
    their mirror by rounding only); its invalid nodes and edge ratio are
    those of that full array."""
    drawn = _spectrum(theta_deg, gain, length_m)
    if drawn is None:
        return
    cfg, sg = drawn
    omega, k = sg.omega_axis(), sg.k_axis()
    n = omega.size // 2
    full = np.empty((omega.size, k.size))
    full[:n + 1], rows = _masked_density(cfg, omega[:n + 1], k)
    for image, source in s_mirror(full)[1]:
        image[...] = source
    assert np.array_equal(_bits(sg.values), _bits(full))
    direct, invalid = _masked_density(cfg, omega, k)
    assert np.abs(direct - full).max() <= 1e-10 * full.max()
    assert sg.provenance["invalid_nodes"] == 2 * rows.sum() - rows[0] - rows[n]
    assert sg.provenance["invalid_nodes"] == invalid.sum()
    edges = max(full[0].max(), full[-1].max(), full[:, 0].max(), full[:, -1].max())
    assert sg.edge_ratio == edges / full.max()


@settings(max_examples=60, deadline=None)
@given(*BOX)
def test_density_peaks_on_the_phase_matched_ring(theta_deg, gain, length_m):
    """On each omega row where the locus has a ring, S is largest within
    one k step of the ring's k."""
    drawn = _spectrum(theta_deg, gain, length_m)
    if drawn is None:
        return
    cfg, sg = drawn
    omega, k = sg.omega_axis(), sg.k_axis()
    locus = phase_matched_locus(cfg, omega)
    rows = np.searchsorted(omega, [w for w, _ in locus])
    assert omega[rows].tolist() == [w for w, _ in locus]
    ring = np.array([k_ring for _, k_ring in locus])
    # S is even in k, so the first maximum may sit at -k_ring
    peak_k = np.abs(k[np.argmax(sg.values[rows], axis=1)])
    assert np.all(np.abs(peak_k - ring) <= sg.spec.k_step)


@settings(max_examples=30, deadline=None)
@given(*BOX)
def test_wavelength_angle_nodes_are_the_closed_form(theta_deg, gain, length_m):
    """Every angle >= 0 node of the wavelength-angle grid is spectral_density
    at its own (omega, k), or 0 where |k| passes S's largest k node or the
    node does not evaluate; the grid is even in angle bit for bit. The
    angle axis is a linspace, whose theta_j and -theta_(n-1-j) can differ
    by an ulp, so a mirrored node is S at its own angle to within the
    peak's rounding (3.2e-12 of the peak, 4.8e-10 relative near a zero of
    S, at 20 deg, G 1, 15.6 mm)."""
    drawn = _spectrum(theta_deg, gain, length_m)
    if drawn is None:
        return
    cfg, sg = drawn
    wa = to_wavelength_angle(sg, cfg)
    lam, theta = np.meshgrid(wa.wavelength_axis_m, wa.angle_axis_rad, indexing="ij")
    omega, k = 2 * math.pi * c / lam, theta * 2 * math.pi / lam
    support = _mismatch(cfg, omega, k)[1] & (np.abs(k) <= sg.k_axis()[-1])
    want = np.zeros_like(wa.values)
    want[support] = spectral_density(omega[support], k[support], cfg)
    half = wa.values.shape[1] // 2
    assert np.all(np.abs(wa.values - want)[:, half:] <= 1e-12 * want[:, half:])
    assert np.max(np.abs(wa.values - want)) <= 1e-11 * want.max()
    assert np.array_equal(_bits(wa.values), _bits(wa.values[:, ::-1]))


@settings(max_examples=30, deadline=None)
@given(*BOX)
def test_map_is_real_and_even_in_xi_but_for_the_unpaired_edge(theta_deg, gain,
                                                              length_m):
    """S(Omega, k) depends on Omega and k only through Omega^2 and k^2
    about the degenerate frequency, where signal and idler exchange, so it
    is even in both, and its g1 is real and even in tau and xi. The
    transform counts the unpaired -Omega_max row and -k_max column half at
    each end, so the map and its blur hold all of this bit for bit."""
    drawn = _spectrum(theta_deg, gain, length_m)
    if drawn is None:
        return
    values = drawn[1].values
    assert np.array_equal(_bits(values[1:]), _bits(values[:0:-1]))
    assert np.array_equal(_bits(values[:, 1:]), _bits(values[:, :0:-1]))
    cm = correlation_map(drawn[1])
    assert cm.g[cm.g.shape[0] // 2, cm.g.shape[1] // 2] == 1.0
    # the example's 1 fs, 6 um blur, widened to 0.7 samples on a coarser map
    floor = 0.7 * FWHM_TO_SIGMA
    blurred = instrument_blur(cm, max(1e-15, floor * cm.tau_step),
                              max(6e-6, floor * cm.xi_step)).g
    for g in (cm.g, blurred):
        assert g.dtype == np.float64
        assert np.array_equal(_bits(g), _bits(g[::-1]))
        assert np.array_equal(_bits(g), _bits(g[:, ::-1]))


# a blur sigma in samples: none, or one the sampling floor allows and a
# 2-cell extent still holds (its FWHM within the map's 8-step span)
SIGMA = st.one_of(st.just(0.0), st.floats(0.6, 3.3))


@settings(max_examples=30, deadline=None)
@given(*BOX, st.sampled_from([2, 4, 8]), SIGMA, SIGMA)
@example(19.94, 6.0, 0.01, 2, 3.3, 0.0)
@example(19.94, 6.0, 0.01, 8, 0.0, 3.3)
@example(19.94, 6.0, 0.01, 4, 0.6, 1.5)
def test_quadrant_blur_is_the_full_blur_of_the_unfolded_map(theta_deg, gain, length_m,
                                                            extent, sigma_tau, sigma_xi):
    """instrument_blur blurs only the map's quadrant, padded with its
    mirror rows; it is bit for bit _gaussian_rows of the unfolded map, its
    sign kept, on either axis or both, with kernel radii (up to 13
    samples) past the quadrant's far edge (2 * extent + 1 samples)."""
    drawn = _spectrum(theta_deg, gain, length_m)
    if drawn is None:
        return
    cm = correlation_map(drawn[1], oversample=2, extent_cells=extent)
    dtau, dxi = (s * FWHM_TO_SIGMA * step for s, step in
                 ((sigma_tau, cm.tau_step), (sigma_xi, cm.xi_step)))
    g = cm.g
    want = np.abs(g)
    sigma = blur_sigma(cm, dtau, dxi)
    if sigma[0] > 1e-15:
        want = _gaussian_rows(want, sigma[0])
    if sigma[1] > 1e-15:
        want = _gaussian_rows(want.T, sigma[1]).T
    want = np.where(g < 0, -want, want) if dtau or dxi else g
    assert np.array_equal(_bits(instrument_blur(cm, dtau, dxi).g), _bits(want))


@settings(max_examples=20, deadline=None)
@given(st.floats(3.0, 8.0), st.floats(5e-3, 20e-3))
def test_width_ratio_follows_the_near_degenerate_dispersion(gain, length_m):
    """Near degeneracy S depends on |k''| Omega^2 + k^2 / k_c only, so
    xi_c / tau_c is 1 / sqrt(|k''| k_c) = 2.65 um/fs at 1.6 um whatever G
    and L; the map gives 2.44-2.62 um/fs over the gains and lengths where
    that was measured."""
    drawn = _spectrum(19.90, gain, length_m)
    if drawn is None:
        return
    m = metrics(correlation_map(drawn[1]))
    ratio = m.xi_c / m.tau_c * 1e-9  # um/fs
    lam_um = np.array([1.6])
    k_c = 2 * math.pi * index(lam_um, ORDINARY, SELL)[0] / 1.6e-6
    k2 = abs(gvd(lam_um, ORDINARY, SELL)[0]) * 1e-27  # fs^2/mm -> s^2/m
    assert 2.60 < 1e-9 / math.sqrt(k2 * k_c) < 2.70
    assert 2.44 <= ratio <= 2.62


@settings(max_examples=80, deadline=None)
@given(st.one_of(BOX[0], st.floats(20.1, 80.0)), *BOX[1:],
       st.sampled_from([64, 256, 1024]), st.sampled_from([64, 128, 512]))
@example(75.25, 6.0, 0.01, 64, 64)
@example(80.5, 6.0, 0.01, 64, 64)
@example(71.75, 6.0, 0.01, 64, 64)
def test_every_automatic_grid_passes_its_edge_check(theta_deg, gain, length_m,
                                                     n_omega, n_k):
    """auto_grid widens the grid its coarse probe sizes until S decays on
    every edge (at 75.25 and 80.5 deg the probe leaves 3.99e-3 and 3.67e-3
    of the peak on a 64 x 64 grid's edge), or refuses by name where that
    would pass its cap. The cap keeps every grid inside the dispersion
    range, so build_spectrum builds every grid auto_grid returns (at 71.75
    deg a 64 x 64 grid would need 0.486 omega_c, past the 0.484 omega_c
    where the signal leaves it)."""
    cfg = CrystalConfig(length_m=length_m, theta_rad=math.radians(theta_deg),
                        pump_wavelength_m=800e-9, gain=gain, sellmeier=SELL)
    try:
        grid = auto_grid(cfg, n_omega, n_k)
    except ConfigurationError as exc:
        assert str(exc).startswith(
            f"{SELL.name} at theta {math.degrees(cfg.theta_rad):g} deg: ")
        return
    sg = build_spectrum(cfg, grid)
    sg.check_edge_decay()
