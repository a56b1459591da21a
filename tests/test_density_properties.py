"""Physical invariants of S(omega, k) and of its map g1(tau, xi), checked
over the crystal parameter box.

The orientation, gain and length are drawn; each draw is either accepted
by `auto_grid` on a 256 x 128 grid, and then its density and map must obey
the invariants below, or refused with the one refusal that names the
Sellmeier set and the angle.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcoh import ConfigurationError, CrystalConfig, auto_grid, build_spectrum, \
    load_sellmeier
from pdcoh.coherence import FWHM_TO_SIGMA, correlation_map, instrument_blur, metrics
from pdcoh.dispersion import ORDINARY, gvd, index
from pdcoh.phasematch import phase_matched_locus

SELL = load_sellmeier("bbo_kato1986")

# the box the README states as a limit: theta 19.6-20.1 deg, gain 0.5-8,
# length 2-20 mm
BOX = (st.floats(19.6, 20.1), st.floats(0.5, 8.0), st.floats(2e-3, 20e-3))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _spectrum(theta_deg, gain, length_m):
    """(config, 256 x 128 density) of a drawn crystal, or None when auto_grid
    refuses it up front, by name: its support reaches the 0.49 omega_c cap."""
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
