import math

import numpy as np
import pytest

from pdcoh import (
    ConfigurationError,
    CrystalConfig,
    EvanescentWaveError,
    GridSpec,
    WavelengthRangeError,
    auto_grid,
    build_spectrum,
    collinear_degenerate_angle,
    load_sellmeier,
    spectral_density,
    to_wavelength_angle,
)
from pdcoh import phasematch, spectrum
from pdcoh.dispersion import c
from pdcoh.phasematch import _mismatch, _wavenumbers, phase_matched_locus
from pdcoh.spectrum import EDGE_DECAY_RATIO, _density_blocks, _density_from_mismatch

L = 0.01
G = 6.0
SINH2_G = math.sinh(6.0) ** 2  # 40688.19785628703


@pytest.fixture(scope="module")
def sell():
    return load_sellmeier("bbo_kato1986")


@pytest.fixture(scope="module")
def theta_pm(sell):
    return collinear_degenerate_angle(800e-9, sell)


def _cfg(theta_rad, sell):
    return CrystalConfig(length_m=L, theta_rad=theta_rad,
                         pump_wavelength_m=800e-9, gain=G, sellmeier=sell)


@pytest.fixture(scope="module")
def spot(theta_pm, sell):
    return build_spectrum(_cfg(theta_pm, sell))


@pytest.fixture(scope="module")
def ring(sell):
    return build_spectrum(_cfg(math.radians(19.94), sell))


def test_density_peak_is_sinh_squared():
    assert _density_from_mismatch(0.0, L, G) == pytest.approx(SINH2_G, rel=1e-12)


def test_density_vanishes_where_imaginary_gain_hits_pi():
    r = math.sqrt(G * G + math.pi ** 2)
    assert _density_from_mismatch(2 * r / L, L, G) < 1e-28


def test_low_gain_limit_is_sinc_squared():
    g0 = 1e-4
    s = _density_from_mismatch(2 * 1.3 / L, L, g0)
    assert s / g0 ** 2 == pytest.approx((math.sin(1.3) / 1.3) ** 2, rel=1e-6)


def test_series_matches_exact_form_at_the_handoff():
    for u in (0.9e-8, 1.1e-8, -0.9e-8, -1.1e-8):
        r = math.sqrt(G * G - u)
        exact = (G * (1 + u / 6.0)) ** 2
        assert _density_from_mismatch(2 * r / L, L, G) == pytest.approx(exact, rel=1e-9)


def test_density_decreases_smoothly_through_the_branch_point():
    # hyperbolic -> oscillatory transition: strictly decreasing, no jumps
    r = np.linspace(G - 1e-4, G + 1e-4, 2001)
    s = _density_from_mismatch(2 * r / L, L, G)
    assert s[1000] == pytest.approx(G * G, rel=1e-12)
    d = np.diff(s)
    assert np.all(d < 0)
    # no step stands out from the local secant slope: no jump at the handoff
    assert np.max(np.abs(d)) < 1.01 * np.median(np.abs(d))


def test_density_at_matched_degenerate_point(theta_pm, sell):
    cfg = _cfg(theta_pm, sell)
    s = spectral_density(cfg.degenerate_omega, 0.0, cfg)
    assert s == pytest.approx(SINH2_G, rel=1e-9)


def test_density_rejects_invalid_points(theta_pm, sell):
    cfg = _cfg(theta_pm, sell)
    with pytest.raises(WavelengthRangeError):
        spectral_density(0.05 * cfg.degenerate_omega, 0.0, cfg)
    with pytest.raises(EvanescentWaveError):
        spectral_density(cfg.degenerate_omega, 1e8, cfg)


@pytest.mark.parametrize("theta_deg", [19.87, 19.90, 19.94])
def test_built_grid_is_the_density_over_the_axis_product(sell, theta_deg):
    # the rows Omega <= 0 are evaluated, the rows Omega > 0 are their
    # mirrors, within rounding of their own evaluation
    cfg = _cfg(math.radians(theta_deg), sell)
    sg = build_spectrum(cfg)
    n = sg.spec.n_omega // 2
    want = spectral_density(sg.omega_axis()[:, None], sg.k_axis()[None, :], cfg)
    assert sg.values[:n + 1].tobytes() == want[:n + 1].tobytes()
    assert sg.values[n + 1:].tobytes() == sg.values[n - 1:0:-1].tobytes()
    assert np.abs(sg.values - want).max() <= 1e-11 * want.max()
    # later stages gather rows of S
    assert sg.values.flags.c_contiguous


def _density_by_column(cfg, omega, k):
    """_density_blocks' definition, one k column at a time; k holds one
    row of columns for every frequency, or a row per frequency."""
    columns, invalid = [], 0
    waves = _wavenumbers(cfg, omega)
    for kj in np.broadcast_to(k, (omega.size, np.shape(k)[-1])).T:
        mismatch, valid = _mismatch(waves, kj)
        columns.append(np.where(
            valid, _density_from_mismatch(mismatch, cfg.length_m, cfg.gain), 0.0))
        invalid = invalid + ~valid
    return np.column_stack(columns), invalid


def _stacked_blocks(cfg, omega, k):
    """_density_blocks over omega and k stacked, k as in _density_by_column:
    (density, invalid nodes per row). Each block yields the k it used."""
    k = np.broadcast_to(k, (omega.size, np.shape(k)[-1]))
    blocks = list(_density_blocks(cfg, omega, lambda rows: k[rows]))
    assert all(np.array_equal(used, k[rows]) for rows, used, _, _ in blocks)
    return (np.concatenate([density for _, _, density, _ in blocks]),
            np.concatenate([np.count_nonzero(~valid, axis=1) for *_, valid in blocks]))


@pytest.mark.parametrize("axis", ["random", "grid", "wavelength-angle"])
def test_density_blocks_equal_the_column_by_column_evaluation(theta_pm, sell, axis):
    cfg = _cfg(theta_pm, sell)
    wc = cfg.degenerate_omega
    if axis == "random":
        # no +-k pairs; the outermost rows leave the Sellmeier range and the
        # outermost columns are evanescent, so both masks count
        rng = np.random.default_rng(3)
        omega = wc + np.linspace(-0.4855 * wc, 0.4855 * wc, 300)
        k = np.sort(np.concatenate([rng.uniform(-4e5, 4e5, 95),
                                    rng.uniform(7e6, 9e6, 2) * [-1, 1]]))
    else:
        # a grid whose outermost rows leave the Sellmeier range
        g = GridSpec(omega_center=wc, omega_half_width=0.49 * wc, n_omega=256,
                     k_half_width=4e5, n_k=128)
        # a quadrant's axes as build_spectrum evaluates them
        omega, k = g.omega_axis()[:129], np.abs(g.k_axis()[64::-1])
        if axis == "wavelength-angle":
            # the angle >= 0 half as to_wavelength_angle lays it out over
            # this grid: k = angle * 2 pi / wavelength varies per row
            lam = np.linspace(2 * math.pi * c / g.omega_axis()[-1],
                              2 * math.pi * c / g.omega_axis()[0], 256)
            theta_max = g.k_half_width * lam[-1] / (2 * math.pi)
            theta = np.linspace(-theta_max, theta_max, 128)[64:]
            omega, k = 2 * math.pi * c / lam, theta * 2 * math.pi / lam[:, None]
    values, invalid = _stacked_blocks(cfg, omega, k)
    want, want_invalid = _density_by_column(cfg, omega, k)
    assert values.tobytes() == want.tobytes()
    assert invalid.tolist() == want_invalid.tolist() and invalid.sum() > 0


@pytest.mark.parametrize("gain", [0.5, 3.0, 6.0, 9.0])
def test_density_past_delta_is_below_the_edge_ratio_of_its_peak(gain):
    # auto_grid's support bound: past |r| = G, with r = delta_k L / 2,
    # S <= G^2 / (r^2 - G^2), so S is at most EDGE_DECAY_RATIO of sinh^2 G
    # wherever r^2 >= G^2 (1 + 1 / (EDGE_DECAY_RATIO sinh^2 G)), lobes and all
    peak = math.sinh(gain) ** 2
    r_delta = gain * math.sqrt(1 + 1 / (EDGE_DECAY_RATIO * peak))
    r = r_delta * np.linspace(1.0, 50.0, 200_001)
    assert _density_from_mismatch(2 * r / L, L, gain).max() <= EDGE_DECAY_RATIO * peak


def test_auto_grid_clamps_a_support_that_ends_inside_its_cap(sell):
    # the margined |Omega| half-width would pass the cap, but S ends inside
    # it: the grid stops at the pass's last in-range node, so every row
    # evaluates and the edges still decay
    cfg = CrystalConfig(length_m=8.5e-3, theta_rad=math.radians(19.8216),
                        pump_wavelength_m=800e-9, gain=1.49, sellmeier=sell)
    grid = auto_grid(cfg, 256, 128)
    hi = sell.valid_range_um[1]
    assert grid.omega_half_width == pytest.approx(cfg.degenerate_omega
                                                  - 2e6 * math.pi * c / hi, rel=1e-3)
    sg = build_spectrum(cfg, grid)
    assert sg.provenance["invalid_nodes"] == 0
    assert sg.edge_ratio < EDGE_DECAY_RATIO


def test_build_spectrum_refuses_a_grid_whose_edges_hold_its_sampled_peak(sell, monkeypatch):
    # the closed form bounds S on every edge by EDGE_DECAY_RATIO of sinh^2 G;
    # only nodes that miss the peak can fail the edge check of the S built,
    # which names them
    cfg = _cfg(math.radians(19.94), sell)
    grid = auto_grid(cfg, 256, 128)
    monkeypatch.setattr(spectrum.SpectralGrid, "edge_ratio", 2e-3)
    with pytest.raises(ConfigurationError,
                       match=r"^bbo_kato1986 at theta 19\.94 deg: S holds 2\.00e-03 of its "
                             r"sampled peak on the edge of its 256 x 128 grid$"):
        build_spectrum(cfg, grid)


def test_grid_spec_validation():
    good = dict(omega_center=1.2e15, omega_half_width=3e14,
                n_omega=256, k_half_width=1e5, n_k=128)
    GridSpec(**good)
    for bad in (dict(n_omega=100), dict(n_omega=32), dict(n_k=96),
                dict(omega_half_width=0.0), dict(k_half_width=-1.0),
                dict(omega_half_width=1.3e15)):
        with pytest.raises(ConfigurationError):
            GridSpec(**{**good, **bad})


def test_axes_hit_exact_centers():
    g = GridSpec(omega_center=1.2e15, omega_half_width=3e14,
                 n_omega=256, k_half_width=1e5, n_k=128)
    assert g.omega_axis()[128] == 1.2e15
    assert g.k_axis()[64] == 0.0
    assert g.omega_axis().size == 256
    steps = np.diff(g.omega_axis())
    assert np.allclose(steps, g.omega_step, rtol=1e-12)


def test_build_counts_and_zeroes_invalid_nodes(theta_pm, sell):
    cfg = _cfg(theta_pm, sell)
    wc = cfg.degenerate_omega
    # idler wavelength leaves the Sellmeier range on the outermost rows
    g = GridSpec(omega_center=wc, omega_half_width=0.4855 * wc,
                 n_omega=1024, k_half_width=4e5, n_k=512)
    sg = build_spectrum(cfg, g)
    assert sg.provenance["invalid_nodes"] == 1536
    assert sg.values[0].max() == 0.0
    assert sg.values[-1].max() == 0.0


def test_build_refuses_a_grid_off_the_degenerate_frequency(theta_pm, sell):
    cfg = _cfg(theta_pm, sell)
    g = GridSpec(omega_center=cfg.degenerate_omega * 1.001, omega_half_width=3e14,
                 n_omega=256, k_half_width=1e5, n_k=128)
    with pytest.raises(ConfigurationError,
                       match="^grid omega_center .* is not the degenerate frequency"):
        build_spectrum(cfg, g)


def test_build_rejects_mostly_invalid_grid(theta_pm, sell):
    cfg = _cfg(theta_pm, sell)
    wc = cfg.degenerate_omega
    g = GridSpec(omega_center=wc, omega_half_width=0.49 * wc,
                 n_omega=1024, k_half_width=4e5, n_k=512)
    with pytest.raises(ConfigurationError, match="narrow"):
        build_spectrum(cfg, g)


def test_spot_spectrum_peaks_at_degenerate_node(spot, theta_pm, sell):
    i, j = np.unravel_index(np.argmax(spot.values), spot.values.shape)
    assert i == spot.spec.n_omega // 2
    assert j == spot.spec.n_k // 2
    assert spot.omega_axis()[i] == _cfg(theta_pm, sell).degenerate_omega
    assert spot.k_axis()[j] == 0.0
    assert spot.values[i, j] == pytest.approx(SINH2_G, rel=1e-9)


def test_ring_spectrum_peaks_on_the_ring(ring, sell):
    # ring radii frozen from independent sign-change brackets of delta_k;
    # dip depth at k = 0 follows from the mismatch the open locus leaves there
    for theta_deg, k_ring, dip, sg in (
            (19.90, 48866.2893, 0.75, build_spectrum(_cfg(math.radians(19.90), sell))),
            (19.94, 72463.9529, 0.25, ring)):
        row = sg.values[sg.spec.n_omega // 2]
        kax = sg.k_axis()
        jc = sg.spec.n_k // 2
        jm = jc + np.argmax(row[jc:])
        assert abs(kax[jm] - k_ring) <= sg.spec.k_step, theta_deg
        assert row[jc] < dip * row[jm], theta_deg


def test_auto_grids_satisfy_edge_decay(spot, ring):
    assert spot.edge_ratio < 1e-3
    assert ring.edge_ratio < 1e-3
    assert spot.provenance["invalid_nodes"] == 0


def test_mirror_symmetry_in_k_is_exact(sell):
    wc = _cfg(math.radians(19.90), sell).degenerate_omega
    g = GridSpec(omega_center=wc, omega_half_width=3e14,
                 n_omega=256, k_half_width=1.2e5, n_k=128)
    v = build_spectrum(_cfg(math.radians(19.90), sell), g).values
    m = np.arange(1, 64)
    assert np.array_equal(v[:, 64 - m], v[:, 64 + m])


def test_signal_idler_symmetry(sell):
    cfg = _cfg(math.radians(19.90), sell)
    g = GridSpec(omega_center=cfg.degenerate_omega, omega_half_width=3e14,
                 n_omega=256, k_half_width=1.2e5, n_k=128)
    v = build_spectrum(cfg, g).values
    m = np.arange(1, 128)
    assert np.array_equal(v[128 - m], v[128 + m])


def test_values_are_bounded(spot, ring):
    for sg in (spot, ring):
        assert np.all(sg.values >= 0)
        assert sg.values.max() <= SINH2_G * (1 + 1e-12)


def test_rebuild_is_bit_identical(sell):
    cfg = _cfg(math.radians(19.94), sell)
    g = GridSpec(omega_center=cfg.degenerate_omega, omega_half_width=3e14,
                 n_omega=256, k_half_width=1.6e5, n_k=128)
    a = build_spectrum(cfg, g).values
    b = build_spectrum(cfg, g).values
    assert np.array_equal(a, b)


def test_auto_grid_needs_nonzero_gain(theta_pm, sell):
    cfg = CrystalConfig(length_m=L, theta_rad=theta_pm,
                        pump_wavelength_m=800e-9, gain=0.0, sellmeier=sell)
    with pytest.raises(ConfigurationError):
        auto_grid(cfg)


def test_auto_grid_refuses_a_support_past_its_cap(sell):
    # Eimerl's data match collinearly at 20.66 deg; at 19.94 the density
    # spreads so wide that the margin would pass the cap
    cfg = CrystalConfig(length_m=L, theta_rad=math.radians(19.94),
                        pump_wavelength_m=800e-9, gain=G,
                        sellmeier=load_sellmeier("bbo_eimerl1987"))
    with pytest.raises(ConfigurationError,
                       match=r"^bbo_eimerl1987 at theta 19\.94 deg.*cap"):
        auto_grid(cfg)
    grid = auto_grid(_cfg(math.radians(19.94), sell))
    assert grid.omega_half_width < 0.49 * grid.omega_center


def test_provenance_records_build(spot, theta_pm, sell):
    # the crystal's digest, under a key of its own: config_hash in the CLI's
    # cuts and metrics is the digest of the whole run
    assert spot.provenance["crystal_hash"] == _cfg(theta_pm, sell).config_hash()
    assert "config_hash" not in spot.provenance
    assert "built_at" not in spot.provenance
    assert spot.provenance["gain"] == G
    # the set's name, which tells the shipped BBO sets apart
    assert spot.provenance["material"] == "bbo_kato1986"


def test_wavelength_angle_spot_position(spot, theta_pm, sell):
    wa = to_wavelength_angle(_cfg(theta_pm, sell), spot.spec)
    # an even angle count puts no node at 0: the spot peaks on the two
    # nodes about it
    assert wa.angle_axis_rad[255] < 0 < wa.angle_axis_rad[256]
    i, j = np.unravel_index(np.argmax(wa.values), wa.values.shape)
    lam_step = wa.wavelength_axis_m[1] - wa.wavelength_axis_m[0]
    assert abs(wa.wavelength_axis_m[i] - 1.6e-6) <= lam_step
    assert j in (255, 256)


def test_wavelength_angle_ring_position(ring, sell):
    wa = to_wavelength_angle(_cfg(math.radians(19.94), sell), ring.spec)
    i = int(np.argmin(np.abs(wa.wavelength_axis_m - 1.6e-6)))
    row = wa.values[i]
    jc = 256
    jm = jc + np.argmax(row[jc:])
    step = wa.angle_axis_rad[1] - wa.angle_axis_rad[0]
    # k_ring * lambda / (2 pi) at the degenerate wavelength
    expected = 72463.9529 * 1.6e-6 / (2 * math.pi)
    assert abs(wa.angle_axis_rad[jm] - expected) <= step


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_closed_form(wa, sg, cfg):
    """Every node of the grid is spectral_density at its (omega, k), bit for
    bit, or 0 where |k| passes S's largest k node or the node does not
    evaluate; the theta < 0 columns are the theta >= 0 ones, mirrored bit
    for bit."""
    lam, theta = np.meshgrid(wa.wavelength_axis_m, wa.angle_axis_rad, indexing="ij")
    omega, k = 2 * math.pi * c / lam, np.abs(theta) * 2 * math.pi / lam
    support = _mismatch(_wavenumbers(cfg, omega), k)[1] & (k <= sg.k_axis()[-1])
    assert np.count_nonzero(~support) > 0  # the zero rule is exercised
    half = wa.values.shape[1] // 2
    want = np.zeros_like(wa.values)
    want[support] = spectral_density(omega[support], k[support], cfg)
    assert np.array_equal(_bits(wa.values[:, half:]), _bits(want[:, half:]))
    assert np.array_equal(_bits(wa.values[:, :half]),
                          _bits(wa.values[:, ::-1][:, :half]))


def test_wavelength_angle_matches_spectral_density_per_node(ring, sell):
    cfg = _cfg(math.radians(19.94), sell)
    _assert_closed_form(to_wavelength_angle(cfg, ring.spec), ring, cfg)


@pytest.mark.parametrize("theta_deg", [19.87, 19.90, 19.94])
def test_wavelength_angle_equals_the_meshgrid_resample_bit_for_bit(sell, theta_deg):
    # the axes as a (wavelength, angle) meshgrid would lay them out, and the
    # density on the whole meshgrid at once
    cfg = _cfg(math.radians(theta_deg), sell)
    sg = build_spectrum(cfg)
    wa = to_wavelength_angle(cfg, sg.spec)
    omega = sg.omega_axis()
    lam = np.linspace(2 * math.pi * c / omega[-1], 2 * math.pi * c / omega[0],
                      sg.spec.n_omega)
    theta_max = sg.spec.k_half_width * lam[-1] / (2 * math.pi)
    theta = np.linspace(-theta_max, theta_max, sg.spec.n_k)
    assert wa.values.shape == (sg.spec.n_omega, sg.spec.n_k)
    assert wa.wavelength_axis_m.tobytes() == lam.tobytes()
    assert wa.angle_axis_rad.tobytes() == theta.tobytes()
    _assert_closed_form(wa, sg, cfg)


def test_wavelength_angle_round_trip(spot):
    omega = spot.omega_axis()[::97]
    k = spot.k_axis()[::61]
    lam = 2 * math.pi * c / omega
    assert np.allclose(2 * math.pi * c / lam, omega, rtol=1e-14)
    theta = np.outer(lam, k) * (1 / (2 * math.pi))
    assert np.allclose(theta * 2 * math.pi / lam[:, None], k, rtol=1e-14,
                       atol=1e-18)


def test_each_pass_evaluates_the_wavenumbers_once(sell, monkeypatch):
    # k_s, k_i and k_p, one wavenumber call each, per pass: auto_grid's
    # |Omega| pass serves its support and its k root, build_spectrum's and
    # to_wavelength_angle's blocks slice one evaluation, and the locus's
    # on-axis mismatch and ring root share one
    calls = []
    wavenumber = phasematch.wavenumber
    monkeypatch.setattr(phasematch, "wavenumber",
                        lambda *args: calls.append(1) or wavenumber(*args))
    cfg = _cfg(math.radians(19.94), sell)

    def counted(run, *args):
        calls.clear()
        result = run(*args)
        return result, len(calls)

    grid, n_grid = counted(auto_grid, cfg)
    sg, n_build = counted(build_spectrum, cfg, grid)
    _, n_angle = counted(to_wavelength_angle, cfg, sg.spec)
    _, n_locus = counted(phase_matched_locus, cfg,
                         cfg.degenerate_omega * np.linspace(0.55, 1.45, 181))
    assert (n_grid, n_build, n_angle, n_locus) == (3, 3, 3, 3)
