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
from pdcoh.dispersion import c
from pdcoh.phasematch import _mismatch
from pdcoh.spectrum import _density_from_mismatch, _masked_density, bilinear

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
    """_masked_density's definition, one k column at a time."""
    columns, invalid = [], 0
    for kj in k:
        mismatch, valid = _mismatch(cfg, omega, kj)
        columns.append(np.where(
            valid, _density_from_mismatch(mismatch, cfg.length_m, cfg.gain), 0.0))
        invalid = invalid + ~valid
    return np.column_stack(columns), invalid


@pytest.mark.parametrize("axis", ["random", "probe"])
def test_masked_density_equals_the_column_by_column_evaluation(theta_pm, sell, axis):
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
        # auto_grid's first probe axes
        omega = wc + np.linspace(-0.49 * wc, 0.49 * wc, 257)
        k = np.linspace(-4e5, 4e5, 129)
    values, invalid = _masked_density(cfg, omega, k)
    want, want_invalid = _density_by_column(cfg, omega, k)
    assert values.tobytes() == want.tobytes()
    assert invalid.tolist() == want_invalid.tolist() and invalid.sum() > 0


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
    # spreads so wide that the margin would pass 0.49 omega_c
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


def test_wavelength_angle_spot_position(spot):
    wa = to_wavelength_angle(spot, n_wavelength=513, n_angle=257)
    assert wa.angle_axis_rad[128] == 0.0
    i, j = np.unravel_index(np.argmax(wa.values), wa.values.shape)
    lam_step = wa.wavelength_axis_m[1] - wa.wavelength_axis_m[0]
    assert abs(wa.wavelength_axis_m[i] - 1.6e-6) <= lam_step
    assert wa.angle_axis_rad[j] == 0.0


def test_wavelength_angle_ring_position(ring):
    wa = to_wavelength_angle(ring, n_wavelength=257, n_angle=257)
    i = int(np.argmin(np.abs(wa.wavelength_axis_m - 1.6e-6)))
    row = wa.values[i]
    jc = 128
    jm = jc + np.argmax(row[jc:])
    step = wa.angle_axis_rad[1] - wa.angle_axis_rad[0]
    # k_ring * lambda / (2 pi) at the degenerate wavelength
    expected = 72463.9529 * 1.6e-6 / (2 * math.pi)
    assert abs(wa.angle_axis_rad[jm] - expected) <= step


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("dtype, order", [(float, "C"), (complex, "C"), (float, "F")],
                         ids=["float", "complex", "float-fortran"])
def test_bilinear_matches_scipy_bit_for_bit(dtype, order):
    # scipy is the reference only; pdcoh does its own lookups, through a
    # flat index that must not assume C order
    from scipy.interpolate import RegularGridInterpolator
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.uniform(0.5, 2.0, 40))
    y = np.cumsum(rng.uniform(0.5, 2.0, 30)) - 20.0
    values = rng.normal(size=(40, 30)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=(40, 30))
    values = np.asarray(values, order=order)
    nodes_x, nodes_y = np.meshgrid(x, y, indexing="ij")
    qx = np.concatenate([rng.uniform(x[0], x[-1], 200_000), nodes_x.ravel()])
    qy = np.concatenate([rng.uniform(y[0], y[-1], 200_000), nodes_y.ravel()])
    want = RegularGridInterpolator((x, y), values)(np.stack([qx, qy], axis=-1))
    got, inside = bilinear(x, y, values, qx, qy)
    assert inside.all()
    assert np.array_equal(_bits(got), _bits(want))
    _, inside = bilinear(x, y, values, np.array([x[0] - 1e-9, np.nan, x[-1]]),
                         np.array([y[0], y[0], y[-1] + 1e-9]))
    assert not inside.any()


def _assert_mirrored_resample(got, want, sg):
    """got, the resample, is want, the node-by-node reference, bit for bit
    on the theta >= 0 columns; its theta < 0 columns are their mirror bit for
    bit, within 1e-10 relative of the reference where both are nonzero and
    zero elsewhere only where the reference is at most edge_ratio x peak."""
    half = got.shape[1] // 2
    assert np.array_equal(_bits(got[:, half:]), _bits(want[:, half:]))
    assert np.array_equal(_bits(got[:, :half]), _bits(got[:, ::-1][:, :half]))
    got, want = got[:, :half], want[:, :half]
    both = (got != 0) & (want != 0)
    assert np.all(np.abs(got - want)[both] <= 1e-10 * np.abs(want[both]))
    assert np.all(got[~both] == 0)
    assert np.all(want[~both] <= sg.edge_ratio * sg.values.max())


def test_wavelength_angle_matches_scipy_bit_for_bit(ring):
    from scipy.interpolate import RegularGridInterpolator
    wa = to_wavelength_angle(ring, n_wavelength=257, n_angle=129)
    interp = RegularGridInterpolator((ring.omega_axis(), ring.k_axis()),
                                     ring.values, bounds_error=False,
                                     fill_value=0.0)
    lam, theta = np.meshgrid(wa.wavelength_axis_m, wa.angle_axis_rad,
                             indexing="ij")
    want = interp(np.stack([2 * math.pi * c / lam, theta * 2 * math.pi / lam],
                           axis=-1))
    assert np.count_nonzero(want == 0) > 0  # the zero fill is exercised
    _assert_mirrored_resample(wa.values, want, ring)


def _wavelength_angle_on_a_meshgrid(sg, n_wavelength, n_angle):
    """The resample node by node: one (omega, k) query per grid node."""
    omega = sg.omega_axis()
    lam = np.linspace(2 * math.pi * c / omega[-1], 2 * math.pi * c / omega[0],
                      n_wavelength)
    theta_max = sg.spec.k_half_width * lam[-1] / (2 * math.pi)
    theta = np.linspace(-theta_max, theta_max, n_angle)
    lam_q, theta_q = np.meshgrid(lam, theta, indexing="ij")
    values, inside = bilinear(omega, sg.k_axis(), sg.values,
                              2 * math.pi * c / lam_q, theta_q * 2 * math.pi / lam_q)
    return lam, theta, np.where(inside, values, 0.0)


@pytest.mark.parametrize("theta_deg", [19.87, 19.90, 19.94])
def test_wavelength_angle_equals_the_meshgrid_resample_bit_for_bit(sell, theta_deg):
    sg = build_spectrum(_cfg(math.radians(theta_deg), sell))
    for n_wavelength, n_angle in ((None, None), (300, 77)):
        wa = to_wavelength_angle(sg, n_wavelength, n_angle)
        lam, theta, values = _wavelength_angle_on_a_meshgrid(
            sg, n_wavelength or sg.spec.n_omega, n_angle or sg.spec.n_k)
        assert wa.values.shape == values.shape
        assert wa.wavelength_axis_m.tobytes() == lam.tobytes()
        assert wa.angle_axis_rad.tobytes() == theta.tobytes()
        _assert_mirrored_resample(wa.values, values, sg)


@pytest.mark.parametrize("field, size", [
    ("n_wavelength", 0), ("n_wavelength", 1), ("n_angle", 0), ("n_angle", -3),
    ("n_angle", 3.5), ("n_angle", "64")])
def test_wavelength_angle_refuses_bad_grid_sizes(spot, field, size):
    with pytest.raises(ConfigurationError, match=f"^{field} must be an integer >= 2"):
        to_wavelength_angle(spot, **{field: size})


def test_wavelength_angle_round_trip(spot):
    omega = spot.omega_axis()[::97]
    k = spot.k_axis()[::61]
    lam = 2 * math.pi * c / omega
    assert np.allclose(2 * math.pi * c / lam, omega, rtol=1e-14)
    theta = np.outer(lam, k) * (1 / (2 * math.pi))
    assert np.allclose(theta * 2 * math.pi / lam[:, None], k, rtol=1e-14,
                       atol=1e-18)
