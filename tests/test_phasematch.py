import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c

from pdcoh.dispersion import (
    ORDINARY,
    ExtraordinaryAtAngle,
    SellmeierSet,
    load_sellmeier,
    wavenumber,
)
from pdcoh.errors import (
    ConfigurationError,
    PdcohError,
    EvanescentWaveError,
    RootNotFoundError,
    WavelengthRangeError,
)
from pdcoh.phasematch import (
    CrystalConfig,
    collinear_degenerate_angle,
    delta_k,
    external_angle,
    in_sellmeier_range,
    phase_matched_locus,
)
from pdcoh.phasematch import _mismatch, _wavenumbers


@pytest.fixture(scope="module")
def bbo():
    return load_sellmeier("bbo_kato1986")


def _cfg(bbo, theta_deg, gain=6.0):
    return CrystalConfig(length_m=0.01, theta_rad=math.radians(theta_deg),
                         pump_wavelength_m=800e-9, gain=gain, sellmeier=bbo)


def test_collinear_degenerate_angle_value(bbo):
    theta = collinear_degenerate_angle(800e-9, bbo)
    assert math.degrees(theta) == pytest.approx(19.86659, abs=1e-4)


def test_mismatch_vanishes_at_the_solved_angle(bbo):
    # the closed form is exact to rounding; a bisection to 1e-9 rad in
    # angle would leave ~2e-6
    theta = collinear_degenerate_angle(800e-9, bbo)
    cfg = CrystalConfig(0.01, theta, 800e-9, 6.0, bbo)
    assert abs(delta_k(cfg.degenerate_omega, 0.0, cfg)) * cfg.length_m < 1e-8


def test_no_collinear_angle_outside_the_index_ellipse(bbo):
    # birefringence of ~0.003 cannot make up the ~0.015 index dispersion
    # between 800 nm and 1.6 um, so no pump direction is slow enough
    weak = SellmeierSet("weak", bbo.ordinary,
                        (bbo.ordinary[0] - 0.01,) + bbo.ordinary[1:],
                        bbo.valid_range_um).validate()
    with pytest.raises(RootNotFoundError):
        collinear_degenerate_angle(800e-9, weak)


def test_single_sign_change_over_angle_scan(bbo):
    # the collinear degenerate mismatch crosses zero exactly once between
    # 0 and pi/2, so the closed-form angle is the only matching angle
    omega_p = 2 * math.pi * c / 800e-9
    k_degen = 2 * wavenumber(omega_p / 2, ORDINARY, bbo)
    thetas = np.linspace(1e-3, math.pi / 2 - 1e-3, 721)
    vals = np.array([wavenumber(omega_p, ExtraordinaryAtAngle(t), bbo) - k_degen
                     for t in thetas])
    assert np.count_nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0) == 1


def test_even_in_transverse_wavevector(bbo):
    cfg = _cfg(bbo, 19.94)
    omega = cfg.degenerate_omega * (1 + np.linspace(-0.2, 0.2, 7))
    k = np.linspace(1e3, 2e5, 9)
    d_plus = delta_k(omega[:, None], k[None, :], cfg)
    d_minus = delta_k(omega[:, None], -k[None, :], cfg)
    assert np.array_equal(d_plus, d_minus)


def test_signal_idler_exchange_symmetry(bbo):
    cfg = _cfg(bbo, 19.90)
    detuning = np.linspace(1e12, 3e14, 50)
    k = 2e4
    d_sig = delta_k(cfg.degenerate_omega + detuning, k, cfg)
    d_idl = delta_k(cfg.degenerate_omega - detuning, k, cfg)
    assert np.allclose(d_sig, d_idl, rtol=0, atol=1e-8)


def test_evanescent_input_rejected(bbo):
    cfg = _cfg(bbo, 19.87)
    k_limit = wavenumber(cfg.degenerate_omega, ORDINARY, bbo)
    with pytest.raises(EvanescentWaveError):
        delta_k(cfg.degenerate_omega, 1.01 * k_limit, cfg)
    with pytest.raises(EvanescentWaveError):
        delta_k(cfg.degenerate_omega, np.array([0.0, 1.01 * k_limit]), cfg)


def test_out_of_range_frequency_rejected(bbo):
    cfg = _cfg(bbo, 19.87)
    with pytest.raises(WavelengthRangeError):
        delta_k(2 * math.pi * c / 4.0e-6, 0.0, cfg)  # signal beyond range
    with pytest.raises(WavelengthRangeError):
        delta_k(1.2 * cfg.pump_omega, 0.0, cfg)  # idler frequency negative


def test_range_mask_raises_no_floating_point_error(bbo):
    # the mask takes the wavelengths wavenumber checks, with their overflow
    # ignored, so no frequency, however close to 0, raises
    cfg = _cfg(bbo, 19.90)
    lo, hi = bbo.valid_range_um
    omega = np.concatenate([[0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan],
                            cfg.pump_omega * np.linspace(-0.2, 1.2, 141)])
    with np.errstate(all="raise"):
        mask = in_sellmeier_range(cfg, omega)
    with np.errstate(all="ignore"):
        lam_s = 2e6 * math.pi * c / omega
        lam_i = 2e6 * math.pi * c / (cfg.pump_omega - omega)
    expected = (lam_s >= lo) & (lam_s <= hi) & (lam_i >= lo) & (lam_i <= hi)
    assert np.array_equal(mask, expected)
    assert mask.any()


def test_frequencies_at_the_range_ends_evaluate_or_are_marked_invalid(bbo):
    # a few ulps either side of each range end's frequency: the mask and
    # wavenumber's range check agree on every one, so none raises
    cfg = _cfg(bbo, 19.90)
    ends = 2e6 * math.pi * c / np.array(bbo.valid_range_um)
    omega = (ends[:, None] * (1 + 2.2e-16 * np.arange(-4, 5))).ravel()
    omega = np.concatenate([omega, cfg.pump_omega - omega])
    _, valid = _mismatch(_wavenumbers(cfg, omega), 0.0)
    assert np.array_equal(valid, in_sellmeier_range(cfg, omega)) and valid.any()


def test_ring_opens_monotonically_past_matching(bbo):
    theta_pm = collinear_degenerate_angle(800e-9, bbo)
    thetas = theta_pm + np.linspace(0.0, 0.01, 21)
    vals = [delta_k(2 * math.pi * c / 1.6e-6, 0.0,
                    CrystalConfig(0.01, t, 800e-9, 6.0, bbo)) for t in thetas]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_locus_collapses_to_point_at_matching_angle(bbo):
    theta_pm = collinear_degenerate_angle(800e-9, bbo)
    cfg = CrystalConfig(0.01, theta_pm, 800e-9, 6.0, bbo)
    omega_c = cfg.degenerate_omega
    grid = omega_c + np.linspace(-2e14, 2e14, 41)
    points = dict(phase_matched_locus(cfg, grid))
    assert points[omega_c] == 0.0


def test_ring_radius_values(bbo):
    # frozen from an independent scan-plus-bisection of the mismatch
    omega_c = math.pi * c / 800e-9
    for theta_deg, expected in ((19.90, 48866.29), (19.94, 72463.95)):
        cfg = _cfg(bbo, theta_deg)
        ((_, k_ring),) = phase_matched_locus(cfg, [omega_c])
        assert k_ring == pytest.approx(expected, abs=2.0)
        # independent bracket: mismatch changes sign inside +-200 rad/m
        assert delta_k(omega_c, k_ring - 200, cfg) < 0 < delta_k(omega_c, k_ring + 200, cfg)
    ring_90 = phase_matched_locus(_cfg(bbo, 19.90), [omega_c])[0][1]
    ring_94 = phase_matched_locus(_cfg(bbo, 19.94), [omega_c])[0][1]
    assert ring_94 > ring_90


def test_locus_points_are_phase_matched(bbo):
    cfg = _cfg(bbo, 19.94)
    grid = cfg.degenerate_omega + np.linspace(-3e14, 3e14, 101)
    points = phase_matched_locus(cfg, grid)
    assert len(points) > 50
    # exact roots; a bisection to 1 rad/m in k would leave up to 1.4e-4
    for omega, k_ring in points:
        assert abs(delta_k(omega, k_ring, cfg)) * cfg.length_m < 1e-8


def test_locus_skips_unmatched_and_out_of_range_frequencies(bbo):
    cfg = _cfg(bbo, 19.94)
    far = 2 * math.pi * c / 4.0e-6  # signal beyond the Sellmeier range
    omega_c = cfg.degenerate_omega
    assert phase_matched_locus(cfg, [far, -omega_c, 1.2 * cfg.pump_omega]) == []
    below = _cfg(bbo, 19.80)  # below theta_pm: no ring at all
    assert phase_matched_locus(below, omega_c * np.linspace(0.9, 1.1, 5)) == []


def test_external_angle_relation():
    assert external_angle(72463.95, 1.6e-6) == pytest.approx(0.0184528, rel=1e-4)
    assert external_angle(0.0, 1.6e-6) == 0.0


def test_config_validation(bbo):
    with pytest.raises(ConfigurationError):
        CrystalConfig(-0.01, 0.3, 800e-9, 6.0, bbo)
    with pytest.raises(ConfigurationError):
        CrystalConfig(0.01, 0.3, 800e-9, -1.0, bbo)
    with pytest.raises(ConfigurationError):
        CrystalConfig(0.01, 0.0, 800e-9, 6.0, bbo)
    with pytest.raises(ConfigurationError):
        CrystalConfig(0.01, math.pi / 2, 800e-9, 6.0, bbo)
    with pytest.raises(ConfigurationError):
        CrystalConfig(0.01, 0.3, 100e-9, 6.0, bbo)
    with pytest.raises(ConfigurationError):
        # degenerate wavelength would leave the valid range
        CrystalConfig(0.01, 0.3, 2.0e-6, 6.0, bbo)


@pytest.mark.parametrize("field, value", [
    ("length_m", math.inf), ("length_m", math.nan), ("gain", math.nan),
    ("gain", math.inf), ("theta_rad", math.nan),
    ("pump_wavelength_m", math.nan)])
def test_config_rejects_non_finite_values(bbo, field, value):
    args = dict(length_m=0.01, theta_rad=0.35, pump_wavelength_m=800e-9,
                gain=6.0, sellmeier=bbo)
    args[field] = value
    name = {"length_m": "length", "theta_rad": "angle",
            "pump_wavelength_m": "wavelength"}.get(field, field)
    with pytest.raises(ConfigurationError, match=name):
        CrystalConfig(**args)


def test_config_hash_stability(bbo):
    a = _cfg(bbo, 19.94)
    b = _cfg(bbo, 19.94)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != _cfg(bbo, 19.90).config_hash()


# signal frequency in units of the pump frequency, and |k| in units of the
# degenerate ordinary wavevector: both reach past the valid region
_points = st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(-1.3, 1.3)),
                   min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_points)
def test_delta_k_raises_exactly_where_the_mismatch_is_invalid(bbo, points):
    cfg = _cfg(bbo, 19.90)
    k_degen = wavenumber(cfg.degenerate_omega, ORDINARY, bbo)
    omega = np.array([p[0] for p in points]) * cfg.pump_omega
    k = np.array([p[1] for p in points]) * k_degen
    value, valid = _mismatch(_wavenumbers(cfg, omega), k)
    for i in range(omega.size):
        if valid[i]:
            assert delta_k(omega[i], k[i], cfg) == value[i]
        else:
            with pytest.raises(PdcohError):
                delta_k(omega[i], k[i], cfg)
    if valid.all():
        assert np.array_equal(delta_k(omega, k, cfg), value)
    else:
        with pytest.raises(PdcohError):
            delta_k(omega, k, cfg)
