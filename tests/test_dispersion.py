import math

import numpy as np
import pytest

from pdcoh import dispersion
from pdcoh.dispersion import (
    ORDINARY,
    ExtraordinaryAtAngle,
    SellmeierSet,
    gvd,
    index,
    load_sellmeier,
    wavenumber,
    zero_dispersion_wavelength,
)
from pdcoh.errors import ConfigurationError, RootNotFoundError, WavelengthRangeError
from scipy.constants import c


@pytest.fixture(scope="module")
def bbo():
    return load_sellmeier("bbo_kato1986")


def _constant_set(n=1.5):
    # b = 0 removes the resonance term, d = 0 the infrared term
    return SellmeierSet("CONST", (n * n, 0.0, 0.01, 0.0), (n * n, 0.0, 0.01, 0.0),
                        (0.3, 3.0))


def test_ordinary_index_hand_evaluation(bbo):
    # oracle: one-line evaluation of the published formula, written out here
    n_08 = math.sqrt(2.7359 + 0.01878 / (0.8**2 - 0.01822) - 0.01354 * 0.8**2)
    assert index(0.8, ORDINARY, bbo) == pytest.approx(n_08, abs=1e-6)
    assert index(0.8, ORDINARY, bbo) == pytest.approx(1.660553524880645, rel=1e-12)
    n_16 = math.sqrt(2.7359 + 0.01878 / (1.6**2 - 0.01822) - 0.01354 * 1.6**2)
    assert index(1.6, ORDINARY, bbo) == pytest.approx(n_16, abs=1e-6)
    assert index(1.6, ORDINARY, bbo) == pytest.approx(1.6457904249944961, rel=1e-12)


def test_principal_extraordinary_index(bbo):
    n_e = math.sqrt(2.3753 + 0.01224 / (0.8**2 - 0.01667) - 0.01516 * 0.8**2)
    got = index(0.8, ExtraordinaryAtAngle(math.pi / 2), bbo)
    assert got == pytest.approx(n_e, abs=1e-6)
    assert got == pytest.approx(1.5444203018104292, rel=1e-12)


def test_angle_zero_is_ordinary(bbo):
    for lam in (0.4, 0.8, 1.6, 2.5):
        assert index(lam, ExtraordinaryAtAngle(0.0), bbo) == pytest.approx(
            index(lam, ORDINARY, bbo), rel=1e-12)


def test_angle_tuned_index_between_principals(bbo):
    lam = 0.8
    n_o = index(lam, ORDINARY, bbo)
    n_e = index(lam, ExtraordinaryAtAngle(math.pi / 2), bbo)
    thetas = np.linspace(0.0, math.pi / 2, 31)
    vals = [index(lam, ExtraordinaryAtAngle(t), bbo) for t in thetas]
    assert all(n_e - 1e-12 <= v <= n_o + 1e-12 for v in vals)
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))  # monotone decrease


def test_angle_out_of_bounds():
    with pytest.raises(ConfigurationError):
        ExtraordinaryAtAngle(-0.1)
    with pytest.raises(ConfigurationError):
        ExtraordinaryAtAngle(math.pi / 2 + 0.1)


def test_wavenumber_oracle(bbo):
    omega = 2 * math.pi * c / 1.6e-6
    expected = 1.6457904249944961 * 2 * math.pi / 1.6e-6
    assert wavenumber(omega, ORDINARY, bbo) == pytest.approx(expected, rel=1e-9)


def test_wavenumber_linear_in_frequency_for_constant_index():
    s = _constant_set()
    omega = 2 * math.pi * c / 1.6e-6
    assert wavenumber(2 * omega, ORDINARY, s) == pytest.approx(
        2 * wavenumber(omega, ORDINARY, s), rel=1e-14)


def test_wavenumber_monotone_in_frequency(bbo):
    omega = np.linspace(2 * math.pi * c / 3.0e-6, 2 * math.pi * c / 0.3e-6, 400)
    k = wavenumber(omega, ORDINARY, bbo)
    assert np.all(np.diff(k) > 0)


def test_gvd_signs_and_values(bbo):
    v_pump = gvd(0.8, ORDINARY, bbo)
    v_degen = gvd(1.6, ORDINARY, bbo)
    assert v_pump > 0
    assert v_degen < 0
    assert v_pump == pytest.approx(74.795, abs=0.05)
    assert v_degen == pytest.approx(-22.000, abs=0.05)


def test_gvd_step_convergence(bbo):
    # reference: the same central difference of wavenumber at half the step
    for lam in (0.8, 1.3, 1.6):
        omega = 2e6 * math.pi * c / lam
        h = 5e-4 * omega
        k = [wavenumber(w, ORDINARY, bbo) for w in (omega - h, omega, omega + h)]
        fine = (k[0] - 2.0 * k[1] + k[2]) / h**2 * 1e27
        assert fine == pytest.approx(gvd(lam, ORDINARY, bbo), rel=0.01, abs=0.01)


def test_zero_dispersion_wavelength(bbo):
    lam = zero_dispersion_wavelength(bbo)
    assert 1.2 < lam < 1.6
    assert lam == pytest.approx(1.4324, abs=2e-4)
    assert abs(gvd(lam, ORDINARY, bbo)) < 0.05  # re-evaluate at the root


def test_zero_dispersion_not_found_for_constant_index():
    with pytest.raises(RootNotFoundError):
        zero_dispersion_wavelength(_constant_set())


def test_out_of_range_wavelength(bbo):
    with pytest.raises(WavelengthRangeError) as err:
        index(5.0, ORDINARY, bbo)
    assert "ordinary" in str(err.value)
    assert "5" in str(err.value)
    with pytest.raises(WavelengthRangeError):
        index(np.array([0.8, 0.1]), ORDINARY, bbo)
    with pytest.raises(WavelengthRangeError):
        wavenumber(2 * math.pi * c / 4e-6, ORDINARY, bbo)


def test_gvd_stencil_must_stay_in_range(bbo):
    hi = bbo.valid_range_um[1]
    with pytest.raises(WavelengthRangeError):
        gvd(hi * 0.9999, ORDINARY, bbo)


def test_speed_of_light_is_the_exact_si_value():
    assert dispersion.c == c == 299_792_458.0


@pytest.mark.parametrize("name", ["bbo_kato1986", "bbo_eimerl1987"])
def test_zero_dispersion_root_matches_brentq_on_gvd(name):
    # scipy is the reference only: a bracketed root of the finite-difference gvd
    from scipy.optimize import brentq
    s = load_sellmeier(name)
    want = brentq(lambda x: gvd(x, ORDINARY, s), 1.2, 1.7, xtol=1e-12)
    got = zero_dispersion_wavelength(s)
    assert abs(got - want) < 1e-6
    assert abs(gvd(got, ORDINARY, s)) < 1e-3


def test_validate_rejects_positive_uniaxial():
    swapped = SellmeierSet("BAD", (2.3753, 0.01224, 0.01667, 0.01516),
                           (2.7359, 0.01878, 0.01822, 0.01354), (0.22, 3.1))
    with pytest.raises(ConfigurationError):
        swapped.validate()


def test_shipped_sets_load_and_validate():
    for name in ("bbo_kato1986", "bbo_eimerl1987"):
        s = load_sellmeier(name)
        assert s.material == "BBO"
        assert s.name == name
        lam = np.linspace(*s.valid_range_um, 65)
        n_o = index(lam, ORDINARY, s)
        n_e = index(lam, ExtraordinaryAtAngle(math.pi / 2), s)
        assert np.all(n_o > 1) and np.all(n_e > 1)
        assert np.all(n_e < n_o)


def test_loader_rejects_unknown_name():
    with pytest.raises(ConfigurationError):
        load_sellmeier("bbo_nonexistent")


def test_loader_reads_custom_file(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text("material = BBO\n"
                    "ordinary = 2.7359 0.01878 0.01822 0.01354\n"
                    "extraordinary = 2.3753 0.01224 0.01667 0.01516\n"
                    "valid_range_um = 0.22 3.1\n")
    s = load_sellmeier(str(path))
    assert s.ordinary[0] == 2.7359


def test_loader_reports_missing_keys(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("material = BBO\nordinary = 1 2 3 4\n")
    with pytest.raises(ConfigurationError) as err:
        load_sellmeier(str(path))
    assert "extraordinary" in str(err.value)
