import math

import pytest

from pdcoh import ConfigurationError
from pdcoh.config import (
    ANGLE_UNITS,
    LENGTH_UNITS,
    TIME_UNITS,
    load_run_config,
    parse_angle,
    parse_length,
    parse_quantity,
    parse_time,
)

FULL = """\
[crystal]
material = bbo_kato1986
length = 10 mm
pump_wavelength = 800 nm
gain = 6
theta = 19.87 deg, 19.90 deg, 19.94 deg

[grid]
n_omega = 256
n_k = 128

[interferometer]
split_ratio = 0.7, 0.3
magnification = 6.6
bs2_step = 40 um
bs2_count = 11
stage_span = 48 um
window_fringes = 1.5

[output]
directory = results
format = binary
"""

MINIMAL = """\
[crystal]
material = bbo_kato1986
length = 10 mm
pump_wavelength = 800 nm
gain = 6
theta = 19.94 deg
"""


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_quantity_parsing_covers_the_unit_tables():
    assert parse_length("800 nm") == pytest.approx(800e-9, rel=1e-15, abs=0)
    assert parse_length("0.8um") == pytest.approx(0.8e-6, rel=1e-15, abs=0)
    assert parse_length("6 µm") == pytest.approx(6e-6, rel=1e-15, abs=0)
    assert parse_length("10 mm") == pytest.approx(0.01, rel=1e-15)
    assert parse_length("1.5e-6 m") == pytest.approx(1.5e-6, rel=1e-15, abs=0)
    assert parse_time("1 fs") == pytest.approx(1e-15, rel=1e-15, abs=0)
    assert parse_time("0.5ps") == pytest.approx(5e-13, rel=1e-15, abs=0)
    assert parse_angle("19.87 deg") == pytest.approx(math.radians(19.87),
                                                    rel=1e-15)
    assert parse_angle("2 mrad") == pytest.approx(2e-3, rel=1e-15)
    assert parse_angle("0.34 rad") == pytest.approx(0.34, rel=1e-15)


def test_quantity_parsing_demands_a_unit():
    with pytest.raises(ConfigurationError, match="unit suffix"):
        parse_length("800")
    with pytest.raises(ConfigurationError, match="unit suffix"):
        parse_length("abc nm")
    with pytest.raises(ConfigurationError, match="unit suffix"):
        parse_time("10 m")
    with pytest.raises(ConfigurationError, match="--blur"):
        parse_time("oops", field="--blur")
    with pytest.raises(ConfigurationError):
        parse_quantity("", LENGTH_UNITS)
    assert set(TIME_UNITS) & set(ANGLE_UNITS) == set()


@pytest.mark.parametrize("number", ["nan", "inf", "-inf", "1e400"])
def test_quantity_parsing_refuses_non_finite_numbers(number):
    with pytest.raises(ConfigurationError, match=r"\[crystal\] length.*finite"):
        parse_length(f"{number} mm", field="[crystal] length")
    with pytest.raises(ConfigurationError, match="finite"):
        parse_time(f"{number} fs")
    with pytest.raises(ConfigurationError, match="finite"):
        parse_angle(f"{number} deg")


def test_full_config_loads_in_si_units(tmp_path):
    rc = load_run_config(_write(tmp_path, FULL))
    assert rc.material == "bbo_kato1986"
    assert rc.length_m == pytest.approx(0.01, rel=1e-15)
    assert rc.pump_wavelength_m == pytest.approx(800e-9, rel=1e-15, abs=0)
    assert rc.gain == 6.0
    assert [math.degrees(t) for t in rc.thetas_rad] == pytest.approx(
        [19.87, 19.90, 19.94], rel=1e-12)
    assert (rc.n_omega, rc.n_k) == (256, 128)
    assert rc.interferometer.split_ratio == (0.7, 0.3)
    assert rc.interferometer.magnification == 6.6
    assert rc.bs2_step_m == pytest.approx(40e-6, rel=1e-15, abs=0)
    assert rc.bs2_count == 11
    assert rc.stage_span_m == pytest.approx(48e-6, rel=1e-15, abs=0)
    assert rc.window_fringes == 1.5
    assert rc.out_dir == "results"
    assert rc.out_format == "binary"


def test_defaults_fill_optional_sections(tmp_path):
    rc = load_run_config(_write(tmp_path, MINIMAL))
    assert (rc.n_omega, rc.n_k) == (1024, 512)
    assert rc.interferometer.split_ratio == (0.5, 0.5)
    assert rc.interferometer.magnification == 6.6
    assert rc.bs2_count == 11
    assert rc.bs2_step_m == pytest.approx(40e-6, rel=1e-15, abs=0)
    assert rc.out_dir == "out"
    assert rc.out_format == "csv"
    assert rc.window_fringes == 1.0


def test_missing_field_is_named(tmp_path):
    broken = FULL.replace("length = 10 mm\n", "")
    with pytest.raises(ConfigurationError, match=r"\[crystal\] length"):
        load_run_config(_write(tmp_path, broken))
    with pytest.raises(ConfigurationError, match=r"\[crystal\]"):
        load_run_config(_write(tmp_path, "[grid]\nn_omega = 256\n"))


def test_unknown_fields_and_sections_are_named(tmp_path):
    with pytest.raises(ConfigurationError, match="lenght"):
        load_run_config(_write(tmp_path, FULL + "\n[crystal]\nlenght = 1 mm\n"
                               .replace("[crystal]\n", "")))
    with pytest.raises(ConfigurationError, match=r"\[pump\]"):
        load_run_config(_write(tmp_path, FULL + "\n[pump]\npower = 1\n"))


def test_invalid_values_are_rejected(tmp_path):
    for bad, pattern in [
        (FULL.replace("format = binary", "format = hdf5"), "format"),
        (FULL.replace("gain = 6", "gain = six"), "gain"),
        (FULL.replace("split_ratio = 0.7, 0.3", "split_ratio = 0.7"),
         "split_ratio"),
        (FULL.replace("theta = 19.87 deg, 19.90 deg, 19.94 deg",
                      "theta = 95 deg"), "angle"),
        (FULL.replace("window_fringes = 1.5", "window_fringes = 0.5"),
         "window_fringes"),
        (FULL.replace("bs2_count = 11", "bs2_count = 0"), "bs2_count"),
        (FULL.replace("gain = 6", "gain = nan"), r"\[crystal\] gain.*finite"),
        (FULL.replace("gain = 6", "gain = inf"), r"\[crystal\] gain.*finite"),
        (FULL.replace("length = 10 mm", "length = inf mm"),
         r"\[crystal\] length.*finite"),
        (FULL.replace("magnification = 6.6", "magnification = nan"),
         r"magnification.*finite"),
        (FULL.replace("window_fringes = 1.5", "window_fringes = nan"),
         "window_fringes"),
        (FULL.replace("split_ratio = 0.7, 0.3", "split_ratio = nan, 0.3"),
         "split"),
        (FULL.replace("n_omega = 256", "n_omega = 1000"),
         r"\[grid\] n_omega.*power of two"),
        (FULL.replace("n_k = 128", "n_k = 32"), r"\[grid\] n_k.*power of two"),
    ]:
        with pytest.raises(ConfigurationError, match=pattern):
            load_run_config(_write(tmp_path, bad))


def test_missing_file_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_run_config(tmp_path / "nope.ini")


def test_config_hash_is_stable_and_sensitive(tmp_path):
    a = load_run_config(_write(tmp_path, FULL)).config_hash()
    b = load_run_config(_write(tmp_path, FULL)).config_hash()
    assert a == b
    changed = load_run_config(
        _write(tmp_path, FULL.replace("gain = 6", "gain = 5"))).config_hash()
    assert changed != a


def test_inline_comments_are_ignored(tmp_path):
    rc = load_run_config(_write(
        tmp_path, MINIMAL.replace("gain = 6", "gain = 6  # high gain")))
    assert rc.gain == 6.0
