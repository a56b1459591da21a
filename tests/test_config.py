import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from pdcoh import ConfigurationError, InterferometerConfig
from pdcoh.config import (
    ANGLE_UNITS,
    FIELDS,
    LENGTH_UNITS,
    TIME_UNITS,
    default,
    load_run_config,
    parse_angle,
    parse_length,
    parse_quantity,
    parse_time,
)
from pdcoh.hashing import config_digest

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
    assert parse_length("10 mm") == pytest.approx(0.01, rel=1e-15, abs=0)
    assert parse_length("1.5e-6 m") == pytest.approx(1.5e-6, rel=1e-15, abs=0)
    assert parse_time("1 fs") == pytest.approx(1e-15, rel=1e-15, abs=0)
    assert parse_time("0.5ps") == pytest.approx(5e-13, rel=1e-15, abs=0)
    assert parse_angle("19.87 deg") == pytest.approx(math.radians(19.87),
                                                    rel=1e-15, abs=0)
    assert parse_angle("2 mrad") == pytest.approx(2e-3, rel=1e-15, abs=0)
    assert parse_angle("0.34 rad") == pytest.approx(0.34, rel=1e-15, abs=0)


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
    assert rc.length_m == pytest.approx(0.01, rel=1e-15, abs=0)
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


EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.ini"


def test_digests_are_pinned():
    # products carry these; a refactor of the loader must not move them
    assert load_run_config(EXAMPLE).config_hash() == "28ae62fb584b44c9"
    assert InterferometerConfig().config_hash() == "b627084064ac68bf"


@pytest.mark.parametrize("fields", [{}, {"b": [1.5, "x"], "a": None},
                                    {"theta": 0.3468, "gain": 6, "name": "bbo\u00e9"}])
def test_the_digest_is_sha256_of_the_sorted_json(fields):
    # the interpreter's built-in sha256, not hashlib's OpenSSL one, gives it
    text = json.dumps(fields, sort_keys=True)
    assert config_digest(fields) == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_an_omitted_field_loads_as_its_default_text(tmp_path):
    sections = {}
    for f in FIELDS:
        if f.default is not None:
            sections.setdefault(f.section, []).append(f"{f.key} = {f.default}")
    spelled = load_run_config(_write(tmp_path, MINIMAL + "".join(
        f"\n[{section}]\n" + "\n".join(lines) + "\n"
        for section, lines in sections.items())))
    assert load_run_config(_write(tmp_path, MINIMAL)) == spelled
    assert default("window_fringes") == 1.0
    assert (default("out_format"), default("out_dir")) == ("csv", "out")


def test_the_table_lists_each_field_once():
    assert len({(f.section, f.key) for f in FIELDS}) == len(FIELDS) == 15


@pytest.mark.parametrize("field", [f for f in FIELDS if f.key != "directory"],
                         ids=lambda f: f.name)
def test_every_refusal_names_its_field(tmp_path, field):
    lines = [f"{field.key} = nan" if line.startswith(f"{field.key} =") else line
             for line in FULL.splitlines()]
    with pytest.raises(ConfigurationError, match=re.escape(field.name)):
        load_run_config(_write(tmp_path, "\n".join(lines)))


@pytest.mark.parametrize("old, new, section", [
    ("length = 10 mm", "length = -10 mm", "[crystal]"),
    ("theta = 19.87 deg, 19.90 deg, 19.94 deg", "theta = 95 deg", "[crystal]"),
    ("material = bbo_kato1986", "material = nosuch", "[crystal] material"),
    ("magnification = 6.6", "magnification = -1", "[interferometer]"),
    ("split_ratio = 0.7, 0.3", "split_ratio = 0.6, 0.6", "[interferometer]"),
    ("pump_wavelength = 800 nm", "pump_wavelength = 5000 nm", "[crystal]"),
])
def test_refusals_from_the_value_classes_name_the_section(tmp_path, old, new,
                                                          section):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(section)}:"):
        load_run_config(_write(tmp_path, FULL.replace(old, new)))
