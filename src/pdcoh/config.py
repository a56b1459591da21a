"""Run configuration files.

Flat sectioned key = value text ([crystal], [grid], [interferometer],
[output]), every dimensional quantity carrying an explicit unit suffix
(800 nm, 10 mm, 19.87 deg, 40 um) so nothing is silently misread. The
whole file validates before any computation starts; diagnostics name
the section and field.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .dispersion import load_sellmeier
from .errors import ConfigurationError
from .gridio import FORMATS
from .hashing import config_digest
from .interferometer import InterferometerConfig
from .phasematch import CrystalConfig
from .spectrum import check_grid_size

LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3,
                "cm": 1e-2, "m": 1.0}
TIME_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "s": 1.0}
ANGLE_UNITS = {"deg": math.pi / 180.0, "mrad": 1e-3, "rad": 1.0}

_REQUIRED = object()

_KNOWN_KEYS = {
    "crystal": {"material", "length", "pump_wavelength", "gain", "theta"},
    "grid": {"n_omega", "n_k"},
    "interferometer": {"split_ratio", "magnification", "bs2_step",
                       "bs2_count", "stage_span", "window_fringes"},
    "output": {"directory", "format"},
}


def parse_quantity(text, units, field="value"):
    """Finite number with a mandatory unit suffix, converted to SI."""
    text = str(text).strip()
    for suffix in sorted(units, key=len, reverse=True):
        if text.endswith(suffix):
            head = text[: -len(suffix)].strip()
            try:
                value = float(head) * units[suffix]
            except ValueError:
                continue
            if math.isfinite(value):
                return value
    raise ConfigurationError(
        f"{field}: {text!r} is not a finite number with a unit suffix "
        f"from {sorted(units)}")


def parse_length(text, field="length"):
    return parse_quantity(text, LENGTH_UNITS, field)


def parse_time(text, field="time"):
    return parse_quantity(text, TIME_UNITS, field)


def parse_angle(text, field="angle"):
    return parse_quantity(text, ANGLE_UNITS, field)


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one configuration file."""

    material: str
    length_m: float
    pump_wavelength_m: float
    gain: float
    thetas_rad: tuple
    n_omega: int
    n_k: int
    interferometer: InterferometerConfig
    bs2_step_m: float
    bs2_count: int
    stage_span_m: float
    window_fringes: float
    out_dir: str
    out_format: str

    def __post_init__(self):
        # triggers every downstream invariant before any command runs
        object.__setattr__(self, "_sellmeier", load_sellmeier(self.material))
        if not self.thetas_rad:
            raise ConfigurationError("[crystal] theta: needs at least one angle")
        for theta in self.thetas_rad:
            self.crystal_config(theta)
        check_grid_size("[grid] n_omega", self.n_omega)
        check_grid_size("[grid] n_k", self.n_k)
        if self.out_format not in FORMATS:
            raise ConfigurationError(f"[output] format: {self.out_format!r} "
                                     f"is not one of {tuple(FORMATS)}")
        if self.bs2_count < 1:
            raise ConfigurationError("[interferometer] bs2_count: must be >= 1")
        if self.bs2_step_m <= 0:
            raise ConfigurationError("[interferometer] bs2_step: must be > 0")
        if self.stage_span_m <= 0:
            raise ConfigurationError("[interferometer] stage_span: must be > 0")
        if self.window_fringes < 1.0:
            raise ConfigurationError(
                "[interferometer] window_fringes: must be >= 1")

    @property
    def sellmeier(self):
        return self._sellmeier

    def crystal_config(self, theta_rad):
        return CrystalConfig(length_m=self.length_m, theta_rad=theta_rad,
                             pump_wavelength_m=self.pump_wavelength_m,
                             gain=self.gain, sellmeier=self.sellmeier)

    def config_hash(self):
        return config_digest({
            "material": self.material, "length_m": self.length_m,
            "pump_wavelength_m": self.pump_wavelength_m, "gain": self.gain,
            "thetas_rad": list(self.thetas_rad), "n_omega": self.n_omega,
            "n_k": self.n_k, "icfg": self.interferometer.config_hash(),
            "bs2_step_m": self.bs2_step_m, "bs2_count": self.bs2_count,
            "stage_span_m": self.stage_span_m,
            "window_fringes": self.window_fringes,
            "out_format": self.out_format,
        })


def _get(cp, section, key, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigurationError(f"[{section}] {key}: missing")
        return default
    return cp.get(section, key)


def load_run_config(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc

    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigurationError(f"[{section}]: unknown section")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigurationError(f"[{section}] {key}: unknown field")
    if not cp.has_section("crystal"):
        raise ConfigurationError("[crystal]: section missing")

    def floatval(section, key, default=_REQUIRED):
        raw = _get(cp, section, key, default)
        if not isinstance(raw, str):
            return raw
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigurationError(
                f"[{section}] {key}: {raw!r} is not a finite number")
        return value

    def intval(section, key, default=_REQUIRED):
        raw = _get(cp, section, key, default)
        if not isinstance(raw, str):
            return raw
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"[{section}] {key}: {raw!r} is not an integer") from exc

    thetas = tuple(
        parse_angle(part, field="[crystal] theta")
        for part in _get(cp, "crystal", "theta").split(",") if part.strip())

    split_raw = _get(cp, "interferometer", "split_ratio", "0.5, 0.5")
    try:
        split = tuple(float(p) for p in split_raw.split(","))
    except ValueError as exc:
        raise ConfigurationError(
            f"[interferometer] split_ratio: {split_raw!r} is not a pair "
            "of numbers") from exc
    if len(split) != 2:
        raise ConfigurationError(
            "[interferometer] split_ratio: needs exactly two numbers")

    icfg = InterferometerConfig(
        split_ratio=split,
        magnification=floatval("interferometer", "magnification", 6.6))

    return RunConfig(
        material=_get(cp, "crystal", "material"),
        length_m=parse_length(_get(cp, "crystal", "length"),
                              field="[crystal] length"),
        pump_wavelength_m=parse_length(_get(cp, "crystal", "pump_wavelength"),
                                       field="[crystal] pump_wavelength"),
        gain=floatval("crystal", "gain"),
        thetas_rad=thetas,
        n_omega=intval("grid", "n_omega", 1024),
        n_k=intval("grid", "n_k", 512),
        interferometer=icfg,
        bs2_step_m=parse_length(_get(cp, "interferometer", "bs2_step", "40 um"),
                                field="[interferometer] bs2_step"),
        bs2_count=intval("interferometer", "bs2_count", 11),
        stage_span_m=parse_length(
            _get(cp, "interferometer", "stage_span", "48 um"),
            field="[interferometer] stage_span"),
        window_fringes=floatval("interferometer", "window_fringes", 1.0),
        out_dir=_get(cp, "output", "directory", "out"),
        out_format=_get(cp, "output", "format", "csv"),
    )
