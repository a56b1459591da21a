"""Run configuration files.

Flat sectioned key = value text ([crystal], [grid], [interferometer],
[output]), every dimensional quantity carrying an explicit unit suffix
(800 nm, 10 mm, 19.87 deg, 40 um) so nothing is silently misread. Each
field is declared once, in FIELDS: its section, key, RunConfig
attribute, parser with its range check, and default. The loader walks
that table; a field it does not list is unknown. The whole file
validates before any computation starts, and every refusal names the
section and field.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .dispersion import load_sellmeier
from .errors import ConfigurationError, blamed
from .gridio import FORMATS
from .hashing import config_digest
from .interferometer import InterferometerConfig
from .phasematch import CrystalConfig
from .spectrum import check_grid_size

LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3,
                "cm": 1e-2, "m": 1.0}
TIME_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "s": 1.0}
ANGLE_UNITS = {"deg": math.pi / 180.0, "mrad": 1e-3, "rad": 1.0}


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


def parse_length(text, field="value"):
    return parse_quantity(text, LENGTH_UNITS, field)


def parse_time(text, field="value"):
    return parse_quantity(text, TIME_UNITS, field)


def parse_angle(text, field="value"):
    return parse_quantity(text, ANGLE_UNITS, field)


# Field parsers take (text, field) and name the field in every refusal.


def _text(text, field):
    return text


def _finite(kind):
    def parse(text, field):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigurationError(
                f"{field}: {text!r} is not a finite {kind.__name__}")
        return value
    return parse


def _listed(parse):
    def parse_all(text, field):
        return tuple(parse(part, field) for part in text.split(",") if part.strip())
    return parse_all


def _where(parse, holds, rule):
    def checked(text, field):
        value = parse(text, field)
        if not holds(value):
            raise ConfigurationError(f"{field}: must be {rule}, got {text!r}")
        return value
    return checked


def _grid_size(text, field):
    n = _finite(int)(text, field)
    check_grid_size(field, n)
    return n


class Field(NamedTuple):
    section: str
    key: str
    parse: Callable
    # the text a file that omits the field would hold; None: required, or
    # for an InterferometerConfig attribute, that class's own default
    default: str | None = None
    attribute: str | None = None  # when not the key

    @property
    def name(self):
        return f"[{self.section}] {self.key}"


_POSITIVE_LENGTH = _where(parse_length, lambda v: v > 0, "> 0")

FIELDS = (
    Field("crystal", "material", _text),
    Field("crystal", "length", parse_length, attribute="length_m"),
    Field("crystal", "pump_wavelength", parse_length,
          attribute="pump_wavelength_m"),
    Field("crystal", "gain", _finite(float)),
    Field("crystal", "theta", _where(_listed(parse_angle), len, "one or more angles"),
          attribute="thetas_rad"),
    Field("grid", "n_omega", _grid_size, "1024"),
    Field("grid", "n_k", _grid_size, "512"),
    Field("interferometer", "split_ratio",
          _where(_listed(_finite(float)), lambda v: len(v) == 2, "two numbers")),
    Field("interferometer", "magnification", _finite(float)),
    Field("interferometer", "bs2_step", _POSITIVE_LENGTH, "40 um", "bs2_step_m"),
    Field("interferometer", "bs2_count",
          _where(_finite(int), lambda v: v >= 1, ">= 1"), "11"),
    Field("interferometer", "stage_span", _POSITIVE_LENGTH, "48 um",
          "stage_span_m"),
    Field("interferometer", "window_fringes",
          _where(_finite(float), lambda v: v >= 1.0, ">= 1"), "1.0"),
    Field("output", "directory", _text, "out", "out_dir"),
    Field("output", "format",
          _where(_text, lambda v: v in FORMATS, f"one of {tuple(FORMATS)}"),
          "csv", "out_format"),
)

_INTERFEROMETER = {f.name for f in fields(InterferometerConfig)}


def default(attribute):
    """The value of a field that a file omits, by RunConfig attribute."""
    f = next(f for f in FIELDS if (f.attribute or f.key) == attribute)
    return f.parse(f.default, f.name)


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
        with blamed("[crystal] material"):
            object.__setattr__(self, "_sellmeier", load_sellmeier(self.material))
        with blamed("[crystal]"):
            for theta in self.thetas_rad:
                self.crystal_config(theta)

    @property
    def sellmeier(self):
        return self._sellmeier

    def crystal_config(self, theta_rad):
        return CrystalConfig(length_m=self.length_m, theta_rad=theta_rad,
                             pump_wavelength_m=self.pump_wavelength_m,
                             gain=self.gain, sellmeier=self.sellmeier)

    def config_hash(self):
        """Digest of every attribute but the output directory, with the
        interferometer by its own digest."""
        record = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("interferometer", "out_dir")}
        record["icfg"] = self.interferometer.config_hash()
        return config_digest(record)


def load_run_config(path):
    path = Path(path)
    with blamed(f"cannot read config file {path}", OSError, ValueError):
        text = path.read_text()

    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    with blamed("malformed config file", configparser.Error):
        cp.read_string(text, source=str(path))

    known = {(f.section, f.key) for f in FIELDS}
    for section in cp.sections():
        if not any(s == section for s, _ in known):
            raise ConfigurationError(f"[{section}]: unknown section")
        for key in cp.options(section):
            if (section, key) not in known:
                raise ConfigurationError(f"[{section}] {key}: unknown field")

    values, owned = {}, {}
    for f in FIELDS:
        text = cp.get(f.section, f.key, fallback=f.default)
        attribute = f.attribute or f.key
        if text is not None:
            into = owned if attribute in _INTERFEROMETER else values
            into[attribute] = f.parse(text, f.name)
        elif attribute not in _INTERFEROMETER:
            raise ConfigurationError(f"{f.name}: missing")
    with blamed("[interferometer]"):
        values["interferometer"] = InterferometerConfig(**owned)
    return RunConfig(**values)
