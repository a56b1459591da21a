"""Refractive index, wavevector, and group-velocity dispersion for uniaxial crystals.

Coefficient sets use a fixed Sellmeier form with wavelength x in micrometers,

    n^2(x) = a + b / (x^2 - c) - d * x^2,

one (a, b, c, d) tuple per polarization branch. Shipped sets live in text
files under ``pdcoh/data`` together with their literature citations; custom
sets can be loaded from a path in the same format.

Conventions: wavelengths in micrometers, angular frequencies in rad/s,
wavevectors in rad/m, group-velocity dispersion in fs^2/mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, RootNotFoundError, WavelengthRangeError, blamed

# speed of light in vacuum, m/s (exact by the SI definition of the metre)
c = 299_792_458.0

SHIPPED_SETS = ("bbo_kato1986", "bbo_eimerl1987")


@dataclass(frozen=True)
class SellmeierSet:
    """One material's dispersion data: coefficients per branch, valid range,
    and the source it was loaded from (a shipped set name or a path)."""

    material: str
    ordinary: tuple[float, float, float, float]
    extraordinary: tuple[float, float, float, float]
    valid_range_um: tuple[float, float]
    source: str = ""

    @property
    def name(self):
        """The set's name in products: its source, else its material."""
        return self.source or self.material

    def validate(self):
        """Check physical invariants by sampling the valid range.

        Raises ConfigurationError if either branch fails to produce a real
        index above 1, or if the material is not negative uniaxial
        (principal extraordinary index below ordinary) across the range.
        """
        lo, hi = self.valid_range_um
        if not (0 < lo < hi):
            raise ConfigurationError(
                f"{self.name}: valid_range_um must be ordered and positive, "
                f"got ({lo}, {hi})")
        lam = np.linspace(lo, hi, 65)
        n_o2 = _n_squared(lam, self.ordinary)
        n_e2 = _n_squared(lam, self.extraordinary)
        for name, n2 in (("ordinary", n_o2), ("extraordinary", n_e2)):
            if not (np.all(np.isfinite(n2)) and np.all(n2 > 1.0)):
                raise ConfigurationError(
                    f"{self.name}: {name} index not real and above 1 "
                    f"over ({lo}, {hi}) um")
        if not np.all(n_e2 < n_o2):
            raise ConfigurationError(
                f"{self.name}: not negative uniaxial over ({lo}, {hi}) um")
        return self


@dataclass(frozen=True)
class Ordinary:
    """Ordinary branch: index independent of propagation direction."""


@dataclass(frozen=True)
class ExtraordinaryAtAngle:
    """Extraordinary branch for propagation at angle theta to the optic axis."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ConfigurationError(
                f"propagation angle must lie in [0, pi/2] rad, got {self.theta}")


ORDINARY = Ordinary()


def _n_squared(lam_um, coeffs):
    a, b, cc, d = coeffs
    lam2 = np.square(lam_um)
    return a + b / (lam2 - cc) - d * lam2


def _check_range(lam_um, s, branch):
    lo, hi = s.valid_range_um
    lam = np.asarray(lam_um)
    bad = lam[(lam < lo) | (lam > hi)]
    if bad.size:
        raise WavelengthRangeError(
            f"{float(bad.flat[0]):.6g} um outside {s.material} {branch} valid range "
            f"({lo}, {hi}) um")


def index(lam_um, branch, s):
    """Refractive index at wavelength lam_um (micrometers) for a branch.

    For ExtraordinaryAtAngle(theta) the angle-tuned index follows
    1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2, reducing to the
    ordinary index at theta = 0 and the principal extraordinary index at
    theta = pi/2. Accepts scalars or numpy arrays.
    """
    if isinstance(branch, Ordinary):
        _check_range(lam_um, s, "ordinary")
        return np.sqrt(_n_squared(lam_um, s.ordinary))
    if isinstance(branch, ExtraordinaryAtAngle):
        _check_range(lam_um, s, "extraordinary")
        n_o2 = _n_squared(lam_um, s.ordinary)
        n_e2 = _n_squared(lam_um, s.extraordinary)
        cos2 = math.cos(branch.theta) ** 2
        sin2 = math.sin(branch.theta) ** 2
        return 1.0 / np.sqrt(cos2 / n_o2 + sin2 / n_e2)
    raise ConfigurationError(f"unknown branch {branch!r}")


def wavenumber(omega, branch, s):
    """Wavevector magnitude k = n(omega) * omega / c in rad/m."""
    lam_um = 2e6 * math.pi * c / np.asarray(omega, dtype=float)
    return index(lam_um, branch, s) * np.asarray(omega) / c


def gvd(lam_um, branch, s):
    """Group-velocity dispersion d2k/domega2 in fs^2/mm, exact:
    lambda^3 / (2 pi c^2) * d2n/dlambda2, with d2n/dlambda2 from the
    Sellmeier form by the chain rule through w = 1/n^2 = cos^2(theta)/n_o^2
    + sin^2(theta)/n_e^2, n = w^(-1/2); the ordinary branch is theta = 0.
    """
    lam = np.asarray(lam_um, dtype=float)
    n, theta = index(lam, branch, s), getattr(branch, "theta", 0.0)  # index checks lam
    dw = d2w = 0.0
    for weight, (a, b, cc, d) in ((math.cos(theta) ** 2, s.ordinary),
                                  (math.sin(theta) ** 2, s.extraordinary)):
        p = np.square(lam) - cc
        n2, dn2 = a + b / p - d * np.square(lam), -2 * lam * (b / p**2 + d)
        d2n2 = 8 * b * np.square(lam) / p**3 - 2 * b / p**2 - 2 * d
        dw = dw - weight * dn2 / n2**2
        d2w = d2w + weight * (2 * dn2**2 / n2**3 - d2n2 / n2**2)
    d2n = 0.75 * n**5 * dw**2 - 0.5 * n**3 * d2w
    # lambda in um, d2n/dlambda2 in 1/um^2; 1 s^2/m is 1e27 fs^2/mm
    return lam**3 * d2n / (2 * math.pi * c**2) * 1e21


def zero_dispersion_wavelength(s):
    """Shortest wavelength (um) in the valid range where the ordinary gvd is 0.

    With u = lambda^2 and p = u - c the Sellmeier form has d2n/dlambda2 = 0
    where 2 (a p + b - d u p) (8 b u - 2 b p - 2 d p^3) = 4 u (b + d p^2)^2,
    a quintic in u solved exactly. Raises RootNotFoundError when no real
    root lies in range; a dispersionless set gives the zero polynomial.
    """
    a, b, cc, d = s.ordinary
    lo, hi = s.valid_range_um
    u = np.polynomial.Polynomial([0.0, 1.0])
    p = u - cc
    quintic = (2 * (a * p + b - d * u * p) * (8 * b * u - 2 * b * p - 2 * d * p**3)
               - 4 * u * (b + d * p**2) ** 2)
    roots = quintic.roots()
    roots = roots.real[(roots.imag == 0) & (roots.real > lo**2) & (roots.real < hi**2)]
    if not roots.size:
        raise RootNotFoundError(
            f"{s.material} ordinary: no gvd zero in ({lo}, {hi}) um")
    return math.sqrt(roots.min())


def load_sellmeier(source):
    """Load and validate a SellmeierSet.

    source is either a shipped set name (see SHIPPED_SETS) or a path to a
    text file in the same key = value format.
    """
    shipped = source in SHIPPED_SETS
    path = Path(__file__).parent / "data" / f"{source}.txt" if shipped else Path(source)
    if not path.is_file():
        raise ConfigurationError(f"Sellmeier set {source!r}: {path} is not a "
                                 f"readable file (shipped sets: {SHIPPED_SETS})")
    with blamed(f"cannot read Sellmeier file {path}", OSError, UnicodeDecodeError):
        text = path.read_text(encoding="utf-8")
    origin = source if shipped else str(path)
    return _parse_sellmeier(text, origin).validate()


def _parse_sellmeier(text, origin):
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{origin}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    missing = {"material", "ordinary", "extraordinary", "valid_range_um"} - set(fields)
    if missing:
        raise ConfigurationError(f"{origin}: missing keys {sorted(missing)}")

    def floats(key, count):
        parts = fields[key].split()
        if len(parts) != count:
            raise ConfigurationError(
                f"{origin}: {key} needs {count} numbers, got {len(parts)}")
        with blamed(f"{origin}: {key}", ValueError):
            return tuple(float(p) for p in parts)

    return SellmeierSet(
        material=fields["material"],
        ordinary=floats("ordinary", 4),
        extraordinary=floats("extraordinary", 4),
        valid_range_um=floats("valid_range_um", 2),
        source=origin,
    )
