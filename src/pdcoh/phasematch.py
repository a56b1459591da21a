"""Longitudinal phase mismatch for type-I (e -> oo) down-conversion.

The pump propagates at angle theta to the optic axis of a negative uniaxial
crystal and is extraordinarily polarized; signal and idler are ordinary.
With a plane-wave pump the transverse wavevector k of the signal is balanced
by -k on the idler, and the longitudinal mismatch is

    delta_k(omega_s, k) = k_p - sqrt(k_s^2 - k^2) - sqrt(k_i^2 - k^2)

with omega_i = omega_p - omega_s. The transverse model is one-dimensional:
k is a scalar in the plane free of pump walk-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import ORDINARY, ExtraordinaryAtAngle, SellmeierSet, c, wavenumber
from .errors import ConfigurationError, EvanescentWaveError, RootNotFoundError, \
    WavelengthRangeError, finite
from .hashing import config_digest

# on-axis |delta_k * L| at or below which a ring is reported collapsed to
# k = 0: delta_k rounds to a few 1e-9 rad/m, and L is centimetres
_LOCUS_TOL = 1e-9


@dataclass(frozen=True)
class CrystalConfig:
    """Crystal and pump parameters for one run.

    length_m: crystal length L.
    theta_rad: pump-to-optic-axis angle (internal, inside the crystal).
    pump_wavelength_m: vacuum pump wavelength.
    gain: dimensionless parametric gain G at zero mismatch.
    sellmeier: dispersion data for the crystal material.
    """

    length_m: float
    theta_rad: float
    pump_wavelength_m: float
    gain: float
    sellmeier: SellmeierSet

    def __post_init__(self):
        finite("crystal length", self.length_m, positive=True)
        if not finite("gain", self.gain) >= 0:
            raise ConfigurationError(f"gain must be >= 0, got {self.gain!r}")
        if not 0.0 < finite("pump angle", self.theta_rad) < math.pi / 2:
            raise ConfigurationError(
                f"pump angle must lie in (0, pi/2) rad, got {self.theta_rad}")
        lo, hi = self.sellmeier.valid_range_um
        lam_p = finite("pump wavelength", self.pump_wavelength_m) * 1e6
        if not lo <= lam_p <= hi:
            raise ConfigurationError(
                f"pump wavelength {lam_p:.4g} um outside Sellmeier range ({lo}, {hi})")
        if not lo <= 2 * lam_p <= hi:
            raise ConfigurationError(
                f"degenerate wavelength {2 * lam_p:.4g} um outside Sellmeier "
                f"range ({lo}, {hi})")

    @property
    def pump_omega(self):
        return 2 * math.pi * c / self.pump_wavelength_m

    @property
    def degenerate_omega(self):
        return self.pump_omega / 2

    def config_hash(self):
        """Short stable digest of every physics-relevant field."""
        s = self.sellmeier
        return config_digest({
            "material": s.material, "ordinary": s.ordinary,
            "extraordinary": s.extraordinary, "valid_range_um": s.valid_range_um,
            "length_m": self.length_m, "theta_rad": self.theta_rad,
            "pump_wavelength_m": self.pump_wavelength_m, "gain": self.gain})


def delta_k(omega_s, k, cfg):
    """Longitudinal mismatch in rad/m; omega_s and k broadcast as arrays.

    Raises WavelengthRangeError when signal or idler leaves the Sellmeier
    range and EvanescentWaveError when |k| reaches the smaller of the two
    ordinary wavevectors; inputs are rejected, never clamped.
    """
    waves = _wavenumbers(cfg, omega_s)
    if not np.all(waves[0]):
        raise WavelengthRangeError("signal or idler outside the Sellmeier range "
                                   f"{cfg.sellmeier.valid_range_um} um")
    value, valid = _mismatch(waves, k)
    if not np.all(valid):
        raise EvanescentWaveError("transverse wavevector reaches the evanescent "
                                  f"limit (|k| max {np.max(np.abs(k)):.4g} rad/m)")
    return value if value.ndim else float(value)


def _wavenumbers(cfg, omega_s):
    """(in_sellmeier_range mask, k_s, k_i, k_p) at signal frequencies
    omega_s, one wavenumber call each. Frequencies outside the range are
    evaluated at the degenerate frequency: their k_s, k_i are placeholders."""
    omega_s = np.asarray(omega_s, dtype=float)
    rows = in_sellmeier_range(cfg, omega_s)
    omega_s = np.where(rows, omega_s, cfg.degenerate_omega)
    return (rows, wavenumber(omega_s, ORDINARY, cfg.sellmeier),
            wavenumber(cfg.pump_omega - omega_s, ORDINARY, cfg.sellmeier),
            wavenumber(cfg.pump_omega, ExtraordinaryAtAngle(cfg.theta_rad),
                       cfg.sellmeier))


def _mismatch(waves, k):
    """(delta_k, valid) at the broadcast points of waves, a _wavenumbers
    result, and k. Frequencies outside the Sellmeier range and evanescent
    |k| are marked invalid; their values are placeholders."""
    rows, k_s, k_i, k_p = waves
    k2 = np.square(np.asarray(k, dtype=float))
    rad_s = np.square(k_s) - k2
    rad_i = np.square(k_i) - k2
    valid = rows & (rad_s > 0) & (rad_i > 0)
    value = k_p - np.sqrt(np.maximum(rad_s, 0.0)) - np.sqrt(np.maximum(rad_i, 0.0))
    return value, valid


def collinear_degenerate_angle(pump_wavelength_m, sellmeier):
    """Pump angle theta_pm at which collinear degenerate emission is matched.

    The pump wavevector must equal k = 2 k_o(omega_p / 2), and the index
    ellipse gives it at sin^2(theta) = (k_o^-2 - k^-2) / (k_o^-2 - k_e^-2),
    with k_o and k_e the principal pump wavevectors. Raises
    RootNotFoundError when k lies outside (k_e, k_o).
    """
    omega_p = 2 * math.pi * c / pump_wavelength_m
    k_pm = 2 * wavenumber(omega_p / 2, ORDINARY, sellmeier)
    inv_o = wavenumber(omega_p, ORDINARY, sellmeier) ** -2
    inv_e = wavenumber(omega_p, ExtraordinaryAtAngle(math.pi / 2), sellmeier) ** -2
    sin2 = (inv_o - k_pm ** -2) / (inv_o - inv_e)
    if not 0 < sin2 < 1:
        raise RootNotFoundError(
            f"no collinear degenerate phase matching for pump "
            f"{pump_wavelength_m * 1e9:.4g} nm in {sellmeier.material}")
    return math.asin(math.sqrt(sin2))


def in_sellmeier_range(cfg, omega_s):
    """Mask of signal frequencies whose signal and idler wavelengths, as
    wavenumber checks them, lie in the Sellmeier range."""
    lo, hi = cfg.sellmeier.valid_range_um
    with np.errstate(divide="ignore", over="ignore"):
        lam = 2e6 * math.pi * c / np.array([omega_s, cfg.pump_omega - omega_s])
    return np.all((lam >= lo) & (lam <= hi), axis=0)


def _ring_squared(waves, offset=0.0):
    """k^2 where delta_k = offset at the frequencies of waves, a
    _wavenumbers result, exact: with k_p' = k_p - offset and a = (k_p'^2 +
    k_s^2 - k_i^2) / 2 k_p', k^2 = k_s^2 - a^2. delta_k grows with k^2, so
    a root exists where the on-axis mismatch <= offset."""
    _, k_s, k_i, k_p = waves
    k_p = k_p - offset
    return np.square(k_s) - np.square((k_p**2 + np.square(k_s) - np.square(k_i)) / (2 * k_p))


def phase_matched_locus(cfg, omega_grid):
    """Nonnegative ring radii k with delta_k(omega, k) = 0, one per frequency.

    Returns an (n, 2) array of (omega, k_ring) rows for the grid frequencies
    with a root; those without one (or outside the dispersion range) give
    no row. The on-axis mismatch and the root, _ring_squared's, share one
    _wavenumbers evaluation. A root exists where the on-axis mismatch is
    negative, and a ring whose on-axis |delta_k * L| is within rounding of
    zero is reported collapsed, at k = 0.
    """
    omega = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    waves = _wavenumbers(cfg, omega)
    at_axis, valid = _mismatch(waves, 0.0)
    at_axis = at_axis * cfg.length_m
    collapsed = np.abs(at_axis) <= _LOCUS_TOL
    ring = np.where(collapsed, 0.0, np.sqrt(np.maximum(_ring_squared(waves), 0.0)))
    keep = valid & (collapsed | (at_axis < 0))
    return np.column_stack((omega[keep], ring[keep]))


def external_angle(k, wavelength_m):
    """Emission angle outside the crystal for transverse wavevector k."""
    return k * wavelength_m / (2 * math.pi)
