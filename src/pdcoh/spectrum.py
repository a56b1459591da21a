"""High-gain down-conversion spectral density on uniform (omega, k) grids.

The density at mismatch delta_k is

    S = (G * sinh(g) / g)^2,    g = sqrt(G^2 - (delta_k * L)^2 / 4),

continued analytically to sin for an imaginary g. delta_k is unchanged when
signal and idler exchange and depends on k only through k^2, so on a grid
centred on the degenerate frequency S is even in Omega and k: it is
evaluated once per (|Omega|, |k|). Grids are sized so the density decays
below 1e-3 of its peak at every edge, which the correlation transform
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import c
from .dispersion import wavenumber  # unused here; perfbench/spans.py wraps this name
from .errors import ConfigurationError
from .phasematch import _mismatch, delta_k

EDGE_DECAY_RATIO = 1e-3

# auto_grid's half-widths: the probed support of S widened by this factor
_GRID_MARGIN = 1.35

# series window for sinh(x)/x around the branch point, in u = x^2
_SERIES_U = 1e-8

# frequency rows per block of the density and resample passes: a block's
# temporaries (a few 64 x 512 float arrays) stay in cache
_ROW_BLOCK = 64


def check_grid_size(field, n):
    """The rule for a grid's sample count: a power of two, at least 64."""
    if n < 64 or n & (n - 1):
        raise ConfigurationError(f"{field} must be a power of two >= 64, got {n}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling of the (omega, k) plane.

    Axes follow the transform-friendly convention axis[i] = center +
    (i - n//2) * step, so the exact center frequency and k = 0 are grid
    nodes; sample counts must be powers of two, at least 64.
    """

    omega_center: float
    omega_half_width: float
    n_omega: int
    k_half_width: float
    n_k: int

    def __post_init__(self):
        check_grid_size("n_omega", self.n_omega)
        check_grid_size("n_k", self.n_k)
        if self.omega_half_width <= 0 or self.k_half_width <= 0:
            raise ConfigurationError("grid half-widths must be positive")
        if self.omega_center <= self.omega_half_width:
            raise ConfigurationError("omega grid extends to nonpositive frequencies")

    @property
    def omega_step(self):
        return 2 * self.omega_half_width / self.n_omega

    @property
    def k_step(self):
        return 2 * self.k_half_width / self.n_k

    def omega_axis(self):
        return self.omega_center + (np.arange(self.n_omega) - self.n_omega // 2) * self.omega_step

    def k_axis(self):
        return (np.arange(self.n_k) - self.n_k // 2) * self.k_step


@dataclass
class SpectralGrid:
    """Sampled density: values[i, j] = S(omega_axis[i], k_axis[j])."""

    spec: GridSpec
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def omega_axis(self):
        return self.spec.omega_axis()

    def k_axis(self):
        return self.spec.k_axis()

    @property
    def edge_ratio(self):
        """Largest edge value relative to the grid peak."""
        return self.provenance.get("edge_ratio", math.inf)


def _density_from_mismatch(mismatch, length_m, gain):
    r = np.asarray(mismatch, dtype=float) * length_m / 2.0
    u = gain * gain - np.square(r)
    au = np.sqrt(np.abs(u))
    # sinh(x)/x and sin(x)/x meet at 1; series keeps the branch point smooth.
    # Each branch is evaluated only where it applies.
    series = np.abs(u) < _SERIES_U
    grow = u >= 0
    f = np.empty_like(au)
    np.sinh(au, out=f, where=grow & ~series)
    np.sin(au, out=f, where=~(grow | series))
    np.divide(f, au, out=f, where=~series)
    np.add(1.0, u / 6.0, out=f, where=series)
    return np.square(gain * f)


def spectral_density(omega_s, k, cfg):
    """Density at one or many (omega_s, k) points; rejects invalid inputs."""
    return _density_from_mismatch(delta_k(omega_s, k, cfg), cfg.length_m, cfg.gain)


def _masked_density(cfg, omega, k):
    """Density over an axis product with invalid nodes set to 0.

    Returns (values, invalid count per row), values C-ordered. The mismatch
    depends on k only through k^2, so each distinct |k| is evaluated once
    and taken back out to its columns. Rows are evaluated _ROW_BLOCK
    frequencies at a time, so a block's temporaries stay in cache. Nodes
    whose signal or idler leaves the dispersion range, or whose k is
    evanescent, do not evaluate.
    """
    abs_k, column = np.unique(np.abs(k), return_inverse=True)
    repeats = np.bincount(column)
    values = np.empty((omega.size, k.size))
    invalid = np.empty(omega.size, int)
    for lo in range(0, omega.size, _ROW_BLOCK):
        mismatch, valid = _mismatch(cfg, omega[lo:lo + _ROW_BLOCK, None], abs_k)
        density = _density_from_mismatch(mismatch, cfg.length_m, cfg.gain)
        density[~valid] = 0.0
        # mode="clip" lets take write straight into out (indices are in range)
        np.take(density, column, axis=1, out=values[lo:lo + _ROW_BLOCK], mode="clip")
        invalid[lo:lo + _ROW_BLOCK] = ~valid @ repeats
    return values, invalid


def mirror(pairs):
    """Fill a symmetric product from its fundamental domain: each image view
    of the (image, source, op) pairs, in order, with op(source)."""
    for image, source, op in pairs:
        op(source, out=image)


def k_mirror(values):
    """(domain, mirror pairs) of an array even in k, as older S files fold:
    the columns k = 0 .. -k_max (-k_max is the k_max node), copied onto k > 0."""
    n, half = values.shape[1], values.shape[1] // 2
    return values[:, half::-1], [
        (values[:, half + 1:], values[:, half - 1::-1][:, :n - half - 1], np.positive)]


def s_mirror(values):
    """(domain, mirror pairs) of an S even in Omega and k, as S(Omega^2, k^2)
    is: the rows Omega = 0 .. -Omega_max (-Omega_max is the Omega_max node)
    of k_mirror's domain, copied onto Omega > 0."""
    n = values.shape[0] // 2
    domain, pairs = k_mirror(values[:n + 1])
    return domain[::-1], pairs + [(values[n + 1:], values[n - 1:0:-1], np.positive)]


def auto_grid(cfg, n_omega=1024, n_k=512):
    """Size a grid from the density's own support.

    A coarse probe locates where the density exceeds 1e-3 of its peak,
    widening itself until that support is interior, and the final
    half-widths add _GRID_MARGIN so the edge-decay requirement holds.
    A support whose margin would reach past the frequency cap of 0.49
    omega_c cannot be bounded, and raises ConfigurationError.
    """
    omega_c = cfg.degenerate_omega
    cap = 0.49 * omega_c
    half_w, half_k = cap, 4e5
    for _ in range(10):
        probe_w = omega_c + np.linspace(-half_w, half_w, 257)
        probe_k = np.linspace(-half_k, half_k, 129)
        # a gain or length so large that S overflows is refused just below
        with np.errstate(over="ignore", invalid="ignore"):
            values, _ = _masked_density(cfg, probe_w, probe_k)
        peak = values.max()
        if not 0 < peak < math.inf:
            raise ConfigurationError(f"density peak is {peak:g} at gain {cfg.gain:g}, "
                                     f"length {cfg.length_m:g} m; supply a GridSpec")
        rows = np.any(values >= EDGE_DECAY_RATIO * peak, axis=1)
        cols = np.any(values >= EDGE_DECAY_RATIO * peak, axis=0)
        if rows[0] or rows[-1] or cols[0] or cols[-1]:
            half_w = min(half_w * 1.5, cap)
            half_k *= 1.5
            continue
        span_w = np.abs(probe_w[rows] - omega_c).max()
        span_k = np.abs(probe_k[cols]).max()
        if _GRID_MARGIN * span_w > cap:
            raise ConfigurationError(
                f"{cfg.sellmeier.name} at theta "
                f"{math.degrees(cfg.theta_rad):g} deg: the density spans "
                f"{span_w / omega_c:.2f} omega_c, and with margin {_GRID_MARGIN:g} "
                f"its grid would pass the cap of 0.49 omega_c")
        return GridSpec(omega_center=omega_c,
                        omega_half_width=_GRID_MARGIN * span_w, n_omega=n_omega,
                        k_half_width=_GRID_MARGIN * span_k, n_k=n_k)
    raise ConfigurationError("could not bound the density support; check the "
                             "crystal configuration")


def build_spectrum(cfg, grid=None):
    """Evaluate the density on a grid (auto-sized when grid is None).

    The grid is centred on the degenerate frequency, where S is even in
    Omega: the rows Omega <= 0 are evaluated and s_mirror fills the rest.
    Invalid nodes are zeroed and counted at their mirror weight; more than
    1% of them is a configuration error. The provenance records the edge
    decay ratio that the correlation transform checks before trusting it.
    """
    if grid is None:
        grid = auto_grid(cfg)
    if grid.omega_center != cfg.degenerate_omega:
        raise ConfigurationError(f"grid omega_center {grid.omega_center!r} is not the "
                                 f"degenerate frequency {cfg.degenerate_omega!r} rad/s")
    n = grid.n_omega // 2
    values = np.empty((grid.n_omega, grid.n_k))
    values[:n + 1], rows = _masked_density(cfg, grid.omega_axis()[:n + 1], grid.k_axis())
    mirror(s_mirror(values)[1])
    # row 0 (-Omega_max) and row n (Omega = 0) have no mirror on the grid
    invalid = int(2 * rows.sum() - rows[0] - rows[n])
    if invalid > 0.01 * values.size:
        raise ConfigurationError(
            f"{invalid} of {values.size} grid nodes are unphysical "
            "(evanescent or outside the dispersion range); narrow the grid")
    peak = values.max()
    edges = max(values[0].max(), values[-1].max(),
                values[:, 0].max(), values[:, -1].max())
    provenance = {
        "crystal_hash": cfg.config_hash(),
        "material": cfg.sellmeier.name,
        "length_m": cfg.length_m,
        "theta_rad": cfg.theta_rad,
        "pump_wavelength_m": cfg.pump_wavelength_m,
        "gain": cfg.gain,
        "invalid_nodes": invalid,
        "edge_ratio": float(edges / peak) if peak > 0 else math.inf,
    }
    return SpectralGrid(spec=grid, values=values, provenance=provenance)


def bilinear(x_axis, y_axis, values, x, y):
    """Bilinear samples of values[i, j] = f(x_axis[i], y_axis[j]) at (x, y).

    Axes ascend; x and y broadcast. Returns (samples, inside), inside
    marking queries within both axes (NaN is never inside); the others are
    extrapolated from the edge cell, for the caller to refuse or fill. A
    query on a node uses the cell above it, the last node the last cell.
    """
    i = np.clip(np.searchsorted(x_axis, x, side="right") - 1, 0, x_axis.size - 2)
    j = np.clip(np.searchsorted(y_axis, y, side="right") - 1, 0, y_axis.size - 2)
    u = (x - x_axis[i]) / (x_axis[i + 1] - x_axis[i])
    v = (y - y_axis[j]) / (y_axis[j + 1] - y_axis[j])
    inside = (x >= x_axis[0]) & (x <= x_axis[-1]) & (y >= y_axis[0]) & (y <= y_axis[-1])
    # one flat index per query; ravel copies values only when not in C order
    flat, n = np.ravel(values), values.shape[1]
    corner = i * n + j
    return (flat[corner] * (1 - u) * (1 - v) + flat[corner + 1] * (1 - u) * v
            + flat[corner + n] * u * (1 - v) + flat[corner + n + 1] * u * v), inside


@dataclass
class WavelengthAngleGrid:
    """Density resampled to wavelength and external emission angle."""

    wavelength_axis_m: np.ndarray
    angle_axis_rad: np.ndarray
    values: np.ndarray
    provenance: dict = field(default_factory=dict)


def _resample_size(name, n, default):
    if n is None:
        return default
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ConfigurationError(f"{name} must be an integer >= 2, got {n!r}")
    return int(n)


def angle_mirror(values):
    """(domain, mirror pairs) of a wavelength-angle grid of an S even in k:
    the theta >= 0 columns, copied onto theta < 0."""
    half = values.shape[1] // 2
    return values[:, half:], [(values[:, :half], values[:, ::-1][:, :half], np.positive)]


def to_wavelength_angle(sg, n_wavelength=None, n_angle=None):
    """Resample S(omega, k) onto a uniform (wavelength, external angle) grid.

    Wavelength is 2*pi*c/omega and the external angle is k * wavelength /
    (2*pi); values are bilinearly interpolated, with zero where |k| passes
    the largest positive k node. Only angle_mirror's domain is resampled,
    _ROW_BLOCK wavelength rows at a time into one C-ordered array.
    """
    spec = sg.spec
    n_wavelength = _resample_size("n_wavelength", n_wavelength, spec.n_omega)
    n_angle = _resample_size("n_angle", n_angle, spec.n_k)
    omega, k = sg.omega_axis(), sg.k_axis()
    lam = np.linspace(2 * math.pi * c / omega[-1], 2 * math.pi * c / omega[0],
                      n_wavelength)
    theta_max = spec.k_half_width * lam[-1] / (2 * math.pi)
    theta = np.linspace(-theta_max, theta_max, n_angle)

    values = np.empty((n_wavelength, n_angle))
    domain, pairs = angle_mirror(values)
    for lo in range(0, n_wavelength, _ROW_BLOCK):
        # a column of omega: bilinear finds each wavelength's row once
        lam_q = lam[lo:lo + _ROW_BLOCK, None]
        block, inside = bilinear(omega, k, sg.values, 2 * math.pi * c / lam_q,
                                 theta[n_angle // 2:] * 2 * math.pi / lam_q)
        domain[lo:lo + _ROW_BLOCK] = np.where(inside, block, 0.0)
    mirror(pairs)
    return WavelengthAngleGrid(lam, theta, values, dict(sg.provenance))
