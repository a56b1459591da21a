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
from .errors import ConfigurationError, DensityPeakError, EdgeDecayError
from .phasematch import _mismatch, delta_k

EDGE_DECAY_RATIO = 1e-3

# auto_grid's half-widths: the probed support of S widened by this factor,
# then by 1% per round, for at most this many rounds, until the edges decay
_GRID_MARGIN = 1.35
_WIDEN_ROUNDS = 100

# series window for sinh(x)/x around the branch point, in u = x^2
_SERIES_U = 1e-8

# frequency or wavelength rows per block of the density passes: a block's
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


class SpectralGrid:
    """Sampled density S(omega_axis[i], k_axis[j]), held only as s_mirror's
    domain, the C-ordered (|Omega|, |k|) quadrant: quadrant[i, j] is S at
    Omega = -i omega_step, |k| = j k_step, i <= n_omega / 2, j <= n_k / 2.
    S is even in Omega and k, as S(Omega^2, k^2) about the degenerate
    frequency is, so the quadrant is all of it; any other shape raises
    ConfigurationError. An even full array folds to it with
    np.ascontiguousarray(s_mirror(full)[0]).
    """

    def __init__(self, spec, quadrant, provenance=None):
        check_domain(s_mirror, quadrant, (spec.n_omega, spec.n_k),
                     "SpectralGrid quadrant")
        self.spec = spec
        self.quadrant = quadrant
        self.provenance = {} if provenance is None else provenance

    @property
    def values(self):
        """S over the whole grid, unfolded from the quadrant (a new array)."""
        return unfold(s_mirror, self.quadrant, (self.spec.n_omega, self.spec.n_k))

    def omega_axis(self):
        return self.spec.omega_axis()

    def k_axis(self):
        return self.spec.k_axis()

    @property
    def edge_ratio(self):
        """Largest edge value relative to the grid peak."""
        return self.provenance.get("edge_ratio", math.inf)

    def check_edge_decay(self):
        """Refuse a grid whose density has not decayed below EDGE_DECAY_RATIO
        of its peak at every edge: its correlation transform would alias."""
        if not self.edge_ratio < EDGE_DECAY_RATIO:
            raise EdgeDecayError(
                f"spectral density at the grid edge is {self.edge_ratio:.2e} of the "
                f"peak (limit {EDGE_DECAY_RATIO:.0e}); widen the grid before "
                "transforming")


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


def _density_blocks(cfg, omega, k):
    """(row offset, density, valid) over omega x k, _ROW_BLOCK frequencies
    at a time, so a block's temporaries stay in cache; invalid nodes are 0.
    Nodes whose signal or idler leaves the dispersion range, or whose k is
    evanescent, do not evaluate."""
    for lo in range(0, omega.size, _ROW_BLOCK):
        mismatch, valid = _mismatch(cfg, omega[lo:lo + _ROW_BLOCK, None], k)
        density = _density_from_mismatch(mismatch, cfg.length_m, cfg.gain)
        density[~valid] = 0.0
        yield lo, density, valid


def _masked_density(cfg, omega, k):
    """Density over an axis product with invalid nodes set to 0.

    Returns (values, invalid count per row), values C-ordered. The mismatch
    depends on k only through k^2, so each distinct |k| is evaluated once
    (_density_blocks) and taken back out to its columns.
    """
    abs_k, column = np.unique(np.abs(k), return_inverse=True)
    repeats = np.bincount(column)
    values = np.empty((omega.size, k.size))
    invalid = np.empty(omega.size, int)
    for lo, density, valid in _density_blocks(cfg, omega, abs_k):
        # mode="clip" lets take write straight into out (indices are in range)
        np.take(density, column, axis=1, out=values[lo:lo + _ROW_BLOCK], mode="clip")
        invalid[lo:lo + _ROW_BLOCK] = ~valid @ repeats
    return values, invalid


def unfold(symmetry, domain, shape):
    """The array of shape whose fundamental domain under symmetry
    (s_mirror, angle_mirror, coherence.map_mirror) is domain: each image view
    of the symmetry's (image, source) pairs, in order, is a copy of source."""
    full = np.empty(shape, domain.dtype)
    view, pairs = symmetry(full)
    view[...] = domain
    for image, source in pairs:
        image[...] = source
    return full


def domain_shape(symmetry, shape):
    """The shape of symmetry's fundamental domain in an array of shape, from
    a view of that shape that holds no memory."""
    return symmetry(np.broadcast_to(0.0, shape))[0].shape


def check_domain(symmetry, domain, shape, name):
    """Refuse a domain that is not symmetry's fundamental domain of a grid
    of shape, naming the domain and the shape its axes give."""
    want = domain_shape(symmetry, shape)
    if np.shape(domain) != want:
        raise ConfigurationError(f"{name} has shape {np.shape(domain)}; axes "
                                 f"of {shape[0]} x {shape[1]} nodes give {want}")


def s_mirror(values):
    """(domain, (image, source) pairs) of an S even in Omega and k, as
    S(Omega^2, k^2) is: the block Omega = 0 .. -Omega_max, k = 0 .. -k_max
    (-Omega_max and -k_max are the Omega_max and k_max nodes), whose sources
    are copied onto the images k > 0, then Omega > 0."""
    n, half = values.shape[0] // 2, values.shape[1] // 2
    low = values[:n + 1]
    return low[::-1, half::-1], [
        (low[:, half + 1:], low[:, half - 1::-1][:, :low.shape[1] - half - 1]),
        (values[n + 1:], values[n - 1::-1][:values.shape[0] - n - 1])]


def _edge_ratios(cfg, grid):
    """(Omega, k) edge ratios of the S build_spectrum builds on grid, from
    its Omega <= 0 half as there (row 1 is the last row's mirror, column 1
    the last column's |k|). The Omega = 0 row and k = 0 column bound the
    peak from below; the whole half is searched only when that bound does
    not clear the edges."""
    n, half = grid.n_omega // 2, grid.n_k // 2
    omega, k = grid.omega_axis()[:n + 1], grid.k_axis()
    rows, _ = _masked_density(cfg, omega[[0, 1, n]], k)
    cols, _ = _masked_density(cfg, omega, k[[0, 1, half]])
    edges = np.array([rows[:2].max(), cols[:, :2].max()])
    peak = max(rows.max(), cols.max())
    if edges.max() >= EDGE_DECAY_RATIO * peak:
        peak = _masked_density(cfg, omega, k)[0].max()
    return edges / peak


def auto_grid(cfg, n_omega=1024, n_k=512):
    """Size a grid from the density's own support.

    A coarse probe locates where the density exceeds 1e-3 of its peak,
    widening itself until that support is interior, and the half-widths add
    _GRID_MARGIN. The probe can miss density between its nodes, so a
    half-width whose grid edge still holds EDGE_DECAY_RATIO of the peak is
    widened 1% at a time until every edge decays: every grid returned
    passes the edge check. The probe spans up to 0.49 omega_c; a grid is
    capped at the lesser of that and the |Omega| where signal or idler
    leaves the material's dispersion range, and one past its cap raises
    ConfigurationError naming the angle. A density with no finite positive
    peak raises DensityPeakError.
    """
    omega_c = cfg.degenerate_omega
    reach = 0.49 * omega_c
    lo, hi = cfg.sellmeier.valid_range_um
    # the -Omega_max row holds signal omega_c - Omega_max, idler omega_c + Omega_max
    cap = min(reach, omega_c - 2e6 * math.pi * c / hi, 2e6 * math.pi * c / lo - omega_c)
    half_w, half_k = reach, 4e5
    for _ in range(10):
        probe_w = omega_c + np.linspace(-half_w, half_w, 257)
        probe_k = np.linspace(-half_k, half_k, 129)
        # a gain or length so large that S overflows is refused just below
        with np.errstate(over="ignore", invalid="ignore"):
            values, _ = _masked_density(cfg, probe_w, probe_k)
        peak = values.max()
        if not 0 < peak < math.inf:
            raise DensityPeakError(f"density peak is {peak:g} at gain {cfg.gain:g}, "
                                   f"length {cfg.length_m:g} m")
        rows = np.any(values >= EDGE_DECAY_RATIO * peak, axis=1)
        cols = np.any(values >= EDGE_DECAY_RATIO * peak, axis=0)
        if rows[0] or rows[-1] or cols[0] or cols[-1]:
            half_w = min(half_w * 1.5, reach)
            half_k *= 1.5
            continue
        span_w = np.abs(probe_w[rows] - omega_c).max()
        span_k = np.abs(probe_k[cols]).max()
        half_w, half_k = _GRID_MARGIN * span_w, _GRID_MARGIN * span_k
        for _ in range(_WIDEN_ROUNDS):
            if half_w > cap:
                raise ConfigurationError(
                    f"{cfg.sellmeier.name} at theta {math.degrees(cfg.theta_rad):g} "
                    f"deg: the density needs a grid to |Omega| = "
                    f"{half_w / omega_c:.3f} omega_c, past its cap of "
                    f"{cap / omega_c:.3f} omega_c (0.49 omega_c, or less where signal "
                    f"or idler leaves the {lo:g}-{hi:g} um dispersion range)")
            grid = GridSpec(omega_center=omega_c, omega_half_width=half_w,
                            n_omega=n_omega, k_half_width=half_k, n_k=n_k)
            edges = _edge_ratios(cfg, grid)
            if edges.max() < EDGE_DECAY_RATIO:
                return grid
            grow = np.where(edges < EDGE_DECAY_RATIO, 1.0, 1.01)
            half_w, half_k = half_w * grow[0], half_k * grow[1]
        break
    raise ConfigurationError("could not bound the density support; check the "
                             "crystal configuration")


def build_spectrum(cfg, grid=None):
    """Evaluate the density on a grid (auto-sized when grid is None).

    The grid is centred on the degenerate frequency, where S is even in
    Omega and k: only the (|Omega|, |k|) quadrant that SpectralGrid holds
    is evaluated, by _density_blocks over the rows Omega <= 0, and
    no full array is made. Invalid nodes are zeroed and counted at their
    weight on the whole grid; more than 1% of them is a configuration
    error. The provenance records the edge decay ratio, from the grid's
    edge rows and columns, that the correlation transform checks before
    trusting it.
    """
    if grid is None:
        grid = auto_grid(cfg)
    if grid.omega_center != cfg.degenerate_omega:
        raise ConfigurationError(f"grid omega_center {grid.omega_center!r} is not the "
                                 f"degenerate frequency {cfg.degenerate_omega!r} rad/s")
    n, half = grid.n_omega // 2, grid.n_k // 2
    # |k| = 0 .. k_max; each |k| but 0 and k_max (the -k_max column) is two columns
    weight = np.r_[1, np.full(half - 1, 2), 1]
    quadrant = np.empty((n + 1, half + 1))
    rows = np.empty(n + 1, int)
    for lo, density, valid in _density_blocks(cfg, grid.omega_axis()[:n + 1],
                                              np.abs(grid.k_axis()[half::-1])):
        # omega row lo is Omega = (lo - n) steps, quadrant row n - lo
        quadrant[::-1][lo:lo + _ROW_BLOCK] = density
        rows[lo:lo + _ROW_BLOCK] = ~valid @ weight
    # row 0 (-Omega_max) and row n (Omega = 0) have no mirror on the grid
    invalid = int(2 * rows.sum() - rows[0] - rows[n])
    if invalid > 0.01 * grid.n_omega * grid.n_k:
        raise ConfigurationError(
            f"{invalid} of {grid.n_omega * grid.n_k} grid nodes are unphysical "
            "(evanescent or outside the dispersion range); narrow the grid")
    peak = quadrant.max()
    # the grid's edges: rows -Omega_max and Omega_max - step, columns -k_max
    # and k_max - step
    edges = max(quadrant[n].max(), quadrant[n - 1].max(),
                quadrant[:, half].max(), quadrant[:, half - 1].max())
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
    return SpectralGrid(grid, quadrant, provenance)


@dataclass
class WavelengthAngleGrid:
    """Density on a uniform wavelength and external emission angle grid,
    held only as angle_mirror's domain, its angle >= 0 columns: S is even
    in k, so the grid is even in angle."""

    wavelength_axis_m: np.ndarray
    angle_axis_rad: np.ndarray
    half: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.wavelength_axis_m.size, self.angle_axis_rad.size)
        check_domain(angle_mirror, self.half, shape, "WavelengthAngleGrid half")

    @property
    def values(self):
        """The density over the whole grid, unfolded from half (a new array)."""
        return unfold(angle_mirror, self.half,
                      (self.wavelength_axis_m.size, self.angle_axis_rad.size))


def angle_mirror(values):
    """(domain, (image, source) pairs) of a wavelength-angle grid of an S
    even in k: the theta >= 0 columns, copied onto theta < 0."""
    half = values.shape[1] // 2
    return values[:, half:], [(values[:, :half], values[:, ::-1][:, :half])]


def to_wavelength_angle(sg, cfg):
    """S's closed form on a uniform (wavelength 2*pi*c/omega, external angle
    k * wavelength / (2*pi)) grid over S's omega range and k half-width, of
    S's node counts. Each node of angle_mirror's domain, _ROW_BLOCK rows at a
    time, is the density of cfg at its (omega, k), or zero where |k| passes
    S's largest k node or the node does not evaluate. A cfg whose digest is
    not S's crystal_hash is refused."""
    if sg.provenance.get("crystal_hash") != cfg.config_hash():
        raise ConfigurationError(
            f"S was built from crystal_hash {sg.provenance.get('crystal_hash')}, "
            f"not from this crystal config ({cfg.config_hash()})")
    spec = sg.spec
    omega, k_max = sg.omega_axis(), sg.k_axis()[-1]
    lam = np.linspace(2 * math.pi * c / omega[-1], 2 * math.pi * c / omega[0],
                      spec.n_omega)
    theta_max = spec.k_half_width * lam[-1] / (2 * math.pi)
    theta = np.linspace(-theta_max, theta_max, spec.n_k)

    half = np.empty((spec.n_omega, spec.n_k - spec.n_k // 2))
    for lo in range(0, spec.n_omega, _ROW_BLOCK):
        lam_q = lam[lo:lo + _ROW_BLOCK, None]
        k = theta[spec.n_k // 2:] * 2 * math.pi / lam_q
        mismatch, valid = _mismatch(cfg, 2 * math.pi * c / lam_q, k)
        density = _density_from_mismatch(mismatch, cfg.length_m, cfg.gain)
        half[lo:lo + _ROW_BLOCK] = np.where(valid & (k <= k_max), density, 0.0)
    return WavelengthAngleGrid(lam, theta, half, dict(sg.provenance))
