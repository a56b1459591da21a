"""High-gain down-conversion spectral density on uniform (omega, k) grids.

The density at mismatch delta_k is

    S = (G * sinh(g) / g)^2,    g = sqrt(G^2 - (delta_k * L)^2 / 4),

continued analytically to sin for an imaginary g. delta_k is unchanged when
signal and idler exchange and depends on k only through k^2, so on a grid
centred on the degenerate frequency S is even in Omega and k: it is
evaluated once per (|Omega|, |k|). Grids are sized from the density's
closed-form support so that it decays below 1e-3 of its peak at every
edge, which the correlation transform relies on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dispersion import c
from .dispersion import wavenumber  # unused here; perfbench/spans.py wraps this name
from .errors import ConfigurationError, DensityPeakError, EdgeDecayError, blamed, finite
from .phasematch import _mismatch, _ring_squared, _wavenumbers, delta_k

EDGE_DECAY_RATIO = 1e-3

# auto_grid: the factor on S's closed-form support, and its |Omega| pass's nodes
_GRID_MARGIN = 1.35
_SUPPORT_NODES = 4097

# series window for sinh(x)/x around the branch point, in u = x^2
_SERIES_U = 1e-8

# frequency or wavelength rows per block of the density passes: a block's
# temporaries (a few 64 x 512 float arrays) stay in cache
_ROW_BLOCK = 64


def check_grid_size(field, n):
    """The rule for a grid's sample count: an integer power of two >= 64."""
    if not isinstance(n, numbers.Integral) or n < 64 or n & (n - 1):
        raise ConfigurationError(f"{field} must be an integer power of two >= 64, got {n!r}")


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
        finite("k_half_width", self.k_half_width, positive=True)
        if finite("omega_center", self.omega_center) <= finite(
                "omega_half_width", self.omega_half_width, positive=True):
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


def increasing(name, axis):
    """axis as a float array, if one-dimensional, of one or more finite
    nodes that increase strictly; else ConfigurationError naming it."""
    axis = np.asarray(axis, dtype=float)
    if not (axis.ndim == 1 and axis.size and np.isfinite(axis).all()
            and (axis[1:] > axis[:-1]).all()):
        raise ConfigurationError(
            f"{name} must hold one or more finite nodes that increase strictly")
    return axis


@dataclass(kw_only=True, eq=False)
class Folded:
    """A grid held only as its fundamental domain under a symmetry.

    A subclass names its symmetry (a full array's (domain, (image, source)
    pairs) view), the `fold` its files declare, and the fields of its
    `axes`, each `increasing`, whose sizes are its full `shape`. A bad
    axis, then a domain of another shape, raises ConfigurationError as it
    enters; `values` unfolds a new full array on each access. Products
    compare by identity (eq=False): a field-wise == of arrays has no truth."""

    domain: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in self.axes:
            setattr(self, name, increasing(f"{type(self).__name__} {name}",
                                           getattr(self, name)))
        want = domain_shape(self.symmetry, self.shape)
        if np.shape(self.domain) != want:
            raise ConfigurationError(
                f"{type(self).__name__} domain has shape {np.shape(self.domain)}; "
                f"axes of {self.shape[0]} x {self.shape[1]} nodes give {want}")

    @property
    def shape(self):
        return tuple(getattr(self, name).size for name in self.axes)

    @property
    def values(self):
        """The whole grid, unfolded from the domain (a new array)."""
        return unfold(self.symmetry, self.domain, self.shape)


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


@dataclass(eq=False)
class SpectralGrid(Folded):
    """Sampled density S(omega_axis[i], k_axis[j]) on spec's grid, held only
    as s_mirror's domain, the C-ordered (|Omega|, |k|) quadrant: domain[i, j]
    is S at Omega = -i omega_step, |k| = j k_step, i <= n_omega / 2,
    j <= n_k / 2. S is even in Omega and k, as S(Omega^2, k^2) about the
    degenerate frequency is, so the quadrant is all of it. An even full
    array folds to it with np.ascontiguousarray(s_mirror(full)[0]). Nothing
    here reads the provenance: the edge ratio is S's own.
    """

    symmetry = staticmethod(s_mirror)
    fold = "|Omega|, |k|"
    axes = ()  # GridSpec checks spec's

    spec: GridSpec

    @property
    def shape(self):
        return (self.spec.n_omega, self.spec.n_k)

    def omega_axis(self):
        return self.spec.omega_axis()

    def k_axis(self):
        return self.spec.k_axis()

    @property
    def edge_ratio(self):
        """The largest value on the grid's edges over the peak, from the
        quadrant: its last two rows (Omega = -Omega_max and Omega_max - step)
        and columns (k = -k_max and k_max - step). inf where the quadrant
        has no finite positive peak."""
        q = self.domain
        peak = q.max()
        if not 0 < peak < math.inf:
            return math.inf
        return float(max(q[-2:].max(), q[:, -2:].max()) / peak)

    def check_edge_decay(self):
        """Refuse, with EdgeDecayError, an S that holds EDGE_DECAY_RATIO of
        its peak on an edge: its correlation transform would alias."""
        if not self.edge_ratio < EDGE_DECAY_RATIO:
            raise EdgeDecayError(
                f"S holds {self.edge_ratio:.2e} of its sampled peak on the edge of "
                f"its {self.spec.n_omega} x {self.spec.n_k} grid")


# a gain or length so large that S overflows gives inf or nan, which the
# peak checks refuse
@np.errstate(over="ignore", invalid="ignore")
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
    """(rows, k, density, valid) over the frequencies omega, _ROW_BLOCK at a
    time, so a block's temporaries stay in cache: rows is the block's slice
    of omega, and k, k(rows) evaluated once, its transverse wavevectors,
    broadcast against omega[rows, None]. The wavenumbers of every frequency
    come from one _wavenumbers call. Nodes whose signal or idler leaves the
    dispersion range, or whose k is evanescent, do not evaluate: they are 0."""
    in_range, k_s, k_i, k_p = _wavenumbers(cfg, omega[:, None])
    for lo in range(0, omega.size, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        k_rows = k(rows)
        mismatch, valid = _mismatch((in_range[rows], k_s[rows], k_i[rows], k_p), k_rows)
        density = _density_from_mismatch(mismatch, cfg.length_m, cfg.gain)
        density[~valid] = 0.0
        yield rows, k_rows, density, valid


def _check_peak(cfg, peak):
    if not 0 < peak < math.inf:
        raise DensityPeakError(f"density peak is {peak:g} at gain {cfg.gain:g}, "
                               f"length {cfg.length_m:g} m")


def _crystal(cfg):
    """The set and angle that name a crystal in a refusal."""
    return f"{cfg.sellmeier.name} at theta {math.degrees(cfg.theta_rad):g} deg"


def _crystal_facts(cfg):
    """The crystal config's facts that S and its wavelength-angle grid
    record, in their header order."""
    return {"crystal_hash": cfg.config_hash(), "material": cfg.sellmeier.name,
            "length_m": cfg.length_m, "theta_rad": cfg.theta_rad,
            "pump_wavelength_m": cfg.pump_wavelength_m, "gain": cfg.gain}


def auto_grid(cfg, n_omega=1024, n_k=512):
    """Size a grid from the density's closed-form support.

    With r = delta_k L / 2, S <= G^2 / (r^2 - G^2) past |r| = G, so S is
    below EDGE_DECAY_RATIO of a peak P where |delta_k| >= delta; P is
    sinh^2 G where delta_k = 0 is reachable, else S at the least on-axis
    delta_k. delta_k grows with k^2, so the support spans the |Omega| of
    one pass up to the cap whose on-axis delta_k is at most delta, and |k|
    up to the exact root of delta_k = delta; the pass's one _wavenumbers
    evaluation serves both. The half-widths add _GRID_MARGIN, |Omega|
    clamped to the pass's last in-range node. The cap is 0.49 omega_c, or
    less where signal or idler leaves the dispersion range. A support that
    reaches it raises ConfigurationError naming the angle; a density with
    no finite positive peak raises DensityPeakError. S is not sampled here:
    build_spectrum checks the peak and the edges of the S it builds.
    """
    omega_c = cfg.degenerate_omega
    lo, hi = cfg.sellmeier.valid_range_um
    # the -Omega_max row holds signal omega_c - Omega_max, idler omega_c + Omega_max
    cap = min(0.49 * omega_c, omega_c - 2e6 * math.pi * c / hi, 2e6 * math.pi * c / lo - omega_c)
    big_omega = np.linspace(0.0, cap, _SUPPORT_NODES)
    waves = _wavenumbers(cfg, omega_c - big_omega)
    on_axis, valid = _mismatch(waves, 0.0)
    peak = float(_density_from_mismatch(max(on_axis[valid].min(), 0), cfg.length_m, cfg.gain))
    _check_peak(cfg, peak)
    delta = 2 * cfg.gain * math.sqrt(1 + 1 / (EDGE_DECAY_RATIO * peak)) / cfg.length_m
    support = valid & (on_axis <= delta)
    reach, end = big_omega[support].max(), big_omega[valid].max()
    # a support that reaches the pass's last in-range node may go on past the cap
    if reach == end:
        raise ConfigurationError(
            f"{_crystal(cfg)}: the density's support reaches its grid's cap of "
            f"{cap / omega_c:.3f} omega_c (0.49 omega_c, or less where signal or idler "
            f"leaves the {lo:g}-{hi:g} um dispersion range)")
    span_k = math.sqrt(_ring_squared(waves, delta)[support].max())
    return GridSpec(omega_center=omega_c, omega_half_width=min(_GRID_MARGIN * reach, end),
                    n_omega=n_omega, k_half_width=_GRID_MARGIN * span_k, n_k=n_k)


def build_spectrum(cfg, grid=None):
    """Evaluate the density on a grid (auto-sized when grid is None).

    The grid is centred on the degenerate frequency, where S is even in
    Omega and k: only the (|Omega|, |k|) quadrant that SpectralGrid holds
    is evaluated, by _density_blocks over the rows Omega <= 0 with one
    _wavenumbers evaluation, and no full array is made. Invalid nodes are
    zeroed and counted at their weight on the whole grid; more than 1% of
    them is a configuration error. A quadrant with no finite positive peak
    raises DensityPeakError. The provenance records S's edge_ratio; an S
    that fails SpectralGrid.check_edge_decay is refused here, with a
    ConfigurationError naming the angle.
    """
    if grid is None:
        grid = auto_grid(cfg)
    if grid.omega_center != cfg.degenerate_omega:
        raise ConfigurationError(f"grid omega_center {grid.omega_center!r} is not the "
                                 f"degenerate frequency {cfg.degenerate_omega!r} rad/s")
    n, half = grid.n_omega // 2, grid.n_k // 2
    # |k| = 0 .. k_max; each |k| but 0 and k_max (the -k_max column) is two columns
    k, weight = np.abs(grid.k_axis()[half::-1]), np.r_[1, np.full(half - 1, 2), 1]
    quadrant = np.empty((n + 1, half + 1))
    invalid_rows = np.empty(n + 1, int)
    for rows, _, density, valid in _density_blocks(cfg, grid.omega_axis()[:n + 1], lambda rows: k):
        # omega row i is Omega = (i - n) steps, quadrant row n - i
        quadrant[::-1][rows] = density
        invalid_rows[rows] = ~valid @ weight
    # row 0 (-Omega_max) and row n (Omega = 0) have no mirror on the grid
    invalid = int(2 * invalid_rows.sum() - invalid_rows[0] - invalid_rows[n])
    if invalid > 0.01 * grid.n_omega * grid.n_k:
        raise ConfigurationError(
            f"{invalid} of {grid.n_omega * grid.n_k} grid nodes are unphysical "
            "(evanescent or outside the dispersion range); narrow the grid")
    _check_peak(cfg, quadrant.max())
    sg = SpectralGrid(grid, domain=quadrant,
                      provenance={**_crystal_facts(cfg), "invalid_nodes": invalid})
    sg.provenance["edge_ratio"] = sg.edge_ratio
    with blamed(_crystal(cfg), EdgeDecayError):
        sg.check_edge_decay()
    return sg


def angle_mirror(values):
    """(domain, (image, source) pairs) of a wavelength-angle grid of an S
    even in k: the theta >= 0 columns, copied onto theta < 0."""
    half = values.shape[1] // 2
    return values[:, half:], [(values[:, :half], values[:, ::-1][:, :half])]


@dataclass(eq=False)
class WavelengthAngleGrid(Folded):
    """Density on a uniform wavelength and external emission angle grid,
    held only as angle_mirror's domain, its angle >= 0 columns: S is even
    in k, so the grid is even in angle. Its wavelengths are positive. Its
    files store each row of the domain without the +0.0 values that trail
    its first half, the nodes past the grid's largest k, as their fold
    declares."""

    symmetry = staticmethod(angle_mirror)
    fold = "angle >= 0, rows without trailing zeros"
    axes = ("wavelength_axis_m", "angle_axis_rad")

    wavelength_axis_m: np.ndarray
    angle_axis_rad: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        finite("wavelengths", float(self.wavelength_axis_m[0]), positive=True)


def to_wavelength_angle(cfg, spec):
    """S's closed form on a uniform (wavelength 2*pi*c/omega, external angle
    k * wavelength / (2*pi)) grid over the omega range and k half-width of
    S's grid spec, of its node counts. Each node of angle_mirror's domain is
    the density of cfg at its (omega, k), by _density_blocks, whose k varies
    per row and is computed once a block; it is zero where |k| passes
    spec's largest k node or the node does not evaluate. The provenance is
    cfg's facts: no value of S is read, so none of S's is recorded."""
    omega, k_max = spec.omega_axis(), spec.k_axis()[-1]
    lam = np.linspace(2 * math.pi * c / omega[-1], 2 * math.pi * c / omega[0],
                      spec.n_omega)
    theta_max = spec.k_half_width * lam[-1] / (2 * math.pi)
    theta = np.linspace(-theta_max, theta_max, spec.n_k)

    def k(rows):
        return theta[spec.n_k // 2:] * 2 * math.pi / lam[rows, None]

    domain = np.empty((spec.n_omega, spec.n_k - spec.n_k // 2))
    for rows, k_rows, density, _ in _density_blocks(cfg, 2 * math.pi * c / lam, k):
        domain[rows] = np.where(k_rows <= k_max, density, 0.0)
    return WavelengthAngleGrid(lam, theta, domain=domain, provenance=_crystal_facts(cfg))
