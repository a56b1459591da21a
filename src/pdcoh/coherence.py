"""Correlation maps g1(tau, xi) from spectral density grids.

The normalized first-order correlation follows from the spectral density
through a two-dimensional Fourier transform with kernel e^{i k xi - i omega
tau}, integrated over frequency and transverse wavevector and divided by the
zero-lag value. Maps store the envelope relative to the degenerate carrier
frequency; the rapidly oscillating full correlation is recovered by
multiplying with e^{-i omega_c tau}. S is even in k and, about omega_c, in
Omega, so the envelope is real and even in tau and xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, MapExtentError, ResolutionError, finite
from .spectrum import Folded, unfold

FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# minimum half-maximum crossings per axis before widths are trusted
_MIN_SAMPLES_PER_FWHM = 8.0

_NOISE_FLOOR = 1e-3

# correlation_map's default (tau, xi) settings; correlation_columns' tau ones
OVERSAMPLE, EXTENT_CELLS = (16, 8), (32, 16)

# tau rows per block of _tau_stage's cos kernel and of its product with S:
# on the example grid a block is 64 x 513 doubles, 0.26 MB of the whole
# 513 x 513 kernel's 2.1 MB
_TAU_BLOCK = 64

# narrowest blur sigma, in samples: the sampled Gaussian keeps 0.977 of
# sigma^2 at 0.6 samples, only 0.86 at 0.5
_MIN_BLUR_SIGMA = 0.6


def map_mirror(g):
    """(domain, (image, source) pairs) of a map g1 of an S even in Omega
    and k: the tau >= 0, xi >= 0 quadrant, copied onto xi < 0, then tau < 0
    (g1 is real and even in tau and xi)."""
    n, m = g.shape[0] // 2, g.shape[1] // 2
    return g[n:, m:], [(g[n:, :m], g[n:, ::-1][:, :m]), (g[:n], g[::-1][:n])]


@dataclass(eq=False)
class CoherenceMap(Folded):
    """Envelope of g1 on a uniform (tau, xi) grid; rows run along tau. It is
    held only as map_mirror's domain, the real tau >= 0, xi >= 0 quadrant.
    The carrier and the zero-lag intensity are finite positive numbers."""

    symmetry = staticmethod(map_mirror)
    fold = "tau >= 0, xi >= 0"
    axes = ("tau_axis", "xi_axis")

    tau_axis: np.ndarray
    xi_axis: np.ndarray
    carrier_omega: float
    intensity: float

    # the unfolded envelope under the name perfbench's checks read
    g = Folded.values

    def __post_init__(self):
        finite("carrier_omega", self.carrier_omega, positive=True)
        finite("intensity", self.intensity, positive=True)
        super().__post_init__()

    @property
    def tau_step(self):
        return float(self.tau_axis[1] - self.tau_axis[0])

    @property
    def xi_step(self):
        return float(self.xi_axis[1] - self.xi_axis[0])


@dataclass
class CoherenceColumn:
    """Real envelope of g1 along a uniform ascending tau axis, at one xi,
    of a finite, positive carrier."""

    tau_axis: np.ndarray
    g: np.ndarray
    carrier_omega: float

    def __post_init__(self):
        finite("carrier_omega", self.carrier_omega, positive=True)


def _tau_stage(sg, os_tau, ext_tau):
    """(tau axis, R, kernel) of an S that passes its edge check: R = t_cos @
    sg.domain, the (|Omega|, |k|) quadrant of S, and R @ kernel(xi) the
    unnormalized envelope on the tau >= 0 nodes at each xi. Each step m of
    |Omega| and |k| weighs 2, m = 0 and the unpaired edge 1: the cos sum of
    the whole grid. tau_step * Omega_step = 2 pi / L, so t_cos reads one
    table of cos(2 pi j / L), L = n_omega * os_tau, at j = n m mod L. R is
    built _TAU_BLOCK rows at a time: each block of t_cos is gathered into
    one reused buffer and multiplied straight into its rows of R, so the
    whole t_cos never exists (Goto and van de Geijn, ACM TOMS 34(3), 2008).
    The blocks' sums may round differently from one whole product's."""
    sg.check_edge_decay()
    spec = sg.spec
    n_tau = os_tau * ext_tau
    tau = (np.arange(2 * n_tau + 1) - n_tau) * (
        2.0 * math.pi / (2.0 * spec.omega_half_width) / os_tau)
    n_w, half = spec.n_omega // 2, spec.n_k // 2
    period = spec.n_omega * os_tau
    table = np.cos(2.0 * math.pi / period * np.arange(period))
    rows, m = np.arange(n_tau + 1), np.arange(n_w + 1)
    r = np.empty((n_tau + 1, half + 1))
    block = np.empty((min(_TAU_BLOCK, n_tau + 1), n_w + 1))
    j = np.empty(block.shape, dtype=np.intp)
    for lo in range(0, n_tau + 1, _TAU_BLOCK):
        idx, t_cos = j[:n_tau + 1 - lo], block[:n_tau + 1 - lo]
        np.multiply(rows[lo:lo + _TAU_BLOCK, None], m, out=idx)
        idx %= period
        # mode="clip" lets take write straight into out (indices are in range)
        table.take(idx, out=t_cos, mode="clip")
        t_cos[:, 1:n_w] *= 2.0
        np.matmul(t_cos, sg.domain, out=r[lo:lo + _TAU_BLOCK])
    k = np.arange(half + 1) * spec.k_step
    weight = np.r_[1.0, np.full(half - 1, 2.0), 1.0]

    def kernel(xi):
        return weight[:, None] * np.cos(np.outer(k, xi))

    return tau, r, kernel


def correlation_map(sg, oversample=OVERSAMPLE, extent_cells=EXTENT_CELLS):
    """Transform a spectral grid into its normalized correlation map.

    The tau and xi axes are the conjugate grids of the omega and k sampling
    (cell 2*pi/span), refined `oversample` times and truncated to
    +-`extent_cells` conjugate cells, each a (tau, xi) pair or one value for
    both. tau keeps oversample 16 so a 1 fs blur keeps its variance; xi is
    sized by the metric floor: a 1025 x 257 map. An S that fails
    sg.check_edge_decay, judged from its quadrant whatever its provenance
    says, is refused: its transform would alias. The map's provenance is
    S's, with the edge ratio computed from S's quadrant written over any
    copied one, and the transform's settings.

    S is even in k and in Omega, as S(Omega^2, k^2) about the degenerate
    frequency is, and SpectralGrid holds only its (|Omega|, |k|) quadrant.
    Each node is the exact Riemann sum over the grid,
    with the unpaired column and row counted half at each end (the even
    quadrature of an even S), so g is real and even in tau and xi bit for
    bit: _tau_stage's R @ kernel(xi >= 0) is its tau >= 0, xi >= 0
    quadrant, which the map holds.
    """
    (os_tau, os_xi), (ext_tau, ext_xi) = (
        v if np.ndim(v) else (v, v) for v in (oversample, extent_cells))
    tau, r, kernel = _tau_stage(sg, os_tau, ext_tau)
    spec, n_xi = sg.spec, os_xi * ext_xi
    xi = (np.arange(2 * n_xi + 1) - n_xi) * (
        2.0 * math.pi / (2.0 * spec.k_half_width) / os_xi)
    quadrant = r @ kernel(xi[n_xi:])
    center = quadrant[0, 0]
    quadrant /= center
    cell = spec.omega_step * spec.k_step
    provenance = dict(sg.provenance)
    provenance.update(edge_ratio=sg.edge_ratio, oversample_tau=os_tau,
                      oversample_xi=os_xi, extent_cells_tau=ext_tau,
                      extent_cells_xi=ext_xi)
    return CoherenceMap(tau_axis=tau, xi_axis=xi, domain=quadrant,
                        carrier_omega=spec.omega_center,
                        intensity=float(center * cell),
                        provenance=provenance)


def correlation_columns(sg):
    """column(xi): g1's CoherenceColumn at any xi on correlation_map(sg)'s tau
    axis, R @ kernel(xi) / (R[0] @ w) from the map's own tau stage, so at a
    map node it is the map's column to rounding. The sum over k is periodic
    in xi: an xi past |xi| < pi / k_step, or NaN, raises MapExtentError."""
    tau, r, kernel = _tau_stage(sg, OVERSAMPLE[0], EXTENT_CELLS[0])
    norm, limit = r[0] @ kernel([0.0])[:, 0], math.pi / sg.spec.k_step
    carrier = sg.spec.omega_center  # column holds no reference to S

    def column(xi):
        if not abs(xi) < limit:
            raise MapExtentError(f"xi {xi:.4g} m lies outside the map's alias-free "
                                 f"range, |xi| < pi / k_step = {limit:.4g} m")
        half = (r @ kernel([xi]))[:, 0] / norm
        return CoherenceColumn(tau, np.concatenate([half[:0:-1], half]), carrier)

    return column


def direct_correlation(sg, tau, xi):
    """Riemann-sum value of the full correlation at one point.

    Brute-force reference for correlation_map, carrier oscillation
    included; normalized by the zero-lag sum. Each node has the phase
    e^{-i Omega tau + i k xi}, but the unpaired -Omega_max row and -k_max
    column, each counted half at its edge and half at the opposite one,
    have cos(Omega_max tau) and cos(k_max xi).
    """
    big_omega = sg.omega_axis() - sg.spec.omega_center
    phase_w = np.exp(-1j * big_omega * tau)
    phase_w[0] = math.cos(big_omega[0] * tau)
    k = sg.k_axis()
    phase_k = np.exp(1j * k * xi)
    phase_k[0] = math.cos(k[0] * xi)
    values = sg.values
    val = phase_w @ (values @ phase_k)
    return val / values.sum() * np.exp(-1j * sg.spec.omega_center * tau)


@dataclass
class CoherenceMetrics:
    """FWHM widths of the central peak and the first ring height."""

    tau_c: float
    xi_c: float
    first_ring_height: float
    tau_axis: np.ndarray
    tau_cut: np.ndarray
    xi_axis: np.ndarray
    xi_cut: np.ndarray


def _fwhm(axis, cut):
    """Width of the central peak at half its own height. Newton steps from
    each crossing's chord find the root of the cubic through its two nodes
    and their outer neighbours; the chord's root stands at a cut's end."""
    ipk = int(np.argmax(cut))
    half = finite("central peak", float(cut[ipk])) / 2.0

    def crossing(direction):
        below = np.flatnonzero(cut[ipk::direction] < half)
        if not below.size:
            raise MapExtentError(
                "half-maximum crossing lies outside the map; enlarge the extent")
        j = ipk + direction * below[0]
        i = j - direction
        frac = t = (cut[i] - half) / (cut[i] - cut[j])
        if 0 <= j + direction < cut.size:
            # p(t) = y1 + a1 t + a2 t^2 + a3 t^3 through t = -1, 0, 1, 2
            y0, y1, y2, y3 = cut[[i - direction, i, j, j + direction]] - half
            a1 = y2 - y0 / 3 - y1 / 2 - y3 / 6
            a2, a3 = (y0 + y2) / 2 - y1, (y1 - y2) / 2 + (y3 - y0) / 6
            for _ in range(4):
                t -= (y1 + t * (a1 + t * (a2 + t * a3))) / (a1 + t * (2 * a2 + 3 * t * a3))
        return axis[i] + (t if 0 <= t <= 1 else frac) * direction * (axis[1] - axis[0])

    return crossing(+1) - crossing(-1)


def _first_ring(cut, ipk):
    """Height of the first secondary maximum beyond the central peak."""
    i = ipk
    while i + 1 < cut.size and cut[i + 1] <= cut[i]:
        i += 1
    if i + 1 >= cut.size:
        return 0.0
    while i + 1 < cut.size and cut[i + 1] >= cut[i]:
        i += 1
    height = float(cut[i])
    return height if height > _NOISE_FLOOR else 0.0


def metrics(cmap):
    """Coherence time, coherence radius, and ring height from the axis cuts.

    Widths are FWHM of |g1| along tau at xi = 0 and along xi at tau = 0,
    with cubic interpolation at the half-maximum crossings. The half level
    refers to the cut's own peak, so blurred maps (peak below 1) are
    measured consistently. A peak resolved by fewer than 8 samples per
    FWHM raises ResolutionError carrying the needed refinement factor. The
    cuts are the quadrant's xi = 0 column and tau = 0 row, mirrored.
    """
    q = cmap.domain
    tau_cut = np.abs(unfold(map_mirror, q[:, :1], (cmap.tau_axis.size, 1))[:, 0])
    xi_cut = np.abs(unfold(map_mirror, q[:1], (1, cmap.xi_axis.size))[0])

    tau_c = _fwhm(cmap.tau_axis, tau_cut)
    xi_c = _fwhm(cmap.xi_axis, xi_cut)
    worst = min(tau_c / cmap.tau_step, xi_c / cmap.xi_step)
    if worst < _MIN_SAMPLES_PER_FWHM:
        factor = math.ceil(_MIN_SAMPLES_PER_FWHM / worst)
        raise ResolutionError(
            f"central peak is sampled {worst:.1f} times per FWHM "
            f"(need {_MIN_SAMPLES_PER_FWHM:.0f}); refine the map axes "
            f"{factor}x", refine_factor=factor)

    ring = _first_ring(tau_cut, int(np.argmax(tau_cut)))
    return CoherenceMetrics(tau_c=float(tau_c), xi_c=float(xi_c),
                            first_ring_height=ring,
                            tau_axis=cmap.tau_axis, tau_cut=tau_cut,
                            xi_axis=cmap.xi_axis, xi_cut=xi_cut)


def _gaussian_rows(x, sigma):
    """Zero-padded Gaussian along axis 0, bit-identical to scipy.ndimage's
    gaussian_filter1d: same weights, radius int(4 sigma + 0.5), sum order."""
    radius = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    w = w / w.sum()
    n = x.shape[0]
    padded = np.pad(x, ((radius, radius), (0, 0)))  # keeps x's memory order
    out = x * w[radius]
    pair = np.empty_like(out)
    for d in range(radius, 0, -1):
        np.add(padded[radius - d:radius - d + n], padded[radius + d:radius + d + n],
               out=pair)
        pair *= w[radius - d]
        out += pair
    return out


def check_blur(dtau, dxi):
    """Refuse, with ConfigurationError, blur widths (FWHM in s and m) that
    are not finite numbers, naming the width, or that are negative."""
    if not (finite("blur tau width", dtau) >= 0 and finite("blur xi width", dxi) >= 0):
        raise ConfigurationError(f"blur widths must be nonnegative, got {dtau!r} s "
                                 f"and {dxi!r} m")


def blur_sigma(cmap, dtau, dxi):
    """(tau, xi) sigma in samples of a blur of FWHM (dtau, dxi) on this map.
    Widths check_blur refuses raise its ConfigurationError; wider-than-the-
    map widths MapExtentError; a sigma of 1e-15 to 0.6 samples,
    ResolutionError with its refine factor."""
    check_blur(dtau, dxi)
    tau_span = cmap.tau_axis[-1] - cmap.tau_axis[0]
    xi_span = cmap.xi_axis[-1] - cmap.xi_axis[0]
    if dtau > tau_span or dxi > xi_span:
        raise MapExtentError(
            "blur kernel is wider than the map; enlarge the extent")
    steps = (cmap.tau_step, cmap.xi_step)
    sigma = tuple(width / FWHM_TO_SIGMA / step for width, step in zip((dtau, dxi), steps))
    for axis, samples, width, step in zip(("tau", "xi"), sigma, (dtau, dxi), steps):
        # the floor in the width's own units: a width of 0.6 samples' FWHM passes
        if 1e-15 < samples and width < _MIN_BLUR_SIGMA * FWHM_TO_SIGMA * step:
            factor = math.ceil(_MIN_BLUR_SIGMA / samples)
            raise ResolutionError(
                f"{axis} blur sigma spans {samples:.2f} samples (need "
                f"{_MIN_BLUR_SIGMA}); refine the {axis} axis {factor}x or "
                "widen the blur", refine_factor=factor)
    return sigma


def _quadrant_rows(q, n, sigma):
    """_gaussian_rows of the array of n rows whose map_mirror domain, its
    last rows, is q, on those rows: q padded above with the rows that
    mirror onto it within the kernel radius, zeros past the array's edge."""
    radius = int(4.0 * sigma + 0.5)
    # rows above q; row 0 of q is its own mirror when n is odd
    above, skip = min(radius, n - len(q)), 2 * len(q) - n
    padded = np.zeros((radius + len(q), q.shape[1]))
    padded[radius - above:radius] = q[skip:skip + above][::-1]
    padded[radius:] = q
    return _gaussian_rows(padded, sigma)[radius:]


def instrument_blur(cmap, dtau, dxi):
    """Map as a finite-resolution instrument would record it.

    |g1| is convolved with a normalized Gaussian of FWHM (dtau, dxi); the
    phase is kept, which for a real map is its sign. The result is
    deliberately not renormalized: a central value below 1 is the
    signature of resolution-limited visibility. A sigma of at most 1e-15
    samples leaves its axis unblurred, so a zero blur keeps the values and
    records both widths as every blur does; blur_sigma states what is
    refused. Only the quadrant is blurred, bit for bit as the whole map
    would be.
    """
    sigma = blur_sigma(cmap, dtau, dxi)
    q = cmap.domain
    blurred = np.abs(q)
    if sigma[0] > 1e-15:
        blurred = _quadrant_rows(blurred, cmap.tau_axis.size, sigma[0])
    if sigma[1] > 1e-15:
        blurred = _quadrant_rows(blurred.T, cmap.xi_axis.size, sigma[1]).T
    provenance = dict(cmap.provenance)
    provenance.update(blur_tau_s=dtau, blur_xi_m=dxi)
    return replace(cmap, domain=np.where(q < 0, -blurred, blurred), provenance=provenance)


def factorability_defect(cmap):
    """max |g1(tau, xi) - g1(tau, 0) * g1(0, xi)|, over the quadrant, where
    every value of the map and of the product lies.

    Zero for maps whose source density factorizes into S1(omega) * S2(k);
    a large value is the fingerprint of coupled time-space coherence.
    """
    q = cmap.domain
    outer = np.outer(q[:, 0], q[0])
    return float(np.max(np.abs(np.subtract(q, outer, out=outer))))
