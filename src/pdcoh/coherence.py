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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EdgeDecayError, MapExtentError, ResolutionError
from .spectrum import bilinear, mirror, s_mirror

FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# minimum half-maximum crossings per axis before widths are trusted
_MIN_SAMPLES_PER_FWHM = 8.0

_NOISE_FLOOR = 1e-3

# narrowest blur sigma, in samples: the sampled Gaussian keeps 0.977 of
# sigma^2 at 0.6 samples, only 0.86 at 0.5
_MIN_BLUR_SIGMA = 0.6


@dataclass
class CoherenceMap:
    """Envelope of g1 on a uniform (tau, xi) grid; rows run along tau."""

    tau_axis: np.ndarray
    xi_axis: np.ndarray
    g: np.ndarray
    carrier_omega: float
    intensity: float
    provenance: dict = field(default_factory=dict)

    @property
    def tau_step(self):
        return float(self.tau_axis[1] - self.tau_axis[0])

    @property
    def xi_step(self):
        return float(self.xi_axis[1] - self.xi_axis[0])

    def value_at(self, tau, xi):
        """Bilinear envelope sample; raises MapExtentError outside the axes."""
        out, inside = bilinear(self.tau_axis, self.xi_axis, self.g,
                               np.asarray(tau, dtype=float), np.asarray(xi, dtype=float))
        if not np.all(inside):
            raise MapExtentError("query outside the map extent (or NaN)")
        return complex(out) if out.ndim == 0 else out

    def full_value_at(self, tau, xi):
        """Envelope times the carrier e^{-i omega_c tau}."""
        return self.value_at(tau, xi) * np.exp(-1j * self.carrier_omega
                                               * np.asarray(tau, dtype=float))


def map_mirror(g):
    """(domain, mirror pairs) of a map g1 of a real S: the tau >= 0, xi >= 0
    quadrant. g1 is even in xi, and g1(-tau, -xi) = conj g1(tau, xi) (for
    an S even in Omega, g1 is real and this is g1(tau, xi))."""
    n, m = g.shape[0] // 2, g.shape[1] // 2
    return g[n:, m:], [(g[n:, :m], g[n:, ::-1][:, :m], np.positive),
                       (g[:n], g[::-1, ::-1][:n], np.conjugate)]


def correlation_map(sg, oversample=(16, 8), extent_cells=(32, 16)):
    """Transform a spectral grid into its normalized correlation map.

    The tau and xi axes are the conjugate grids of the omega and k sampling
    (cell 2*pi/span), refined `oversample` times and truncated to
    +-`extent_cells` conjugate cells, each a (tau, xi) pair or one value for
    both. tau keeps oversample 16 so a 1 fs blur keeps its variance; xi is
    sized by the metric floor and the BS2 sweep: a 1025 x 257 map. Refusal
    to transform a grid whose density has not decayed at the edges guards
    against aliasing.

    S must be even in k and in Omega, as S(Omega^2, k^2) about the
    degenerate frequency is; the unpaired -k_max column and -Omega_max row
    may hold any values, any other asymmetric column or row raises
    ConfigurationError. Each node is the exact Riemann sum over the grid,
    with the unpaired column and row counted half at each end (the even
    quadrature of an even S), so g is real and even in tau and xi bit for
    bit: only the (|Omega|, |k|) quadrant of S (spectrum.s_mirror) is
    summed, into the tau >= 0, xi >= 0 quadrant of g, against cos kernels,
    and the rest of g is its mirror. The tau kernel is read from one table
    of cos(2 pi j / L), L = n_omega * oversample_tau.
    """
    edge = sg.edge_ratio
    if not edge < 1e-3:
        raise EdgeDecayError(
            f"spectral density at the grid edge is {edge:.2e} of the peak "
            "(limit 1e-3); widen the grid before transforming")
    spec, s = sg.spec, sg.values
    for axis, name, unequal in (("k", "column", s[:, 1:] != s[:, :0:-1]),
                                ("Omega", "row", (s[1:] != s[:0:-1]).T)):
        odd = np.flatnonzero(unequal.any(axis=0))
        if odd.size:
            raise ConfigurationError(f"S is not even in {axis}: {name} {odd[0] + 1} "
                                     f"differs from its mirror {unequal.shape[1] - odd[0]}")
    (os_tau, os_xi), (ext_tau, ext_xi) = (
        v if np.ndim(v) else (v, v) for v in (oversample, extent_cells))
    n_tau, n_xi = os_tau * ext_tau, os_xi * ext_xi
    tau_step = 2.0 * math.pi / (2.0 * spec.omega_half_width) / os_tau
    xi_step = 2.0 * math.pi / (2.0 * spec.k_half_width) / os_xi
    tau = (np.arange(2 * n_tau + 1) - n_tau) * tau_step
    xi = (np.arange(2 * n_xi + 1) - n_xi) * xi_step

    # Each |Omega| and |k| step m counts at weight 2, but m = 0 and the
    # unpaired edge (half at each end) at weight 1: the cos sum of the whole
    # grid. tau_step * Omega_step = 2 pi / L, so the tau kernel reads its
    # table at j = n m mod L.
    n_w, half = spec.n_omega // 2, spec.n_k // 2
    period = spec.n_omega * os_tau
    idx = np.arange(n_tau + 1)[:, None] * np.arange(n_w + 1)
    idx %= period
    t_cos = np.cos(2.0 * math.pi / period * np.arange(period))[idx]
    t_cos[:, 1:n_w] *= 2.0
    x_cos = np.cos(np.outer(np.arange(half + 1) * spec.k_step, xi[n_xi:]))
    x_cos[1:half] *= 2.0
    # a C-ordered copy of the quadrant, so that the products go to BLAS
    re = t_cos @ np.ascontiguousarray(s_mirror(s)[0]) @ x_cos
    center = re[0, 0]
    g = np.empty((tau.size, xi.size))
    quadrant, pairs = map_mirror(g)
    np.divide(re, center, out=quadrant)
    mirror(pairs)
    cell = spec.omega_step * spec.k_step
    provenance = dict(sg.provenance)
    provenance.update(oversample_tau=os_tau, oversample_xi=os_xi,
                      extent_cells_tau=ext_tau, extent_cells_xi=ext_xi)
    return CoherenceMap(tau_axis=tau, xi_axis=xi, g=g,
                        carrier_omega=spec.omega_center,
                        intensity=float(center * cell),
                        provenance=provenance)


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
    val = phase_w @ (sg.values @ phase_k)
    return val / sg.values.sum() * np.exp(-1j * sg.spec.omega_center * tau)


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
    """Width of the central peak at half its own height, interpolated."""
    ipk = int(np.argmax(cut))
    half = cut[ipk] / 2.0
    step = axis[1] - axis[0]

    def crossing(direction):
        i = ipk
        while 0 < i < cut.size - 1:
            j = i + direction
            if cut[j] < half:
                frac = (cut[i] - half) / (cut[i] - cut[j])
                return axis[i] + frac * direction * step
            i = j
        raise MapExtentError(
            "half-maximum crossing lies outside the map; enlarge the extent")

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
    with linear interpolation at the half-maximum crossings. The half level
    refers to the cut's own peak, so blurred maps (peak below 1) are
    measured consistently. A peak resolved by fewer than 8 samples per
    FWHM raises ResolutionError carrying the needed refinement factor.
    """
    i0 = int(np.argmin(np.abs(cmap.tau_axis)))
    j0 = int(np.argmin(np.abs(cmap.xi_axis)))
    tau_cut = np.abs(cmap.g[:, j0])
    xi_cut = np.abs(cmap.g[i0, :])

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
    for d in range(radius, 0, -1):
        out += (padded[radius - d:radius - d + n]
                + padded[radius + d:radius + d + n]) * w[radius - d]
    return out


def blur_sigma(cmap, dtau, dxi):
    """(tau, xi) sigma in samples of a blur of FWHM (dtau, dxi) on this map.
    Negative widths or a kernel wider than the map raise MapExtentError; a
    sigma of 1e-15 to 0.6 samples, ResolutionError with its refine factor."""
    if dtau < 0 or dxi < 0:
        raise MapExtentError("blur widths must be nonnegative")
    tau_span = cmap.tau_axis[-1] - cmap.tau_axis[0]
    xi_span = cmap.xi_axis[-1] - cmap.xi_axis[0]
    if dtau > tau_span or dxi > xi_span:
        raise MapExtentError(
            "blur kernel is wider than the map; enlarge the extent")
    sigma = (dtau / FWHM_TO_SIGMA / cmap.tau_step,
             dxi / FWHM_TO_SIGMA / cmap.xi_step)
    for axis, samples in zip(("tau", "xi"), sigma):
        if 1e-15 < samples < _MIN_BLUR_SIGMA:
            factor = math.ceil(_MIN_BLUR_SIGMA / samples)
            raise ResolutionError(
                f"{axis} blur sigma spans {samples:.2f} samples (need "
                f"{_MIN_BLUR_SIGMA}); refine the {axis} axis {factor}x or "
                "widen the blur", refine_factor=factor)
    return sigma


def instrument_blur(cmap, dtau, dxi):
    """Map as a finite-resolution instrument would record it.

    |g1| is convolved with a normalized Gaussian of FWHM (dtau, dxi); the
    phase is kept, which for a real map is its sign, so a real map blurs
    to a real map. The result is deliberately not renormalized: a central
    value below 1 is the signature of resolution-limited visibility. A
    sigma of at most 1e-15 samples leaves its axis unblurred; blur_sigma
    states what is refused.
    """
    sigma = blur_sigma(cmap, dtau, dxi)
    if dtau == 0 and dxi == 0:
        return CoherenceMap(cmap.tau_axis, cmap.xi_axis, cmap.g.copy(),
                            cmap.carrier_omega, cmap.intensity,
                            dict(cmap.provenance))
    mag = np.abs(cmap.g)
    blurred = mag
    if sigma[0] > 1e-15:
        blurred = _gaussian_rows(blurred, sigma[0])
    if sigma[1] > 1e-15:
        blurred = _gaussian_rows(blurred.T, sigma[1]).T
    # the phase g / |g| (1 where g = 0), times the blurred magnitude in place
    g = np.ones_like(cmap.g)
    np.divide(cmap.g, mag, out=g, where=mag > 0)
    g *= blurred
    provenance = dict(cmap.provenance)
    provenance.update(blur_tau_s=dtau, blur_xi_m=dxi)
    return CoherenceMap(cmap.tau_axis, cmap.xi_axis, g,
                        cmap.carrier_omega, cmap.intensity, provenance)


def factorability_defect(cmap):
    """max |g1(tau, xi) - g1(tau, 0) * g1(0, xi)|.

    Zero for maps whose source density factorizes into S1(omega) * S2(k);
    a large value is the fingerprint of coupled time-space coherence.
    """
    i0 = int(np.argmin(np.abs(cmap.tau_axis)))
    j0 = int(np.argmin(np.abs(cmap.xi_axis)))
    outer = np.outer(cmap.g[:, j0], cmap.g[i0, :])
    return float(np.max(np.abs(np.subtract(cmap.g, outer, out=outer))))
