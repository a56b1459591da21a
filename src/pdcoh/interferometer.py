"""Emulator of the beam-splitter-scanning Mach-Zehnder measurement.

One retroreflector sets the time delay (double pass: 2/c per meter of
stage travel); translating the second beam splitter displaces one beam,
which shows up as a transverse shift xi in the crystal near-field plane
and, inseparably, as an extra time delay. The split ratios and the
magnification are the only settable parameters; the kinematics follow
from them, so a trace records only its BS2 position and analysis derives
the rest. Fringe traces are synthesized from a CoherenceMap, each sweep
centred where the BS2 delay is compensated, their visibility envelopes
extracted with a sliding window, and any number of traces but two
reassembled into |g1|(tau, xi) by one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dispersion import c
from .errors import ConfigurationError, SamplingError
from .hashing import config_digest


@dataclass(frozen=True)
class InterferometerConfig:
    """Split ratios and imaging magnification of the interferometer.

    The BS2 kinematics follow a 45-degree thin-splitter geometry: one
    meter of BS2 travel displaces the beam one meter (1/magnification in
    the crystal plane) and lengthens the arm one meter (1/c of delay); one
    meter of stage travel adds 2/c of delay (double pass).
    """

    split_ratio: tuple = (0.5, 0.5)
    magnification: float = 6.6
    # the kinematics, not fields: no caller sets them
    shift_to_delay = 1.0 / c
    stage_to_delay = 2.0 / c

    def __post_init__(self):
        r1, r2 = self.split_ratio
        if not (0 < r1 < 1 and 0 < r2 < 1 and abs(r1 + r2 - 1) < 1e-9):
            raise ConfigurationError(
                f"split ratios must lie in (0,1) and sum to 1, got {self.split_ratio}")
        if not (math.isfinite(self.magnification) and self.magnification > 0):
            raise ConfigurationError(
                f"magnification must be finite and positive, got {self.magnification}")

    @property
    def shift_to_xi(self):
        return 1.0 / self.magnification

    def config_hash(self):
        return config_digest({name: getattr(self, name) for name in (
            "split_ratio", "magnification", "shift_to_xi", "shift_to_delay",
            "stage_to_delay")})

    @property
    def fringe_amplitude(self):
        """2 sqrt(r1 r2): visibility of a fully coherent trace."""
        return 2.0 * math.sqrt(self.split_ratio[0] * self.split_ratio[1])


@dataclass
class FringeTrace:
    """Detector intensity versus delay-stage position at one BS2 setting."""

    positions_m: np.ndarray
    intensities: np.ndarray
    bs2_position_m: float
    carrier_omega: float
    orientation: str = ""
    icfg_hash: str = ""

    def __post_init__(self):
        self.positions_m = np.asarray(self.positions_m, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.positions_m.size != self.intensities.size:
            raise ConfigurationError("positions and intensities differ in length")
        if not (self.positions_m.size >= 2 and np.all(np.isfinite(self.positions_m))
                and np.all(np.diff(self.positions_m) > 0)):
            raise ConfigurationError("stage positions must be finite and increase strictly")
        if not np.all(np.isfinite(self.intensities) & (self.intensities >= 0)):
            raise ConfigurationError("detector intensities must be finite and nonnegative")


def fringe_period_path_m(carrier_omega):
    """Optical path difference per fringe: the carrier wavelength."""
    return 2.0 * math.pi * c / carrier_omega


def fringe_period_stage_m(carrier_omega):
    """Stage travel per fringe; the double pass halves the path period."""
    return math.pi * c / carrier_omega


def detector_signal(cmap, tau, xi, icfg):
    """Two-beam interference level at the given delay and displacement.

    I = (r1 + r2) + 2 sqrt(r1 r2) Re[g1(tau, xi) e^{-i omega_c tau}],
    in units of the incoherent sum, which is 1 for ratios summing to 1.
    """
    r1, r2 = icfg.split_ratio
    term = np.real(cmap.full_value_at(tau, xi))
    return (r1 + r2) + 2.0 * math.sqrt(r1 * r2) * term


def synthesize_trace(cmap, icfg, bs2_position_m=0.0, stage_span_m=None,
                     orientation=""):
    """Sample a fringe trace along a delay-stage sweep.

    The sweep is centred where the stage compensates the BS2-induced
    delay, as an operator re-finding the fringe packet would, and must
    cover at least 3 fringes (default 4), sampled 20 times per fringe.
    The BS2 delay enters the synthesized signal; analysis derives it
    from the recorded BS2 position to realign the trace.
    """
    period = fringe_period_stage_m(cmap.carrier_omega)
    if stage_span_m is None:
        stage_span_m = 4.0 * period
    fringes = stage_span_m / period
    if fringes < 3.0:
        raise SamplingError(
            f"sweep spans {fringes:.2f} fringes; cover at least 3")
    # a sweep of whole fringes is whole only up to the carrier's last bits
    samples = 20.0 * fringes
    if abs(samples - round(samples)) < 1e-9:
        samples = round(samples)
    n_samples = int(math.ceil(samples)) + 1
    center = -bs2_position_m * icfg.shift_to_delay / icfg.stage_to_delay
    positions = center + (np.arange(n_samples) / (n_samples - 1)
                          - 0.5) * stage_span_m
    tau = positions * icfg.stage_to_delay + bs2_position_m * icfg.shift_to_delay
    xi = bs2_position_m * icfg.shift_to_xi
    intensities = detector_signal(cmap, tau, np.full_like(tau, xi), icfg)
    return FringeTrace(positions_m=positions, intensities=intensities,
                       bs2_position_m=bs2_position_m,
                       carrier_omega=cmap.carrier_omega,
                       orientation=orientation, icfg_hash=icfg.config_hash())


def extract_visibility(trace, icfg, window_fringes=1.0):
    """Sliding-window fringe visibility along a trace.

    Every window one fringe long (by default) is taken at once and yields
    (I_max - I_min) / (I_max + I_min), each extremum refined to the vertex
    of the parabola through it and its neighbours (an extremum on the
    window edge, or with zero curvature, keeps its sample), positioned at
    the window center. Returns (tau_s, visibility) with tau from the stage
    positions alone; the BS2 delay is deliberately not applied here
    (assemble_map undoes it). A window that is dark throughout is
    refused: it has no visibility.
    """
    if trace.icfg_hash and trace.icfg_hash != icfg.config_hash():
        raise ConfigurationError(
            "trace was recorded under a different interferometer configuration"
            f" (icfg_hash {trace.icfg_hash}, expected {icfg.config_hash()})")
    steps = np.diff(trace.positions_m)
    step = steps.mean()
    if np.max(np.abs(steps - step)) > 0.01 * step:
        raise SamplingError(
            "stage sampling varies by more than 1%; resample the trace first")
    period = fringe_period_stage_m(trace.carrier_omega)
    per_fringe = period / step
    if per_fringe < 8.0:
        raise SamplingError(
            f"{per_fringe:.1f} samples per fringe; at least 8 are needed")
    if window_fringes < 1.0:
        raise ConfigurationError("window must cover at least one fringe")
    w = int(round(window_fringes * per_fringe)) + 1
    n = trace.positions_m.size
    if w > n:
        raise SamplingError(f"window of window_fringes {window_fringes:g} ({w} "
                            f"samples) is longer than the trace ({n} samples)")

    windows = np.lib.stride_tricks.sliding_window_view(trace.intensities, w)
    rows = np.arange(n - w + 1)

    def refined(idx):
        at = np.clip(idx, 1, w - 2)
        y0, y1, y2 = windows[rows, at - 1], windows[rows, at], windows[rows, at + 1]
        denom = y0 - 2.0 * y1 + y2
        keep = (idx == 0) | (idx == w - 1) | (denom == 0)
        vertex = y1 - (y0 - y2) ** 2 / (8.0 * np.where(keep, 1.0, denom))
        return np.where(keep, windows[rows, idx], vertex)

    crest = refined(np.argmax(windows, axis=1))
    trough = refined(np.argmin(windows, axis=1))
    # a refined trough dips at most crest/8 below zero: only a dark window does
    dark = np.count_nonzero(crest + trough <= 0)
    if dark:
        raise SamplingError(
            f"trace {trace.orientation} at BS2 {trace.bs2_position_m * 1e6:g} um: "
            f"{dark} windows are dark throughout; their visibility is undefined")
    vis = (crest - trough) / (crest + trough)
    taus = 0.5 * (trace.positions_m[:n - w + 1] + trace.positions_m[w - 1:]) \
        * icfg.stage_to_delay
    return taus, vis


@dataclass
class AssembledMap:
    """|g1| reconstruction on a uniform (tau, xi) grid; rows run along tau."""

    tau_axis: np.ndarray
    xi_axis: np.ndarray
    magnitude: np.ndarray
    provenance: dict = field(default_factory=dict)


def assemble_map(traces, icfg, window_fringes=1.0):
    """Rebuild |g1|(tau, xi) from traces taken at stepped BS2 positions.

    Per-trace envelopes are divided by the split-ratio visibility ceiling,
    shifted by the delay their BS2 position adds, and linearly resampled
    onto the common tau range, one row per window step; xi comes from the
    BS2 kinematics. One trace goes the same way and gives a one-column
    map; two are refused as ambiguous.
    """
    if not traces:
        raise ConfigurationError("no traces given")
    if len(traces) == 2:
        raise ConfigurationError(
            "a two-trace map is ambiguous; supply one trace or at least 3")
    if len({t.carrier_omega for t in traces}) > 1:
        raise ConfigurationError("traces mix carrier frequencies")

    scale = icfg.fringe_amplitude / sum(icfg.split_ratio)
    envelopes = []
    for t in sorted(traces, key=lambda t: t.bs2_position_m):
        # extract_visibility refuses a trace of another configuration
        tau, vis = extract_visibility(t, icfg, window_fringes)
        envelopes.append((tau + t.bs2_position_m * icfg.shift_to_delay,
                          vis / scale, t.bs2_position_m * icfg.shift_to_xi))

    xi_axis = np.array([xi for _, _, xi in envelopes])
    dxi = np.diff(xi_axis)
    if np.any(dxi <= 0) or np.any(np.abs(dxi - dxi[:1]) > 0.01 * dxi[:1]):
        raise ConfigurationError(
            "BS2 positions must step uniformly for a uniform xi axis")

    lo = max(t[0][0] for t in envelopes)
    hi = min(t[0][-1] for t in envelopes)
    if hi <= lo:
        raise ConfigurationError("traces share no common delay range")
    step = float(np.median([t[0][1] - t[0][0] for t in envelopes]))
    # a range of a whole number of steps keeps its last row under rounding
    n = int(math.floor((hi - lo) / step + 1e-6)) + 1
    tau_axis = lo + np.arange(n) * step
    magnitude = np.column_stack(
        [np.interp(tau_axis, tau, mag) for tau, mag, _ in envelopes])
    return AssembledMap(tau_axis=tau_axis, xi_axis=xi_axis,
                        magnitude=magnitude,
                        provenance={"icfg_hash": icfg.config_hash(),
                                    "n_traces": len(envelopes),
                                    "window_fringes": window_fringes})
