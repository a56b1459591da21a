"""Emulator of the beam-splitter-scanning Mach-Zehnder measurement.

One retroreflector sets the time delay (double pass: 2/c per meter of
stage travel); translating the second beam splitter displaces one beam,
which shows up as a transverse shift xi in the crystal near-field plane
and, inseparably, as an extra time delay. The split ratios and the
magnification are the only settable parameters; the kinematics follow
from them, so a trace records only its BS2 position and analysis derives
the rest. Fringe traces are synthesized from g1's real column along tau
at their xi, each sweep centred where the BS2 delay is compensated, their
visibility envelopes extracted by a least-squares fit per window
window_fringes long (J. E. Greivenkamp, Opt. Eng. 23, 350 (1984); a window
of fitted level a <= 0 is dark), and any number of traces but two
reassembled into |g1|(tau, xi) by one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import CoherenceColumn
from .dispersion import c
from .errors import ConfigurationError, MapExtentError, SamplingError, blamed, \
    finite
from .hashing import config_digest
from .spectrum import Folded, increasing


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
        with blamed("split_ratio", TypeError, ValueError):
            r1, r2 = self.split_ratio
        r1, r2 = finite("split ratio", r1), finite("split ratio", r2)
        if not (0 < r1 < 1 and 0 < r2 < 1 and abs(r1 + r2 - 1) < 1e-9):
            raise ConfigurationError(
                f"split ratios must lie in (0,1) and sum to 1, got {self.split_ratio}")
        finite("magnification", self.magnification, positive=True)

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


@dataclass(eq=False)
class FringeTrace:
    """Detector intensity versus delay-stage position at one BS2 setting.

    The BS2 position and the carrier are finite numbers, the carrier
    positive; the orientation and icfg_hash are text. Traces compare by
    identity, as Folded products do."""

    positions_m: np.ndarray
    intensities: np.ndarray
    bs2_position_m: float
    carrier_omega: float
    orientation: str = ""
    icfg_hash: str = ""

    def __post_init__(self):
        finite("bs2_position_m", self.bs2_position_m)
        finite("carrier_omega", self.carrier_omega, positive=True)
        for name in ("orientation", "icfg_hash"):
            if not isinstance(getattr(self, name), str):
                raise ConfigurationError(f"{name} must be text, got {getattr(self, name)!r}")
        for name in ("positions_m", "intensities"):
            with blamed(name, TypeError, ValueError):
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.positions_m.size < 2:
            raise ConfigurationError("stage positions must be two or more")
        if self.intensities.shape != self.positions_m.shape:
            raise ConfigurationError(
                "positions and intensities must be one-dimensional, of one length; "
                f"got shapes {self.positions_m.shape} and {self.intensities.shape}")
        self.positions_m = increasing("FringeTrace positions_m", self.positions_m)
        if not np.all(np.isfinite(self.intensities) & (self.intensities >= 0)):
            raise ConfigurationError("detector intensities must be finite and nonnegative")


def fringe_period_path_m(carrier_omega):
    """Optical path difference per fringe: the carrier wavelength."""
    return 2.0 * math.pi * c / carrier_omega


def fringe_period_stage_m(carrier_omega):
    """Stage travel per fringe; the double pass halves the path period."""
    return math.pi * c / carrier_omega


def _uniform(start, step, n):
    """start + j * step, j < n, with a step that start + step holds exactly:
    a file's start/step/count axis rebuilds it bit for bit."""
    return start + np.arange(n) * ((start + step) - start)


def synthesize_trace(column, icfg, bs2_position_m=0.0, stage_span_m=None,
                     orientation=""):
    """Sample a fringe trace along a delay-stage sweep.

    column is g1's CoherenceColumn at the trace's xi, bs2_position_m *
    icfg.shift_to_xi, linear between its tau nodes, which the sweep must
    not pass (MapExtentError, from its two ends before it is sampled, so a
    sweep of any length is refused at once); the detector reads (r1 + r2)
    + 2 sqrt(r1 r2) g(tau) cos(omega_c tau). The sweep is centred where the
    stage compensates the BS2-induced delay, as an operator re-finding the
    fringe packet would, and must cover at least 3 fringes (default 4),
    sampled 20 times per fringe. The sweep is a _uniform axis, so a trace
    file rebuilds it bit for bit. The BS2 delay enters the synthesized
    signal; analysis derives it from the recorded BS2 position to realign
    the trace. Anything but a CoherenceColumn raises ConfigurationError, as
    do a BS2 position that is not a finite number and a stage span that is
    not a positive one.
    """
    if not isinstance(column, CoherenceColumn):
        raise ConfigurationError(
            f"synthesize_trace takes a CoherenceColumn, got {type(column).__name__}; "
            "coherence.correlation_columns(sg) gives g1's column at any xi")
    finite("bs2_position_m", bs2_position_m)
    period = fringe_period_stage_m(column.carrier_omega)
    stage_span_m = 4.0 * period if stage_span_m is None else finite(
        "stage_span_m", stage_span_m, positive=True)
    fringes = stage_span_m / period
    if fringes < 3.0:
        raise SamplingError(
            f"sweep spans {fringes:.2f} fringes; cover at least 3")
    center = -bs2_position_m * icfg.shift_to_delay / icfg.stage_to_delay
    start = center - 0.5 * stage_span_m
    # the delays at the sweep's ends; its last sample's lies within rounding
    # of the second
    ends = [(start + span) * icfg.stage_to_delay
            + bs2_position_m * icfg.shift_to_delay for span in (0.0, stage_span_m)]
    if not column.tau_axis[0] <= ends[0] <= ends[1] <= column.tau_axis[-1]:
        raise MapExtentError(f"sweep delays {ends[0]:.4g} to {ends[1]:.4g} s pass "
                             f"the map's tau axis, +-{column.tau_axis[-1]:.4g} s")
    # a sweep of whole fringes is whole only up to the carrier's last bits
    samples = 20.0 * fringes
    if abs(samples - round(samples)) < 1e-9:
        samples = round(samples)
    n_samples = int(math.ceil(samples)) + 1
    positions = _uniform(start, stage_span_m / (n_samples - 1), n_samples)
    tau = positions * icfg.stage_to_delay + bs2_position_m * icfg.shift_to_delay
    intensities = sum(icfg.split_ratio) + icfg.fringe_amplitude * np.interp(
        tau, column.tau_axis, column.g) * np.cos(column.carrier_omega * tau)
    return FringeTrace(positions_m=positions, intensities=intensities,
                       bs2_position_m=bs2_position_m,
                       carrier_omega=column.carrier_omega,
                       orientation=orientation, icfg_hash=icfg.config_hash())


def trace_check(traces, icfg):
    """check(trace): ConfigurationError for a trace of traces whose icfg_hash
    (if any) is not icfg's, whose carrier or orientation is not the first's,
    or whose BS2 step from the next below is not the two least's, to 1%."""
    expected, ordered = icfg.config_hash(), sorted(traces, key=lambda t: t.bs2_position_m)
    below = dict(zip(ordered[1:], ordered))
    step = ordered[1].bs2_position_m - ordered[0].bs2_position_m if below else 0.0

    def check(trace):
        first = traces[0]
        if trace.icfg_hash and trace.icfg_hash != expected:
            raise ConfigurationError(
                "trace was recorded under a different interferometer configuration"
                f" (icfg_hash {trace.icfg_hash}, expected {expected})")
        # a trace matches itself even when its carrier is NaN
        if trace is not first and trace.carrier_omega != first.carrier_omega:
            raise ConfigurationError(f"traces mix carrier frequencies {trace.carrier_omega!r} "
                                     f"and {first.carrier_omega!r} rad/s")
        if trace.orientation != first.orientation:
            raise ConfigurationError(
                f"traces mix orientations {trace.orientation!r} and {first.orientation!r}")
        if trace in below:
            rise = trace.bs2_position_m - below[trace].bs2_position_m
            if not (rise > 0 and abs(rise - step) <= 0.01 * step):
                raise ConfigurationError(f"BS2 step {rise * 1e6:g} um, not {step * 1e6:g} "
                                         "um: BS2 positions must step uniformly")

    return check


def extract_visibility(trace, icfg, window_fringes=1.0):
    """Sliding-window fringe visibility along a trace.

    Each window, window_fringes long, is fitted by least squares with
    I = a + b cos(phi) + c sin(phi), phi the carrier phase of the stage
    position (J. E. Greivenkamp, Opt. Eng. 23, 350 (1984)), and yields
    hypot(b, c) / a at its center. Returns (tau_s, visibility) with tau
    from the stage positions alone; the BS2 delay is deliberately not
    applied here (assemble_map undoes it). A window whose fitted a is <= 0
    is dark and refused: it has no visibility.
    """
    trace_check([trace], icfg)(trace)
    steps = np.diff(trace.positions_m)
    step = steps.mean()
    if np.max(np.abs(steps - step)) > 0.01 * step:
        raise SamplingError(
            "stage sampling varies by more than 1%; resample the trace first")
    period = fringe_period_stage_m(trace.carrier_omega)
    per_fringe = period / step
    if not per_fringe >= 8.0:
        raise SamplingError(
            f"{per_fringe:.1f} samples per fringe; at least 8 are needed")
    if not finite("window_fringes", window_fringes) >= 1.0:
        raise ConfigurationError("window must cover at least one fringe")
    w = int(round(window_fringes * per_fringe)) + 1
    n = trace.positions_m.size
    if w > n:
        raise SamplingError(f"window of window_fringes {window_fringes:g} ({w} "
                            f"samples) is longer than the trace ({n} samples)")

    phase = (2.0 * math.pi / period) * (trace.positions_m - trace.positions_m[0])
    cos, sin, y = np.cos(phase), np.sin(phase), trace.intensities
    # each window's sums of the normal equations, from running sums
    run = np.zeros((8, n + 1))
    np.cumsum([cos, sin, cos * cos, cos * sin, sin * sin, y, y * cos, y * sin],
              axis=1, out=run[:, 1:])
    c1, s1, cc, cs, ss, y1, yc, ys = run[:, w:] - run[:, :n - w + 1]
    # Cramer's rule, by the adjugate of [[w, c1, s1], [c1, cc, cs],
    # [s1, cs, ss]]; its determinant is positive and cancels from the ratio
    m00, m01, m02 = cc * ss - cs * cs, cs * s1 - c1 * ss, c1 * cs - cc * s1
    m11, m12, m22 = w * ss - s1 * s1, c1 * s1 - w * cs, w * cc - c1 * c1
    a = m00 * y1 + m01 * yc + m02 * ys
    dark = np.count_nonzero(a <= 0)
    if dark:
        raise SamplingError(
            f"trace {trace.orientation} at BS2 {trace.bs2_position_m * 1e6:g} um: "
            f"{dark} windows are dark throughout; their visibility is undefined")
    vis = np.hypot(m01 * y1 + m11 * yc + m12 * ys,
                   m02 * y1 + m12 * yc + m22 * ys) / a
    taus = 0.5 * (trace.positions_m[:n - w + 1] + trace.positions_m[w - 1:]) \
        * icfg.stage_to_delay
    return taus, vis


@dataclass(eq=False)
class AssembledMap(Folded):
    """|g1| reconstruction on a uniform (tau, xi) grid; rows run along tau.
    No symmetry folds it: its domain is the whole map, and its files
    declare no fold."""

    symmetry = staticmethod(lambda values: (values, ()))
    fold = None
    axes = ("tau_axis", "xi_axis")

    tau_axis: np.ndarray
    xi_axis: np.ndarray


def assemble_map(traces, icfg, window_fringes=1.0):
    """Rebuild |g1|(tau, xi) from traces taken at stepped BS2 positions.

    Per-trace envelopes are divided by the split-ratio visibility ceiling,
    shifted by the delay their BS2 position adds, and linearly resampled
    onto the common tau range, one row per window step; xi comes from the
    BS2 kinematics. Both axes are _uniform, so a file of the map rebuilds
    them bit for bit. One trace goes the same way and gives a one-column
    map; two are refused as ambiguous, and so is a trace trace_check refuses.
    """
    if not traces:
        raise ConfigurationError("no traces given")
    if len(traces) == 2:
        raise ConfigurationError(
            "a two-trace map is ambiguous; supply one trace or at least 3")
    check = trace_check(traces, icfg)
    for t in traces:
        check(t)

    scale = icfg.fringe_amplitude / sum(icfg.split_ratio)
    envelopes = []
    for t in sorted(traces, key=lambda t: t.bs2_position_m):
        tau, vis = extract_visibility(t, icfg, window_fringes)
        envelopes.append((tau + t.bs2_position_m * icfg.shift_to_delay,
                          vis / scale, t.bs2_position_m * icfg.shift_to_xi))

    xi = np.array([xi for _, _, xi in envelopes])
    dxi = np.diff(xi)
    xi_axis = _uniform(xi[0], dxi.mean() if dxi.size else 0.0, xi.size)

    lo = max(t[0][0] for t in envelopes)
    hi = min(t[0][-1] for t in envelopes)
    if hi <= lo:
        raise ConfigurationError("traces share no common delay range")
    # the median step; np.median would import numpy.ma, about 18 ms
    steps = sorted(t[0][1] - t[0][0] for t in envelopes)
    mid = len(steps) // 2
    step = float((steps[~mid] + steps[mid]) / 2)
    # a range of a whole number of steps keeps its last row under rounding
    n = int(math.floor((hi - lo) / step + 1e-6)) + 1
    tau_axis = _uniform(lo, step, n)
    magnitude = np.column_stack(
        [np.interp(tau_axis, tau, mag) for tau, mag, _ in envelopes])
    return AssembledMap(tau_axis=tau_axis, xi_axis=xi_axis, domain=magnitude,
                        provenance={"icfg_hash": icfg.config_hash(),
                                    "n_traces": len(envelopes),
                                    "window_fringes": window_fringes})
