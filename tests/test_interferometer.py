import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c

from pdcoh import (
    ConfigurationError,
    CrystalConfig,
    MapExtentError,
    SamplingError,
    auto_grid,
    build_spectrum,
    load_sellmeier,
)
from pdcoh.coherence import CoherenceColumn, CoherenceMap, _fwhm, \
    correlation_columns, correlation_map, instrument_blur, metrics
from pdcoh.config import parse_length
from pdcoh.interferometer import (
    AssembledMap,
    FringeTrace,
    InterferometerConfig,
    assemble_map,
    extract_visibility,
    fringe_period_path_m,
    fringe_period_stage_m,
    synthesize_trace,
)

OMEGA_DEG = 2.0 * math.pi * c / 1600e-9

SIG_TAU = 3e-14
SIG_XI = 5e-5


@pytest.fixture(scope="module")
def icfg():
    return InterferometerConfig()


@pytest.fixture(scope="module")
def flat():
    # unit-magnitude envelope at every xi: pure carrier fringes
    tau = (np.arange(4097) - 2048) * 2e-16
    return CoherenceColumn(tau, np.ones(tau.size), carrier_omega=OMEGA_DEG)


@pytest.fixture(scope="module")
def gauss():
    """The column at xi of a Gaussian envelope, SIG_TAU by SIG_XI."""
    tau = (np.arange(513) - 256) * 1e-15
    return lambda xi: CoherenceColumn(
        tau, np.exp(-0.5 * (tau / SIG_TAU) ** 2 - 0.5 * (xi / SIG_XI) ** 2),
        carrier_omega=1.2e15)


@pytest.fixture(scope="module")
def sg94():
    sell = load_sellmeier("bbo_kato1986")
    cfg = CrystalConfig(length_m=0.01, theta_rad=math.radians(19.94),
                        pump_wavelength_m=800e-9, gain=6.0, sellmeier=sell)
    return build_spectrum(cfg, auto_grid(cfg))


@pytest.fixture(scope="module")
def map94(sg94):
    return correlation_map(sg94)


@pytest.fixture(scope="module")
def columns94(sg94):
    return correlation_columns(sg94)


def _centered_sweep(column, icfg, bs2, tau_span_s, **kw):
    # a sweep covering tau_span_s of delay
    return synthesize_trace(column, icfg, bs2_position_m=bs2,
                            stage_span_m=tau_span_s / icfg.stage_to_delay, **kw)


def _fwhm_midpoint(x, y):
    half = 0.5 * y.max()
    above = y >= half
    i_lo = int(np.argmax(above))
    i_hi = y.size - 1 - int(np.argmax(above[::-1]))
    x_lo = np.interp(half, [y[i_lo - 1], y[i_lo]], [x[i_lo - 1], x[i_lo]])
    x_hi = np.interp(half, [y[i_hi + 1], y[i_hi]], [x[i_hi + 1], x[i_hi]])
    return 0.5 * (x_lo + x_hi)


def test_config_defaults_follow_kinematics():
    icfg = InterferometerConfig()
    assert icfg.split_ratio == (0.5, 0.5)
    assert icfg.shift_to_xi == pytest.approx(1.0 / 6.6, rel=1e-12, abs=0)
    assert icfg.shift_to_delay == pytest.approx(1.0 / c, rel=1e-12, abs=0)
    assert icfg.stage_to_delay == pytest.approx(2.0 / c, rel=1e-12, abs=0)
    assert icfg.fringe_amplitude == 1.0


def test_config_rejects_bad_parameters():
    with pytest.raises(ConfigurationError, match="sum to 1"):
        InterferometerConfig(split_ratio=(0.6, 0.6))
    with pytest.raises(ConfigurationError):
        InterferometerConfig(split_ratio=(0.0, 1.0))
    with pytest.raises(ConfigurationError, match="magnification"):
        InterferometerConfig(magnification=-2.0)


@pytest.mark.parametrize("field, value", [
    ("magnification", math.nan), ("magnification", math.inf)])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigurationError, match=f"{field}.*finite"):
        InterferometerConfig(**{field: value})


def test_config_hash_tracks_fields():
    a = InterferometerConfig()
    b = InterferometerConfig()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != InterferometerConfig(
        split_ratio=(0.7, 0.3)).config_hash()
    assert a.config_hash() != InterferometerConfig(
        magnification=5.0).config_hash()


def test_fringe_periods_at_the_degenerate_carrier():
    # double-pass stage geometry: one fringe per half carrier wavelength
    assert fringe_period_path_m(OMEGA_DEG) == pytest.approx(1600e-9, rel=1e-12, abs=0)
    assert fringe_period_stage_m(OMEGA_DEG) == pytest.approx(800e-9, rel=1e-12, abs=0)
    assert fringe_period_path_m(OMEGA_DEG) == 2 * fringe_period_stage_m(OMEGA_DEG)


def test_detector_signal_levels(flat, gauss, icfg):
    # the level at zero delay, the centre of a sweep at BS2 0
    trace = synthesize_trace(flat, icfg)
    assert trace.intensities[np.argmin(np.abs(trace.positions_m))] == 2.0
    unbalanced = InterferometerConfig(split_ratio=(0.7, 0.3))
    trace = synthesize_trace(flat, unbalanced)
    assert trace.intensities[np.argmin(np.abs(trace.positions_m))] == pytest.approx(
        1.0 + 2.0 * math.sqrt(0.21), rel=1e-12, abs=0)
    # incoherent level once the envelope has died off (5 sigma)
    trace = _centered_sweep(gauss(0.0), icfg, 0.0, 400e-15)
    tau = trace.positions_m * icfg.stage_to_delay
    assert np.max(np.abs(trace.intensities[np.abs(tau) >= 1.5e-13] - 1.0)) < 1e-4
    # a sweep past the column's +-256 fs
    with pytest.raises(MapExtentError, match="pass the map's tau axis"):
        _centered_sweep(gauss(0.0), icfg, 0.0, 520e-15)


def test_flat_trace_fringes_at_the_stage_period(flat, icfg):
    period = fringe_period_stage_m(OMEGA_DEG)
    trace = synthesize_trace(flat, icfg, stage_span_m=8 * period)
    y, pos = trace.intensities, trace.positions_m
    step = pos[1] - pos[0]
    crests = []
    for i in range(1, y.size - 1):
        if y[i] > y[i - 1] and y[i] >= y[i + 1]:
            denom = y[i - 1] - 2 * y[i] + y[i + 1]
            crests.append(pos[i] + 0.5 * (y[i - 1] - y[i + 1]) / denom * step)
    gaps = np.diff(crests)
    assert gaps.size >= 6
    assert np.max(np.abs(gaps - period)) < 1e-6 * period


@pytest.mark.parametrize("pump", ["800 nm", "800e-9 m"])
def test_whole_fringe_sweep_count_ignores_carrier_rounding(flat, icfg, pump):
    # 48 um of stage is 60 fringes up to the carrier's last bits: "800 nm"
    # parses to 8.000000000000001e-07 m (59.999999999999986 fringes), 800e-9
    # m gives 60.00000000000001; both are 1,201 samples
    pump_m = parse_length(pump)
    cfg = CrystalConfig(length_m=0.01, theta_rad=math.radians(19.94),
                        pump_wavelength_m=pump_m, gain=6.0,
                        sellmeier=load_sellmeier("bbo_kato1986"))
    column = CoherenceColumn(flat.tau_axis, flat.g, carrier_omega=cfg.degenerate_omega)
    trace = synthesize_trace(column, icfg, stage_span_m=48e-6)
    assert trace.positions_m.size == 1201


def test_flat_trace_visibility_is_unity_everywhere(flat, icfg):
    trace = synthesize_trace(flat, icfg)
    taus, vis = extract_visibility(trace, icfg)
    assert taus.size == trace.positions_m.size - 21 + 1
    assert np.max(np.abs(vis - 1.0)) < 1e-9
    # symmetric sweep: one window is centered exactly at zero delay
    assert np.min(np.abs(taus)) < 1e-24


def test_split_ratio_caps_the_visibility(flat):
    unbalanced = InterferometerConfig(split_ratio=(0.7, 0.3))
    trace = synthesize_trace(flat, unbalanced)
    taus, vis = extract_visibility(trace, unbalanced)
    v0 = vis[np.argmin(np.abs(taus))]
    assert v0 == pytest.approx(2.0 * math.sqrt(0.21), rel=1e-9)
    assert v0 == pytest.approx(unbalanced.fringe_amplitude, rel=1e-9)


def test_trace_rejects_malformed_data():
    pos = np.linspace(0.0, 1e-6, 50)
    good = 1.0 + np.cos(1e7 * pos)
    with pytest.raises(ConfigurationError, match="length"):
        FringeTrace(pos, good[:-1], 0.0, OMEGA_DEG)
    with pytest.raises(ConfigurationError, match="increase"):
        FringeTrace(pos[::-1], good, 0.0, OMEGA_DEG)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        FringeTrace(pos, good - 2.0, 0.0, OMEGA_DEG)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            FringeTrace(pos, np.where(pos == pos[7], bad, good), 0.0, OMEGA_DEG)
    with pytest.raises(ConfigurationError, match="finite"):
        FringeTrace(np.where(pos == pos[7], np.nan, pos), good, 0.0, OMEGA_DEG)
    # a (1, n) intensity row, or positions in two rows, hold n values each
    # but are no sweep of one intensity per position
    with pytest.raises(ConfigurationError, match=r"got shapes \(50,\) and \(1, 50\)$"):
        FringeTrace(pos, good[None, :], 0.0, OMEGA_DEG)
    with pytest.raises(ConfigurationError, match=r"got shapes \(2, 25\) and \(50,\)$"):
        FringeTrace(pos.reshape(2, 25), good, 0.0, OMEGA_DEG)


def test_sweep_preconditions(flat, icfg):
    period = fringe_period_stage_m(OMEGA_DEG)
    with pytest.raises(SamplingError, match="at least 3"):
        synthesize_trace(flat, icfg, stage_span_m=2 * period)


def test_extraction_preconditions(flat, icfg):
    trace = synthesize_trace(flat, icfg)
    # a NaN or infinite window has no length, a NaN carrier gives NaN
    # samples per fringe: each is refused before int(round(...)); a trace
    # refuses a NaN carrier itself, so only one altered after it was made
    # reaches extract_visibility
    for window, words in ((0.5, "^window must cover at least one fringe$"),
                          (math.nan, "^window_fringes must be a finite number, got nan$"),
                          (math.inf, "^window_fringes must be a finite number, got inf$")):
        with pytest.raises(ConfigurationError, match=words):
            extract_visibility(trace, icfg, window_fringes=window)
        with pytest.raises(ConfigurationError, match=words):
            assemble_map([trace], icfg, window_fringes=window)
    with pytest.raises(ConfigurationError, match="^carrier_omega must be a finite number, got nan$"):
        dataclasses.replace(trace, carrier_omega=math.nan)
    altered = dataclasses.replace(trace)
    altered.carrier_omega = math.nan
    with pytest.raises(SamplingError, match="^nan samples per fringe; at least 8"):
        extract_visibility(altered, icfg)
    with pytest.raises(SamplingError, match="longer than the trace"):
        extract_visibility(trace, icfg, window_fringes=5.0)
    other = InterferometerConfig(split_ratio=(0.7, 0.3))
    with pytest.raises(ConfigurationError, match="different interferometer"):
        extract_visibility(trace, other)

    period = fringe_period_stage_m(OMEGA_DEG)
    pos = np.arange(100) * period / 20.0
    pos[50:] += 0.3 * period / 20.0
    jittered = FringeTrace(pos, 1.0 + np.cos(2 * math.pi * pos / period),
                           0.0, OMEGA_DEG)
    with pytest.raises(SamplingError, match="resample"):
        extract_visibility(jittered, icfg)

    coarse_pos = np.arange(30) * period / 6.0
    coarse = FringeTrace(coarse_pos,
                         1.0 + np.cos(2 * math.pi * coarse_pos / period),
                         0.0, OMEGA_DEG)
    with pytest.raises(SamplingError, match="at least 8"):
        extract_visibility(coarse, icfg)


def test_dark_window_is_refused_naming_the_trace(icfg):
    # 30 dark samples hold 10 whole one-fringe windows (21 samples each)
    period = fringe_period_stage_m(OMEGA_DEG)
    pos = np.arange(400) * period / 20.0
    intensities = 1.0 + np.cos(2 * math.pi * pos / period)
    intensities[201:231] = 0.0
    trace = FringeTrace(pos, intensities, 40e-6, OMEGA_DEG,
                        orientation="19p94")
    with pytest.raises(SamplingError, match=r"19p94 at BS2 40 um: 10 windows "
                                            "are dark throughout"):
        extract_visibility(trace, icfg)


def _visibility_per_window(trace, icfg, window_fringes):
    """One least-squares fit at a time, as the paper slides its one-fringe
    window, with the phase counted from the window's first sample."""
    step = np.diff(trace.positions_m).mean()
    period = fringe_period_stage_m(trace.carrier_omega)
    w = int(round(window_fringes * period / step)) + 1
    n = trace.positions_m.size
    taus, vis = np.empty(n - w + 1), np.empty(n - w + 1)
    for i in range(n - w + 1):
        x = trace.positions_m[i:i + w]
        phase = 2 * math.pi * (x - x[0]) / period
        basis = np.column_stack([np.ones(w), np.cos(phase), np.sin(phase)])
        (a, b, c), *_ = np.linalg.lstsq(basis, trace.intensities[i:i + w],
                                        rcond=None)
        vis[i] = math.hypot(b, c) / a
        taus[i] = 0.5 * (x[0] + x[-1]) * icfg.stage_to_delay
    return taus, vis


@st.composite
def _traces(draw):
    """Uniformly stepped traces: smooth fringes, few-level plateaus whose
    samples tie, two adjacent floats whose fitted fringe is rounding noise,
    monotone runs and uniform noise."""
    per_fringe = draw(st.floats(8.5, 24.0))
    n = draw(st.integers(int(3 * per_fringe) + 2, int(3 * per_fringe) + 60))
    kind = draw(st.sampled_from(["fringes", "plateaus", "ulps", "monotone", "noise"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.arange(n) / per_fringe
    if kind == "fringes":
        y = 1.0 + rng.uniform(0.0, 0.99) * np.cos(2 * math.pi * x + rng.uniform(0, 6))
    elif kind == "plateaus":
        y = rng.integers(1, 4, n).astype(float)
    elif kind == "ulps":
        y = rng.choice([np.nextafter(1.0, 0.0), 1.0], n)
    elif kind == "monotone":
        y = np.sort(rng.uniform(0.1, 2.0, n))[::draw(st.sampled_from([1, -1]))].copy()
    else:
        y = rng.uniform(0.01, 2.0, n)
    period = fringe_period_stage_m(OMEGA_DEG)
    positions = draw(st.floats(-1e-5, 1e-5)) + x * period
    return FringeTrace(positions, y, 0.0, OMEGA_DEG)


@settings(max_examples=200, deadline=None)
@given(_traces(), st.sampled_from([1.0, 1.5, 3.0]))
def test_visibility_equals_the_per_window_least_squares_fit(trace, window_fringes):
    icfg = InterferometerConfig()
    taus, vis = extract_visibility(trace, icfg, window_fringes)
    ref_taus, ref_vis = _visibility_per_window(trace, icfg, window_fringes)
    assert taus.tobytes() == ref_taus.tobytes()
    # running sums against one solve per window: 4.8e-15 at worst over
    # 1,500 draws
    assert np.max(np.abs(vis - ref_vis)) < 1e-13


@st.composite
def _fringes(draw, envelope):
    """(trace, V) of level (1 + V env cos(phi + phi0)) over any sweep start:
    env is 1, or a Gaussian 0.5 to 10 fringes wide."""
    period = fringe_period_stage_m(OMEGA_DEG)
    per_fringe = draw(st.floats(8.5, 24.0))
    n = draw(st.integers(int(3 * per_fringe) + 2, 1300))
    x = draw(st.floats(-2e-4, 2e-4)) + np.arange(n) * (period / per_fringe)
    level, vis = draw(st.floats(0.05, 20.0)), draw(st.floats(0.0, 1.0))
    env = 1.0
    if envelope:
        width = draw(st.floats(0.5, 10.0)) * period
        env = np.exp(-((x - x[n // 2]) / width) ** 2)
    phase = 2 * math.pi * x / period + draw(st.floats(0.0, 2 * math.pi))
    y = level * (1.0 + vis * env * np.cos(phase))
    return FringeTrace(x, y, 0.0, OMEGA_DEG), vis


@settings(max_examples=200, deadline=None)
@given(_fringes(envelope=False), st.floats(1.0, 3.0))
def test_constant_envelope_gives_its_visibility_in_every_window(fringes,
                                                               window_fringes):
    trace, visibility = fringes
    _, vis = extract_visibility(trace, InterferometerConfig(), window_fringes)
    assert np.max(np.abs(vis - visibility)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(_fringes(envelope=True), st.floats(1.0, 3.0), st.integers(0, 2**32 - 1))
def test_visibility_moves_by_the_order_of_a_perturbation(fringes, window_fringes,
                                                        seed):
    # each fitted coefficient is a fixed linear map of the window's samples,
    # so a relative change delta of the intensities moves V by O(delta),
    # however weak the fringe
    trace, _ = fringes
    icfg, delta = InterferometerConfig(), 1e-9
    _, vis = extract_visibility(trace, icfg, window_fringes)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, trace.intensities.size)
    moved = FringeTrace(trace.positions_m, trace.intensities * (1 + delta * noise),
                        0.0, OMEGA_DEG)
    _, moved_vis = extract_visibility(moved, icfg, window_fringes)
    assert np.max(np.abs(moved_vis - vis)) < 4 * delta


def test_envelope_tracks_the_map_cut(columns94, icfg):
    column = columns94(0.0)
    trace = _centered_sweep(column, icfg, 0.0, 120e-15)
    taus, vis = extract_visibility(trace, icfg)
    cut = np.abs(np.interp(taus, column.tau_axis, column.g))
    err = vis - cut
    # the one-fringe window's fit smooths the envelope over a fringe, low
    # where it bends down and high where it bends up; tails are clean
    assert math.sqrt(np.mean(err ** 2)) < 0.07
    assert np.max(np.abs(err[np.abs(taus) > 40e-15])) < 0.05
    assert 0.9 < vis.max() < 1.0


def test_central_visibility_reads_below_unity_on_a_real_map(columns94, icfg):
    # the envelope decays within one fringe window, so the window's fit
    # averages it below its peak even without instrument blur
    trace = synthesize_trace(columns94(0.0), icfg)
    taus, vis = extract_visibility(trace, icfg)
    v0 = vis[np.argmin(np.abs(taus))]
    assert v0 == pytest.approx(0.9620966349738181, rel=1e-3)
    assert v0 < 0.999


def test_blurred_central_visibility_stays_high(map94, icfg):
    # the blurred map's xi = 0 node column
    blurred = instrument_blur(map94, 1e-15, 6e-6)
    trace = synthesize_trace(CoherenceColumn(
        blurred.tau_axis, blurred.g[:, blurred.xi_axis.size // 2],
        blurred.carrier_omega), icfg)
    taus, vis = extract_visibility(trace, icfg)
    v0 = vis[np.argmin(np.abs(taus))]
    assert v0 == pytest.approx(0.9523331625175023, rel=1e-3)
    assert v0 >= 0.8


def test_gaussian_closed_loop_reconstruction(gauss, icfg):
    traces = [_centered_sweep(gauss(j * 40e-6 * icfg.shift_to_xi), icfg, j * 40e-6,
                              200e-15) for j in range(-5, 6)]
    amap = assemble_map(traces, icfg)
    assert amap.domain.shape == (amap.tau_axis.size, 11)
    assert np.allclose(amap.xi_axis, np.arange(-5, 6) * 40e-6 / 6.6, rtol=1e-12)
    ref = np.exp(-0.5 * (amap.tau_axis[:, None] / SIG_TAU) ** 2
                 - 0.5 * (amap.xi_axis[None, :] / SIG_XI) ** 2)
    err = amap.domain - ref
    assert math.sqrt(np.mean(err ** 2)) < 0.02
    assert np.max(np.abs(err)) < 0.07


def test_assembled_coherence_time_tracks_the_map(map94, columns94, icfg):
    # the example config's sweeps: 11 BS2 steps of 40 um, 48 um of stage,
    # each from S's exact column at its xi
    bs2 = (np.arange(11) - 5) * 40e-6
    traces = [synthesize_trace(columns94(b * icfg.shift_to_xi), icfg, bs2_position_m=b,
                               stage_span_m=48e-6) for b in bs2]
    amap = assemble_map(traces, icfg)
    jc = int(np.argmin(np.abs(amap.xi_axis)))
    tau_c = _fwhm(amap.tau_axis, amap.domain[:, jc])
    # the fit reads 16.95 fs against the map's 16.82 fs (+0.8 %)
    assert tau_c == pytest.approx(metrics(map94).tau_c, rel=0.02, abs=0)


def test_bs2_delay_offset_is_undone(icfg):
    # a map flat along xi: every BS2 setting sees the same envelope, so the
    # realigned peaks must coincide (peak position taken as the
    # half-maximum midpoint; the envelope top is plateau-flat)
    tau = (np.arange(513) - 256) * 1e-15
    flat_in_xi = CoherenceColumn(tau, np.exp(-0.5 * (tau / SIG_TAU) ** 2),
                                 carrier_omega=1.2e15)
    mids = []
    env_step = None
    for bs2 in (0.0, 200e-6, 400e-6):
        trace = _centered_sweep(flat_in_xi, icfg, bs2, 150e-15)
        taus, vis = extract_visibility(trace, icfg)
        # the delay this BS2 position adds: 1/c per meter of BS2 travel
        taus = taus + bs2 / c
        mids.append(_fwhm_midpoint(taus, vis))
        env_step = taus[1] - taus[0]
    assert max(mids) - min(mids) < 0.01 * env_step


def test_single_trace_assembles_to_one_column(flat):
    unbalanced = InterferometerConfig(split_ratio=(0.7, 0.3))
    trace = synthesize_trace(flat, unbalanced, bs2_position_m=40e-6)
    # the sweep is centred where the stage undoes the BS2 delay
    assert np.mean(trace.positions_m) == pytest.approx(-20e-6, rel=1e-9, abs=0)
    amap = assemble_map([trace], unbalanced)
    assert isinstance(amap, AssembledMap)
    assert amap.domain.shape == (amap.tau_axis.size, 1)
    assert amap.xi_axis == pytest.approx([40e-6 / 6.6], rel=1e-12, abs=0)
    # the split-ratio ceiling is divided out: flat envelope reads 1
    assert np.max(np.abs(amap.domain - 1.0)) < 1e-9


def test_assembly_rejects_inconsistent_inputs(flat, icfg):
    with pytest.raises(ConfigurationError, match="no traces"):
        assemble_map([], icfg)
    t0 = _centered_sweep(flat, icfg, 0.0, 30e-15)
    t1 = _centered_sweep(flat, icfg, 40e-6, 30e-15)
    t2 = _centered_sweep(flat, icfg, 80e-6, 30e-15)
    with pytest.raises(ConfigurationError, match="ambiguous"):
        assemble_map([t0, t1], icfg)

    other = InterferometerConfig(split_ratio=(0.7, 0.3))
    t_other = _centered_sweep(flat, other, 80e-6, 30e-15)
    # a mix of configurations holds a trace foreign to the analyzing one
    with pytest.raises(ConfigurationError, match="different interferometer"):
        assemble_map([t0, t1, t_other], icfg)
    # one foreign configuration, e.g. traces written under an old hash
    with pytest.raises(ConfigurationError, match="different interferometer"):
        assemble_map([t_other], icfg)

    detuned = CoherenceColumn(flat.tau_axis, flat.g, carrier_omega=1.01 * OMEGA_DEG)
    t_detuned = _centered_sweep(detuned, icfg, 80e-6, 30e-15)
    with pytest.raises(ConfigurationError, match="carrier"):
        assemble_map([t0, t1, t_detuned], icfg)

    t_skew = _centered_sweep(flat, icfg, 100e-6, 30e-15)
    with pytest.raises(ConfigurationError, match="uniform"):
        assemble_map([t0, t1, t_skew], icfg)

    # a sweep whose delays all lie past the others' ends
    t_far = dataclasses.replace(t2, positions_m=t2.positions_m + 100e-6)
    with pytest.raises(ConfigurationError, match="traces share no common delay range"):
        assemble_map([t0, t1, t_far], icfg)


def test_assembly_refuses_traces_of_two_orientations(flat, icfg):
    # every orientation has the same degenerate carrier, so only the tags
    # tell two orientations' traces apart
    traces = [_centered_sweep(flat, icfg, bs2, 30e-15, orientation=tag)
              for bs2, tag in ((0.0, "19p94"), (40e-6, "19p94"), (80e-6, "19p90"))]
    with pytest.raises(ConfigurationError,
                       match="traces mix orientations '19p90' and '19p94'"):
        assemble_map(traces, icfg)
    for trace in traces:
        trace.orientation = "19p94"
    assert assemble_map(traces, icfg).domain.shape[1] == 3


def test_trace_records_offsets_and_hash(gauss, icfg):
    trace = _centered_sweep(gauss(200e-6 * icfg.shift_to_xi), icfg, 200e-6, 100e-15,
                            orientation="19.94deg")
    assert trace.bs2_position_m == 200e-6
    assert trace.icfg_hash == icfg.config_hash()
    assert trace.orientation == "19.94deg"
    assert trace.carrier_omega == 1.2e15


def test_synthesize_trace_takes_only_a_column(flat, icfg):
    # a map, as callers passed before traces came from columns, or its array
    cmap = CoherenceMap(flat.tau_axis, np.zeros(1), flat.carrier_omega, 1.0,
                        domain=flat.g[flat.g.size // 2:, None])
    for given_ in (cmap, flat.g):
        with pytest.raises(ConfigurationError, match=(
                rf"^synthesize_trace takes a CoherenceColumn, got "
                rf"{type(given_).__name__}; coherence\.correlation_columns\(sg\)")):
            synthesize_trace(given_, icfg)


@pytest.mark.parametrize("span_m", [1.0, 1e294, 1e308])
def test_a_sweep_past_the_column_is_refused_before_it_is_sampled(flat, icfg, span_m):
    # 1 m of stage travel is 25 M samples, 200 MB of positions; the
    # refusal comes from the sweep's two ends, before any array is made
    tracemalloc.start()
    try:
        with pytest.raises(MapExtentError, match="pass the map's tau axis"):
            synthesize_trace(flat, icfg, stage_span_m=span_m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
