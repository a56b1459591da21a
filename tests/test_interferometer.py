import math

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
from pdcoh.coherence import CoherenceMap, correlation_map, instrument_blur
from pdcoh.config import parse_length
from pdcoh.interferometer import (
    AssembledMap,
    FringeTrace,
    InterferometerConfig,
    assemble_map,
    detector_signal,
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
def flat_map():
    # unit-magnitude envelope everywhere: pure carrier fringes
    tau = (np.arange(4097) - 2048) * 2e-16
    xi = (np.arange(17) - 8) * 2e-6
    g = np.ones((tau.size, xi.size), dtype=complex)
    return CoherenceMap(tau, xi, g, carrier_omega=OMEGA_DEG, intensity=1.0,
                        provenance={})


@pytest.fixture(scope="module")
def gauss_map():
    tau = (np.arange(513) - 256) * 1e-15
    xi = (np.arange(257) - 128) * 2e-6
    g = np.exp(-0.5 * (tau[:, None] / SIG_TAU) ** 2
               - 0.5 * (xi[None, :] / SIG_XI) ** 2).astype(complex)
    return CoherenceMap(tau, xi, g, carrier_omega=1.2e15, intensity=1.0,
                        provenance={})


@pytest.fixture(scope="module")
def map94():
    sell = load_sellmeier("bbo_kato1986")
    cfg = CrystalConfig(length_m=0.01, theta_rad=math.radians(19.94),
                        pump_wavelength_m=800e-9, gain=6.0, sellmeier=sell)
    return correlation_map(build_spectrum(cfg, auto_grid(cfg)))


def _centered_sweep(cmap, icfg, bs2, tau_span_s, **kw):
    # a sweep covering tau_span_s of delay
    return synthesize_trace(cmap, icfg, bs2_position_m=bs2,
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
    assert icfg.shift_to_xi == pytest.approx(1.0 / 6.6, rel=1e-12)
    assert icfg.shift_to_delay == pytest.approx(1.0 / c, rel=1e-12)
    assert icfg.stage_to_delay == pytest.approx(2.0 / c, rel=1e-12)
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
    assert fringe_period_path_m(OMEGA_DEG) == pytest.approx(1600e-9, rel=1e-12)
    assert fringe_period_stage_m(OMEGA_DEG) == pytest.approx(800e-9, rel=1e-12)
    assert fringe_period_path_m(OMEGA_DEG) == 2 * fringe_period_stage_m(OMEGA_DEG)


def test_detector_signal_levels(flat_map, gauss_map, icfg):
    assert detector_signal(flat_map, 0.0, 0.0, icfg) == 2.0
    unbalanced = InterferometerConfig(split_ratio=(0.7, 0.3))
    assert detector_signal(flat_map, 0.0, 0.0, unbalanced) == pytest.approx(
        1.0 + 2.0 * math.sqrt(0.21), rel=1e-12)
    # incoherent level once the envelope has died off (5 sigma)
    assert detector_signal(gauss_map, 1.5e-13, 0.0, icfg) == pytest.approx(
        1.0, abs=1e-4)
    with pytest.raises(MapExtentError):
        detector_signal(gauss_map, 1.0, 0.0, icfg)


def test_flat_trace_fringes_at_the_stage_period(flat_map, icfg):
    period = fringe_period_stage_m(OMEGA_DEG)
    trace = synthesize_trace(flat_map, icfg, stage_span_m=8 * period)
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
def test_whole_fringe_sweep_count_ignores_carrier_rounding(flat_map, icfg, pump):
    # 48 um of stage is 60 fringes up to the carrier's last bits: "800 nm"
    # parses to 8.000000000000001e-07 m (59.999999999999986 fringes), 800e-9
    # m gives 60.00000000000001; both are 1,201 samples
    pump_m = parse_length(pump)
    cfg = CrystalConfig(length_m=0.01, theta_rad=math.radians(19.94),
                        pump_wavelength_m=pump_m, gain=6.0,
                        sellmeier=load_sellmeier("bbo_kato1986"))
    cmap = CoherenceMap(flat_map.tau_axis, flat_map.xi_axis, flat_map.g,
                        carrier_omega=cfg.degenerate_omega, intensity=1.0,
                        provenance={})
    trace = synthesize_trace(cmap, icfg, stage_span_m=48e-6)
    assert trace.positions_m.size == 1201


def test_flat_trace_visibility_is_unity_everywhere(flat_map, icfg):
    trace = synthesize_trace(flat_map, icfg)
    taus, vis = extract_visibility(trace, icfg)
    assert taus.size == trace.positions_m.size - 21 + 1
    assert np.max(np.abs(vis - 1.0)) < 1e-9
    # symmetric sweep: one window is centered exactly at zero delay
    assert np.min(np.abs(taus)) < 1e-24


def test_split_ratio_caps_the_visibility(flat_map):
    unbalanced = InterferometerConfig(split_ratio=(0.7, 0.3))
    trace = synthesize_trace(flat_map, unbalanced)
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


def test_sweep_preconditions(flat_map, icfg):
    period = fringe_period_stage_m(OMEGA_DEG)
    with pytest.raises(SamplingError, match="at least 3"):
        synthesize_trace(flat_map, icfg, stage_span_m=2 * period)


def test_extraction_preconditions(flat_map, icfg):
    trace = synthesize_trace(flat_map, icfg)
    with pytest.raises(ConfigurationError, match="at least one fringe"):
        extract_visibility(trace, icfg, window_fringes=0.5)
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
    """One window at a time, as the paper slides its one-fringe window."""
    step = np.diff(trace.positions_m).mean()
    w = int(round(window_fringes * fringe_period_stage_m(trace.carrier_omega)
                  / step)) + 1

    def refined(idx, values):
        if 0 < idx < values.size - 1:
            y0, y1, y2 = values[idx - 1], values[idx], values[idx + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom != 0:
                return y1 - (y0 - y2) ** 2 / (8.0 * denom)
        return values[idx]

    n = trace.positions_m.size
    taus, vis = np.empty(n - w + 1), np.empty(n - w + 1)
    for i in range(n - w + 1):
        window = trace.intensities[i:i + w]
        crest = refined(int(np.argmax(window)), window)
        trough = refined(int(np.argmin(window)), window)
        vis[i] = (crest - trough) / (crest + trough)
        center = 0.5 * (trace.positions_m[i] + trace.positions_m[i + w - 1])
        taus[i] = center * icfg.stage_to_delay
    return taus, vis


@st.composite
def _traces(draw):
    """Uniformly stepped traces: smooth fringes, few-level plateaus whose
    extrema tie, two adjacent floats whose crest parabolas round to zero
    curvature, and monotone runs whose extrema sit on the window edges."""
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
def test_visibility_equals_the_per_window_loop_bit_for_bit(trace, window_fringes):
    icfg = InterferometerConfig()
    taus, vis = extract_visibility(trace, icfg, window_fringes)
    ref_taus, ref_vis = _visibility_per_window(trace, icfg, window_fringes)
    assert taus.tobytes() == ref_taus.tobytes()
    assert vis.tobytes() == ref_vis.tobytes()


def test_envelope_tracks_the_map_cut(map94, icfg):
    trace = _centered_sweep(map94, icfg, 0.0, 120e-15)
    taus, vis = extract_visibility(trace, icfg)
    cut = np.abs(np.array([map94.value_at(t, 0.0) for t in taus]))
    err = vis - cut
    # the one-fringe window overestimates on steep flanks; tails are clean
    assert math.sqrt(np.mean(err ** 2)) < 0.07
    assert np.max(np.abs(err[np.abs(taus) > 40e-15])) < 0.05
    assert 0.9 < vis.max() < 1.0


def test_central_visibility_reads_below_unity_on_a_real_map(map94, icfg):
    # the envelope decays within one fringe window, so the windowed
    # estimator cannot reach 1 even without instrument blur
    trace = synthesize_trace(map94, icfg)
    taus, vis = extract_visibility(trace, icfg)
    v0 = vis[np.argmin(np.abs(taus))]
    assert v0 == pytest.approx(0.942686499223176, rel=1e-3)
    assert v0 < 0.999


def test_blurred_central_visibility_stays_high(map94, icfg):
    blurred = instrument_blur(map94, 1e-15, 6e-6)
    trace = synthesize_trace(blurred, icfg)
    taus, vis = extract_visibility(trace, icfg)
    v0 = vis[np.argmin(np.abs(taus))]
    assert v0 == pytest.approx(0.9332266090111598, rel=1e-3)
    assert v0 >= 0.8


def test_gaussian_closed_loop_reconstruction(gauss_map, icfg):
    traces = [_centered_sweep(gauss_map, icfg, j * 40e-6, 200e-15)
              for j in range(-5, 6)]
    amap = assemble_map(traces, icfg)
    assert amap.magnitude.shape == (amap.tau_axis.size, 11)
    assert np.allclose(amap.xi_axis, np.arange(-5, 6) * 40e-6 / 6.6, rtol=1e-12)
    ref = np.exp(-0.5 * (amap.tau_axis[:, None] / SIG_TAU) ** 2
                 - 0.5 * (amap.xi_axis[None, :] / SIG_XI) ** 2)
    err = amap.magnitude - ref
    assert math.sqrt(np.mean(err ** 2)) < 0.02
    assert np.max(np.abs(err)) < 0.07


def test_bs2_delay_offset_is_undone(icfg):
    # a map flat along xi: every BS2 setting sees the same envelope, so the
    # realigned peaks must coincide (peak position taken as the
    # half-maximum midpoint; the envelope top is plateau-flat)
    tau = (np.arange(513) - 256) * 1e-15
    xi = (np.arange(257) - 128) * 2e-6
    g = np.repeat(np.exp(-0.5 * (tau / SIG_TAU) ** 2)[:, None], xi.size, axis=1)
    flat_in_xi = CoherenceMap(tau, xi, g.astype(complex), carrier_omega=1.2e15,
                              intensity=1.0, provenance={})
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


def test_single_trace_assembles_to_one_column(flat_map):
    unbalanced = InterferometerConfig(split_ratio=(0.7, 0.3))
    trace = synthesize_trace(flat_map, unbalanced, bs2_position_m=40e-6)
    # the sweep is centred where the stage undoes the BS2 delay
    assert np.mean(trace.positions_m) == pytest.approx(-20e-6, rel=1e-9)
    amap = assemble_map([trace], unbalanced)
    assert isinstance(amap, AssembledMap)
    assert amap.magnitude.shape == (amap.tau_axis.size, 1)
    assert amap.xi_axis == pytest.approx([40e-6 / 6.6], rel=1e-12)
    # the split-ratio ceiling is divided out: flat envelope reads 1
    assert np.max(np.abs(amap.magnitude - 1.0)) < 1e-9


def test_assembly_rejects_inconsistent_inputs(flat_map, icfg):
    with pytest.raises(ConfigurationError, match="no traces"):
        assemble_map([], icfg)
    t0 = _centered_sweep(flat_map, icfg, 0.0, 30e-15)
    t1 = _centered_sweep(flat_map, icfg, 40e-6, 30e-15)
    t2 = _centered_sweep(flat_map, icfg, 80e-6, 30e-15)
    with pytest.raises(ConfigurationError, match="ambiguous"):
        assemble_map([t0, t1], icfg)

    other = InterferometerConfig(split_ratio=(0.7, 0.3))
    t_other = _centered_sweep(flat_map, other, 80e-6, 30e-15)
    # a mix of configurations holds a trace foreign to the analyzing one
    with pytest.raises(ConfigurationError, match="different interferometer"):
        assemble_map([t0, t1, t_other], icfg)
    # one foreign configuration, e.g. traces written under an old hash
    with pytest.raises(ConfigurationError, match="different interferometer"):
        assemble_map([t_other], icfg)

    detuned = CoherenceMap(flat_map.tau_axis, flat_map.xi_axis, flat_map.g,
                           carrier_omega=1.01 * OMEGA_DEG, intensity=1.0,
                           provenance={})
    t_detuned = _centered_sweep(detuned, icfg, 80e-6, 30e-15)
    with pytest.raises(ConfigurationError, match="carrier"):
        assemble_map([t0, t1, t_detuned], icfg)

    t_skew = _centered_sweep(flat_map, icfg, 100e-6, 30e-15)
    with pytest.raises(ConfigurationError, match="uniform"):
        assemble_map([t0, t1, t_skew], icfg)


def test_trace_records_offsets_and_hash(gauss_map, icfg):
    trace = _centered_sweep(gauss_map, icfg, 200e-6, 100e-15,
                            orientation="19.94deg")
    assert trace.bs2_position_m == 200e-6
    assert trace.icfg_hash == icfg.config_hash()
    assert trace.orientation == "19.94deg"
    assert trace.carrier_omega == gauss_map.carrier_omega
