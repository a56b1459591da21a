"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION n: PASS/FAIL line with the measured
numbers before asserting, so the full scorecard is visible in one run.
Tolerances are part of the criteria and are not adjusted here: a test
that cannot meet its stated bound fails and stays failing.
"""

import math

import numpy as np
import pytest
from scipy.signal import hilbert

from pdcoh import (
    CrystalConfig,
    GridSpec,
    SpectralGrid,
    auto_grid,
    build_spectrum,
    collinear_degenerate_angle,
    load_sellmeier,
    spectral_density,
    to_wavelength_angle,
)
from pdcoh.cli import main
from pdcoh.coherence import (
    CoherenceColumn,
    correlation_columns,
    correlation_map,
    direct_correlation,
    factorability_defect,
    instrument_blur,
    metrics,
)
from pdcoh.gridio import read_assembled_map, read_manifest, read_trace
from pdcoh.interferometer import (
    InterferometerConfig,
    extract_visibility,
    fringe_period_stage_m,
    synthesize_trace,
)

ANGLES_DEG = (19.87, 19.90, 19.94)

# reference widths for the three orientations: (tau fs, xi um)
# Their xi/tau ratio is not the documented model's 1/sqrt(|k''| k_c), so they
# and test_coherence's pinned values cannot both pass: regenerate neither (see
# ROADMAP "Standing").
REF_WIDTHS = ((28.0, 59.0), (22.0, 46.0), (17.0, 37.0))
# measured widths with stated errors: (tau fs, err), (xi um, err)
MEASURED = (((36.0, 2.0), (67.0, 8.0)),
            ((19.0, 2.0), (48.0, 12.0)),
            ((16.0, 2.0), (38.0, 7.0)))
# largest |net blur shift| / |own or cross part| that criterion 9 reads as a
# cancellation rather than a direction
CANCELLED = 0.1

CONFIG_8 = """\
[crystal]
material = bbo_kato1986
length = 10 mm
pump_wavelength = 800 nm
gain = 6
theta = 19.94 deg

[grid]
n_omega = 1024
n_k = 512

[interferometer]
bs2_step = 40 um
bs2_count = 11
stage_span = 48 um

[output]
directory = {out}
format = csv
"""


def _report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sell():
    return load_sellmeier("bbo_kato1986")


def _cfg(theta_rad, sell):
    return CrystalConfig(length_m=0.01, theta_rad=theta_rad,
                         pump_wavelength_m=800e-9, gain=6.0, sellmeier=sell)


@pytest.fixture(scope="module")
def pipelines(sell):
    """Full pipeline at the three orientations on the production grid."""
    out = {}
    for deg in ANGLES_DEG:
        cfg = _cfg(math.radians(deg), sell)
        sg = build_spectrum(cfg, auto_grid(cfg, 1024, 512))
        cmap = correlation_map(sg)
        out[deg] = (sg, cmap, metrics(cmap))
    return out


@pytest.fixture(scope="module")
def blurred_metrics(pipelines):
    """Metrics under the full blur and under its tau-only and xi-only parts."""
    parts = {"full": (1e-15, 6e-6), "tau": (1e-15, 0.0), "xi": (0.0, 6e-6)}
    return {deg: {part: metrics(instrument_blur(cmap, dtau, dxi))
                  for part, (dtau, dxi) in parts.items()}
            for deg, (_, cmap, _) in pipelines.items()}


def test_criterion_1_collinear_phase_matching_angle(sell):
    deg = math.degrees(collinear_degenerate_angle(800e-9, sell))
    ok = abs(deg - 19.87) <= 0.15
    _report(1, ok, f"collinear angle {deg:.5f} deg, bound 19.87 +/- 0.15")
    assert ok


def test_criterion_2_degenerate_wavelength_peak(sell):
    theta_pm = collinear_degenerate_angle(800e-9, sell)
    cfg = _cfg(theta_pm, sell)
    sg = build_spectrum(cfg, auto_grid(cfg, 1024, 512))
    wag = to_wavelength_angle(sg, cfg)
    i, j = np.unravel_index(np.argmax(wag.values), wag.values.shape)
    lam = wag.wavelength_axis_m[i]
    cell = abs(wag.wavelength_axis_m[1] - wag.wavelength_axis_m[0])
    ok = abs(lam - 1600e-9) <= cell
    _report(2, ok, f"peak at {lam * 1e9:.3f} nm, one cell = {cell * 1e9:.3f} nm")
    assert ok


def test_criterion_3_coherence_widths(pipelines):
    rows = []
    ok = True
    for deg, (tau_ref, xi_ref) in zip(ANGLES_DEG, REF_WIDTHS):
        m = pipelines[deg][2]
        tau_fs = m.tau_c * 1e15
        xi_um = m.xi_c * 1e6
        tau_ok = abs(tau_fs - tau_ref) <= 0.15 * tau_ref
        xi_ok = abs(xi_um - xi_ref) <= 0.15 * xi_ref
        ok = ok and tau_ok and xi_ok
        rows.append(f"{deg}: tau {tau_fs:.2f}/{tau_ref:g} fs "
                    f"[{'ok' if tau_ok else 'FAIL'}], "
                    f"xi {xi_um:.2f}/{xi_ref:g} um "
                    f"[{'ok' if xi_ok else 'FAIL'}], "
                    f"xi/tau {xi_um / tau_fs:.3f}/{xi_ref / tau_ref:.3f} um/fs")
    _report(3, ok, "widths vs reference within 15%: " + "; ".join(rows))
    assert ok


def test_criterion_4_ring_heights(pipelines):
    rings = [pipelines[deg][2].first_ring_height for deg in ANGLES_DEG]
    # published ring heights; like REF_WIDTHS they cannot pass together with
    # the ring pinned in test_coherence: regenerate neither (ROADMAP "Standing")
    ok_90 = abs(rings[1] - 0.22) <= 0.07
    ok_94 = abs(rings[2] - 0.30) <= 0.07
    ok_mono = rings[0] < rings[1] < rings[2]
    ok = ok_90 and ok_94 and ok_mono
    _report(4, ok, f"rings {rings[0]:.4f}/{rings[1]:.4f}/{rings[2]:.4f}, "
            f"bounds 0.22 +/- 0.07 [{'ok' if ok_90 else 'FAIL'}], "
            f"0.30 +/- 0.07 [{'ok' if ok_94 else 'FAIL'}], "
            f"increasing [{'ok' if ok_mono else 'FAIL'}]")
    assert ok


def test_criterion_5_coupling_functional(pipelines):
    spec = GridSpec(omega_center=1.2e15, omega_half_width=2e14,
                    n_omega=256, k_half_width=1e5, n_k=128)
    # S's (|Omega|, |k|) quadrant; its last two rows and columns are the
    # grid's edges
    abs_omega = np.arange(spec.n_omega // 2 + 1) * spec.omega_step
    abs_k = np.arange(spec.n_k // 2 + 1) * spec.k_step
    quadrant = np.exp(-0.5 * (abs_omega / 2e13) ** 2)[:, None] \
        * np.exp(-0.5 * (abs_k / 1e4) ** 2)[None, :]
    separable = SpectralGrid(spec, quadrant, {"edge_ratio": float(
        max(quadrant[-2:].max(), quadrant[:, -2:].max()) / quadrant.max())})
    defect_sep = factorability_defect(correlation_map(separable))
    defect_ring = factorability_defect(pipelines[19.94][1])
    ok = defect_sep < 1e-6 and defect_ring > 0.1
    _report(5, ok, f"separable coupling {defect_sep:.2e} (< 1e-6), "
            f"ring coupling {defect_ring:.4f} (> 0.1)")
    assert ok


def test_criterion_6_transform_matches_direct_quadrature(sell):
    cfg = _cfg(math.radians(19.94), sell)
    sg = build_spectrum(cfg, auto_grid(cfg, 256, 256))
    cmap = correlation_map(sg)
    rng = np.random.default_rng(2026)
    n_pts = 128
    ii = rng.integers(0, cmap.tau_axis.size, n_pts)
    jj = rng.integers(0, cmap.xi_axis.size, n_pts)
    worst = 0.0
    for i, j in zip(ii, jj):
        tau, xi = cmap.tau_axis[i], cmap.xi_axis[j]
        ref = direct_correlation(sg, tau, xi)
        got = cmap.g[i, j] * np.exp(-1j * cmap.carrier_omega * tau)
        worst = max(worst, abs(got - ref))
    ok = worst < 1e-6
    _report(6, ok, f"max |difference| {worst:.2e} over {n_pts} random "
            "points (< 1e-6)")
    assert ok


def test_criterion_7_normalization_and_symmetry(pipelines, sell):
    # offsets that are multiples of 2^37 rad/s keep wc +/- Omega exactly
    # representable, so the exchange identity is probed at truly mirrored
    # arguments instead of at independently rounded axis samples
    big_omega = np.arange(1, 2000, 37, dtype=float)[:, None] * 2.0 ** 37
    k_row = np.linspace(-1e5, 1e5, 41)[None, :]
    checks = []
    for deg in ANGLES_DEG:
        sg, cmap, _ = pipelines[deg]
        i0, j0 = cmap.tau_axis.size // 2, cmap.xi_axis.size // 2
        checks.append(cmap.g[i0, j0] == 1.0 + 0.0j)
        checks.append(np.abs(cmap.g).max() <= 1.0 + 1e-9)
        checks.append(np.max(np.abs(cmap.g[::-1, ::-1]
                                    - np.conj(cmap.g))) < 1e-9)
        # even axes put zero at n/2, so index 0 has no mirror partner
        v, (nw, nk) = sg.values, sg.values.shape
        m = np.arange(1, nk // 2)
        checks.append(np.array_equal(v[:, nk // 2 - m], v[:, nk // 2 + m]))
        cfg = _cfg(math.radians(deg), sell)
        wc = cfg.degenerate_omega
        s_hi = spectral_density(wc + big_omega, k_row, cfg)
        s_lo = spectral_density(wc - big_omega, k_row, cfg)
        checks.append(np.max(np.abs(s_hi - s_lo)) <= 1e-12 * s_hi.max())
    ok = all(checks)
    _report(7, ok, f"{sum(checks)}/{len(checks)} invariant checks hold "
            "(center 1, bounded, conjugate flip, k mirror, branch swap)")
    assert ok


def test_criterion_8_interferometer_closed_loop(pipelines, tmp_path):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(CONFIG_8.format(out=out))
    assert main(["interferogram", str(cfg)]) == 0
    manifest = out / "interferogram_19p94_manifest.txt"
    assert main(["analyze", str(manifest), "--config", str(cfg),
                 "--out", str(out)]) == 0

    sg, source = pipelines[19.94][:2]
    amap = read_assembled_map(out / "analyze_map.csv")
    # S's exact column at each trace's xi, linear between its tau nodes
    column = correlation_columns(sg)
    ref = np.abs(np.column_stack([np.interp(amap.tau_axis, c.tau_axis, c.g) for c in
                                  map(column, amap.xi_axis)]))
    err = amap.magnitude - ref
    rms = math.sqrt(np.mean(err ** 2))

    # fringe carrier from the phase slope at the envelope peak; naive
    # crest spacing is biased by the few-fringe-wide envelope, the
    # instantaneous phase at zero delay is not
    trace = read_trace(read_manifest(manifest)[5])
    z = hilbert(trace.intensities - trace.intensities.mean())
    i0 = int(np.argmax(np.abs(z)))
    sl = slice(i0 - 10, i0 + 11)
    phase = np.unwrap(np.angle(z[sl]))
    slope = abs(np.polyfit(trace.positions_m[sl], phase, 1)[0])
    # the stage moves a double pass: path period is twice the stage period
    path_period = 2.0 * 2.0 * math.pi / slope
    period_ok = abs(path_period - 1600e-9) < 1e-4 * 1600e-9

    icfg = InterferometerConfig()
    tau_flat = (np.arange(4097) - 2048) * 2e-16
    flat = CoherenceColumn(tau_flat, np.ones(4097), carrier_omega=source.carrier_omega)
    taus, vis = extract_visibility(synthesize_trace(flat, icfg), icfg)
    vis_ideal = vis[np.argmin(np.abs(taus))]
    # the blurred map's xi = 0 node column
    blurred = instrument_blur(source, 1e-15, 6e-6)
    taus, vis = extract_visibility(synthesize_trace(CoherenceColumn(
        blurred.tau_axis, blurred.g[:, blurred.xi_axis.size // 2],
        blurred.carrier_omega), icfg), icfg)
    vis_blurred = vis[np.argmin(np.abs(taus))]

    ok = (rms < 0.03 and period_ok and abs(vis_ideal - 1.0) < 1e-3
          and vis_blurred >= 0.8)
    _report(8, ok, f"closed-loop rms {rms:.4f} (< 0.03) over "
            f"{amap.magnitude.shape[0]}x{amap.magnitude.shape[1]} nodes, "
            f"path fringe period {path_period * 1e9:.4f} nm (1600 +/- 0.16), "
            f"unit-envelope visibility {vis_ideal:.6f} (= 1 +/- 1e-3), "
            f"blurred central visibility {vis_blurred:.4f} (>= 0.8)")
    assert ok


def test_criterion_9_blur_moves_widths_toward_measured(pipelines,
                                                       blurred_metrics):
    # A width's shift under the blur is the sum of an own-axis part, which
    # instrument_blur promises to be a widening, and a cross-axis part from
    # averaging neighbouring cuts of the coupled map. A cell whose net shift
    # does not move it toward the target passes as "cancelled" only when the
    # promised part widens it toward the target and the cross part cancels
    # it to within CANCELLED of either part: a 5 % change of either blur
    # width (stated as 1 fs and 6 um) changes its part by about 10 % and
    # flips the sign of such a net (see ROADMAP "Standing").
    rows = []
    ok = True
    for deg, ((tau_exp, tau_err), (xi_exp, xi_err)) in zip(ANGLES_DEG,
                                                           MEASURED):
        m0 = pipelines[deg][2]
        mb = blurred_metrics[deg]
        for name, other, unit, target, err in (
                ("tau", "xi", 1e15, tau_exp, tau_err),
                ("xi", "tau", 1e6, xi_exp, xi_err)):
            width = {part: getattr(m, name + "_c") * unit
                     for part, m in mb.items()}
            v0, vb = getattr(m0, name + "_c") * unit, width["full"]
            own, cross = width[name] - v0, width[other] - v0
            inside = abs(v0 - target) <= err
            toward = abs(vb - target) < abs(v0 - target)
            cancelled = (own > 0 and target > v0 and cross < 0 and
                         abs(vb - v0) <= CANCELLED * min(own, -cross))
            verdict = ("inside" if inside else "toward" if toward
                       else "cancelled" if cancelled else "FAIL")
            ok = ok and verdict != "FAIL"
            rows.append(
                f"{deg} {name}: {v0:.3f} -> {vb:.3f} vs {target:g}"
                f"+/-{err:g} ({name}-blur {own:+.4f}, {other}-blur "
                f"{cross:+.4f}) [{verdict}]")
    _report(9, ok, "blur direction per cell: " + "; ".join(rows))
    assert ok
