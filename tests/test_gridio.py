import dataclasses
import io
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcoh import ConfigurationError, CrystalConfig, gridio, GridSpec, \
    PdcohError, SpectralGrid, auto_grid, build_spectrum, load_sellmeier
from pdcoh.coherence import CoherenceColumn, CoherenceMap, correlation_map, \
    instrument_blur, map_mirror
from pdcoh.gridio import (
    read_assembled_map,
    read_coherence_map,
    read_manifest,
    read_metrics,
    read_profile,
    read_spectral_grid,
    read_trace,
    read_wavelength_angle_grid,
    write_assembled_map,
    write_coherence_map,
    write_manifest,
    write_metrics,
    write_profile,
    write_spectral_grid,
    write_trace,
    write_wavelength_angle_grid,
)
from pdcoh.interferometer import (
    AssembledMap,
    FringeTrace,
    InterferometerConfig,
    fringe_period_stage_m,
    synthesize_trace,
)
from pdcoh.spectrum import WavelengthAngleGrid, angle_mirror, s_mirror, to_wavelength_angle


@pytest.fixture()
def sg():
    rng = np.random.default_rng(7)
    spec = GridSpec(omega_center=1.2e15, omega_half_width=2e14,
                    n_omega=64, k_half_width=1e5, n_k=64)
    return SpectralGrid(spec, domain=rng.random((33, 33)), provenance={
        "material": "bbo_kato1986", "gain": 6.0, "edge_ratio": 1e-5,
        "invalid_nodes": 0})


@pytest.mark.parametrize("theta_deg", [19.87, 19.90, 19.94])
def test_example_grid_specs_round_trip(tmp_path, theta_deg):
    cfg = CrystalConfig(length_m=0.01, theta_rad=math.radians(theta_deg),
                        pump_wavelength_m=800e-9, gain=6.0,
                        sellmeier=load_sellmeier("bbo_kato1986"))
    sg = build_spectrum(cfg, auto_grid(cfg, 64, 64))
    write_spectral_grid(tmp_path / "grid.bin", sg, fmt="binary")
    back = read_spectral_grid(tmp_path / "grid.bin")
    assert back.spec == sg.spec
    assert back.omega_axis().tobytes() == sg.omega_axis().tobytes()
    assert back.provenance["material"] == "bbo_kato1986"


def test_spectral_grid_spec_must_match_its_axes(tmp_path, sg):
    path = tmp_path / "grid.csv"
    write_spectral_grid(path, sg)
    text = path.read_text()
    path.write_text(text.replace("# omega_center: 1200000000000000.0",
                                 "# omega_center: 1300000000000000.0"))
    with pytest.raises(ConfigurationError, match="disagrees with the omega axis"):
        read_spectral_grid(path)
    path.write_text(text.replace("# k_half_width: ", "# k_half: "))
    with pytest.raises(ConfigurationError, match="k_half_width"):
        read_spectral_grid(path)


def test_trace_with_a_non_finite_intensity_is_refused(tmp_path):
    pos = np.linspace(0.0, 1e-6, 5)
    path = tmp_path / "trace.csv"
    write_trace(path, FringeTrace(pos, np.ones(5), 0.0, 0.0, 1.2e15))
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="finite"):
        read_trace(path)


@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("binary", "bin")])
def test_spectral_grid_round_trip(tmp_path, sg, fmt, ext):
    path = tmp_path / f"grid.{ext}"
    write_spectral_grid(path, sg, fmt=fmt)
    back = read_spectral_grid(path)
    assert back.spec == sg.spec
    assert np.array_equal(back.values, sg.values)
    assert back.provenance["material"] == "bbo_kato1986"
    assert back.provenance["gain"] == 6.0
    assert back.provenance["invalid_nodes"] == 0


def test_written_bytes_are_deterministic(tmp_path, sg):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_spectral_grid(a, sg)
    write_spectral_grid(b, sg)
    assert a.read_bytes() == b.read_bytes()
    a2, b2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_spectral_grid(a2, sg, fmt="binary")
    write_spectral_grid(b2, sg, fmt="binary")
    assert a2.read_bytes() == b2.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_coherence_map_round_trip_is_exact(tmp_path, fmt):
    rng = np.random.default_rng(11)
    tau = (np.arange(33) - 16) * 2e-15
    xi = (np.arange(17) - 8) * 3e-6
    quadrant = rng.standard_normal((17, 9))
    cmap = CoherenceMap(tau, xi, domain=quadrant, carrier_omega=1.18e15, intensity=42.5,
                        provenance={"oversample": 16})
    path = tmp_path / "map.dat"
    write_coherence_map(path, cmap, fmt=fmt)
    back = read_coherence_map(path)
    assert np.array_equal(back.domain, quadrant)
    assert np.allclose(back.tau_axis, tau, rtol=1e-12, atol=1e-27)
    assert back.carrier_omega == 1.18e15
    assert back.intensity == 42.5
    assert back.provenance["oversample"] == 16


@pytest.mark.parametrize("layout", ["fortran", "complex view", "big-endian"])
def test_binary_arrays_round_trip_bit_for_bit_from_any_layout(tmp_path, layout):
    # the writer sends C-ordered little-endian buffers as they are; every
    # other layout must still land as the same values, in C order
    rng = np.random.default_rng(3)
    arr = {"fortran": lambda: np.asfortranarray(rng.standard_normal((7, 5))),
           # the real parts of a complex array: a float view of stride 16
           "complex view": lambda: (rng.standard_normal((9, 12))
                                    + 1j * rng.standard_normal((9, 12)))[::2, 1::3].real,
           "big-endian": lambda: rng.standard_normal((6, 4)).astype(">f8")}[layout]()
    assert not (arr.flags.c_contiguous and arr.dtype.isnative)
    path = tmp_path / "a.bin"
    gridio._write(path, "binary", {"kind": "test"}, [], {}, [("a", arr)])
    _, _, arrays = gridio._read(path, "test")
    back = arrays["a"]
    assert back.shape == arr.shape and back.dtype == arr.dtype.newbyteorder("=")
    assert np.array_equal(back.view(np.uint64), np.ascontiguousarray(arr, back.dtype).view(np.uint64))


# a small product file (see _product_file) -> (what declares its array real,
# what declares it complex instead, the refusal)
COMPLEX = {
    "csv": ('[["g", "real"]]', '[["g", "complex"]]', "array 'g' has column type 'complex'"),
    "binary": (b'"<f8"', b'"<c16"', "array 'g' has dtype '<c16'"),
    "profile csv": ('["magnitude", "real"]', '["magnitude", "complex"]',
                    "array 'magnitude' has column type 'complex'"),
}


@pytest.mark.parametrize("case", sorted(COMPLEX))
def test_complex_arrays_are_refused_naming_the_file(tmp_path, case):
    # pdcoh writes no complex array, and reads none: a map of the complex
    # layout of older files, or any file declaring a complex column, is
    # refused naming it
    real, cplx, message = COMPLEX[case]
    path, read = _product_file(tmp_path, case)
    if case == "binary":
        data = path.read_bytes()
        (length,) = struct.unpack("<I", data[8:12])
        blob = data[12:12 + length]
        assert blob.count(real) == 1
        path.write_bytes(_binary_file(json.loads(blob.replace(real, cplx)))
                         + data[12 + length:])
    else:
        text = path.read_text()
        assert text.count(real) == 1
        path.write_text(text.replace(real, cplx))
    with pytest.raises(ConfigurationError,
                       match=rf"^{re.escape(str(path))}: {re.escape(message)}; "):
        read(path)
    # nor does the writer take a complex array: no file is made
    new = tmp_path / "new.dat"
    with pytest.raises(TypeError, match="complex"):
        gridio._write(new, case.split()[-1], {"kind": "test"}, [], {},
                      [("g", np.ones((2, 2)) + 0.5j)])
    assert not new.exists()


def test_wavelength_angle_round_trip(tmp_path):
    wag = WavelengthAngleGrid(
        wavelength_axis_m=np.linspace(1.2e-6, 2.2e-6, 41),
        angle_axis_rad=np.linspace(-0.02, 0.02, 31),
        domain=np.outer(np.arange(41.0), np.arange(16.0)),
        provenance={"material": "bbo_kato1986"})
    path = tmp_path / "wag.csv"
    write_wavelength_angle_grid(path, wag)
    back = read_wavelength_angle_grid(path)
    assert np.array_equal(back.domain, wag.domain)
    assert np.allclose(back.wavelength_axis_m, wag.wavelength_axis_m,
                       rtol=1e-12)
    assert np.allclose(back.angle_axis_rad, wag.angle_axis_rad, rtol=0,
                       atol=1e-15)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_assembled_map_round_trip(tmp_path, fmt):
    amap = AssembledMap(tau_axis=np.arange(11) * 1e-15 - 5e-15,
                        xi_axis=np.arange(5) * 6e-6 - 12e-6,
                        magnitude=np.linspace(0, 1, 55).reshape(11, 5),
                        provenance={"n_traces": 5})
    path = tmp_path / "amap.dat"
    write_assembled_map(path, amap, fmt=fmt)
    back = read_assembled_map(path)
    assert np.array_equal(back.magnitude, amap.magnitude)
    assert back.provenance["n_traces"] == 5


def test_a_domain_of_the_wrong_shape_is_refused_at_construction():
    # a whole map or grid, where its fundamental domain belongs, would be
    # written as a file that its reader refuses
    with pytest.raises(ConfigurationError, match=re.escape(
            "CoherenceMap domain has shape (5, 3); axes of 5 x 3 nodes give (3, 2)")):
        CoherenceMap(_TAU, _XI, domain=np.ones((5, 3)), carrier_omega=1.2e15, intensity=1.0)
    with pytest.raises(ConfigurationError, match=re.escape(
            "WavelengthAngleGrid domain has shape (5, 3); axes of 5 x 3 nodes give (5, 2)")):
        WavelengthAngleGrid(np.linspace(1.2e-6, 2.2e-6, 5), np.linspace(-0.02, 0.02, 3),
                            domain=np.ones((5, 3)))
    # S over the whole grid, where its (|Omega|, |k|) quadrant belongs
    with pytest.raises(ConfigurationError, match=re.escape(
            "SpectralGrid domain has shape (64, 64); axes of 64 x 64 nodes give (33, 33)")):
        SpectralGrid(_SPEC, domain=np.ones((64, 64)))


@pytest.mark.parametrize("shape", [(3, 0), (2, 5)])
def test_an_assembled_magnitude_its_axes_do_not_give_is_refused_at_construction(shape):
    # either was written, in both encodings, as a file that
    # read_assembled_map refuses
    with pytest.raises(ConfigurationError, match=re.escape(
            f"AssembledMap magnitude has shape {shape}; axes of 3 x 2 nodes give (3, 2)")):
        AssembledMap(np.arange(3) * 1e-15, np.arange(2) * 1e-6, np.ones(shape))



def test_folded_products_compare_by_identity():
    # a field-wise == of their arrays has no truth value; each product is
    # equal to itself only, and hashable, as S was before it was a Folded
    for product in (SpectralGrid(_SPEC, domain=np.ones((33, 33))),
                    CoherenceMap(_TAU, _XI, 1.2e15, 1.0, domain=_G),
                    WavelengthAngleGrid(np.linspace(1.2e-6, 2.2e-6, 5),
                                        np.linspace(-0.02, 0.02, 3), domain=np.ones((5, 2)))):
        twin = dataclasses.replace(product)
        assert product == product and product != twin
        assert len({product, twin}) == 2

def test_single_column_map_keeps_its_shape(tmp_path):
    amap = AssembledMap(tau_axis=np.arange(9) * 1e-15,
                        xi_axis=np.array([3e-6]),
                        magnitude=np.arange(9.0).reshape(9, 1),
                        provenance={})
    path = tmp_path / "one.csv"
    write_assembled_map(path, amap)
    back = read_assembled_map(path)
    assert back.magnitude.shape == (9, 1)
    assert back.xi_axis.shape == (1,)
    assert back.xi_axis[0] == 3e-6


def test_profile_rejects_ragged_columns(tmp_path):
    with pytest.raises(ConfigurationError, match="length"):
        write_profile(tmp_path / "bad.csv", "coherence-cut", {},
                      [("a", np.arange(5.0)), ("b", np.arange(4.0))])
    # nor empty ones: their CSV file would hold no rows, which is refused
    with pytest.raises(ConfigurationError, match="empty"):
        write_profile(tmp_path / "empty.csv", "coherence-cut", {}, [("a", [])])
    assert not (tmp_path / "empty.csv").exists()


def test_metrics_round_trip_preserves_types(tmp_path):
    record = {"theta_tag": "19p87", "tau_c_s": 2.79486e-14,
              "n_traces": 11, "converged": True}
    path = tmp_path / "metrics.txt"
    write_metrics(path, record)
    back = read_metrics(path)
    assert back["theta_tag"] == "19p87"
    assert back["tau_c_s"] == 2.79486e-14
    assert back["n_traces"] == 11
    assert back["converged"] is True


def test_trace_round_trip(tmp_path):
    pos = np.arange(100) * 4e-8
    trace = FringeTrace(positions_m=pos,
                        intensities=1.0 + np.cos(7.85e6 * pos),
                        bs2_position_m=2e-4, carrier_omega=1.18e15,
                        orientation="19p94", icfg_hash="abc123")
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    back = read_trace(path)
    assert np.array_equal(back.positions_m, trace.positions_m)
    assert np.array_equal(back.intensities, trace.intensities)
    assert back.bs2_position_m == 2e-4
    assert back.carrier_omega == 1.18e15
    assert back.orientation == "19p94"
    assert back.icfg_hash == "abc123"


# a real map in the full layout: every value of the grid, and no fold field
OLD_MAP = ('# pdcoh_file: 1\n# kind: "coherence-map"\n'
           '# carrier_omega: 1180000000000000.0\n# intensity: 2.5\n'
           '# tau_start: -2e-15\n# tau_step: 2e-15\n# n_tau: 3\n'
           '# xi_start: -3e-06\n# xi_step: 3e-06\n# n_xi: 3\n'
           '# oversample_tau: 16\n# columns: [["g", "real"]]\n'
           '0.5,3.0,0.5\n0.25,1.0,0.25\n0.5,3.0,0.5\n')
OLD_S_HEAD = ('# pdcoh_file: 1\n# kind: "spectral-density"\n'
              '# omega_center: 1200000000000000.0\n'
              '# omega_half_width: 200000000000000.0\n# k_half_width: 100000.0\n'
              '# omega_start: 1000000000000000.0\n# omega_step: 6250000000000.0\n'
              '# n_omega: 64\n# k_start: -100000.0\n# k_step: 3125.0\n# n_k: 64\n'
              '# gain: 6.0\n# columns: [["density", "real"]]\n')


def test_products_in_the_full_layout_are_refused_naming_the_file(tmp_path):
    # each array has the symmetry of its kind, but a symmetric kind is
    # stored folded: a file of the whole grid, with no fold field, as files
    # from before folding were, is refused
    g = np.array([[0.5, 3.0, 0.5], [0.25, 1.0, 0.25], [0.5, 3.0, 0.5]])
    (tmp_path / "map.csv").write_text(OLD_MAP)
    (tmp_path / "map.bin").write_bytes(_binary_file({
        "arrays": [["g", "<f8", [3, 3]]], "carrier_omega": 1.18e15,
        "intensity": 2.5, "kind": "coherence-map", "n_tau": 3, "n_xi": 3,
        "oversample_tau": 16, "pdcoh_file": 1, "tau_start": -2e-15,
        "tau_step": 2e-15, "xi_start": -3e-06, "xi_step": 3e-06}) + g.tobytes())
    # S even in Omega and k
    density = np.abs(np.arange(64.0) - 32)[:, None] + np.abs(np.arange(64) - 32) / 64
    (tmp_path / "s.csv").write_text(OLD_S_HEAD + "".join(
        ",".join(map(repr, row)) + "\n" for row in density.tolist()))
    (tmp_path / "wag.csv").write_text(
        '# pdcoh_file: 1\n# kind: "wavelength-angle-density"\n'
        '# wavelength_start: 1e-06\n# wavelength_step: 1e-07\n# n_wavelength: 2\n'
        '# angle_start: -0.5\n# angle_step: 0.5\n# n_angle: 3\n'
        '# columns: [["density", "real"]]\n1.0,2.0,1.0\n3.0,4.0,3.0\n')
    map_fold = "coherence-map files have fold 'tau >= 0, xi >= 0'"
    for name, read, fold in (
            ("map.csv", read_coherence_map, map_fold),
            ("map.bin", read_coherence_map, map_fold),
            ("s.csv", read_spectral_grid, "spectral-density files have fold '|Omega|, |k|'"),
            ("wag.csv", read_wavelength_angle_grid,
             "wavelength-angle-density files have fold 'angle >= 0'")):
        path = tmp_path / name
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(f'{path}: {fold}')}, this one None$"):
            read(path)


def test_s_folded_in_k_alone_is_refused_naming_the_file(tmp_path):
    # S's one fold is (|Omega|, |k|); a file of its columns at |k| = 0 ..
    # k_max in every row is refused, in either encoding
    columns = np.arange(64.0)[:, None] + np.arange(33) / 64
    (tmp_path / "s.csv").write_text(OLD_S_HEAD.replace(
        "# columns:", '# fold: "|k|"\n# columns:') + "".join(
        ",".join(map(repr, row)) + "\n" for row in columns.tolist()))
    (tmp_path / "s.bin").write_bytes(_binary_file({
        "arrays": [["density", "<f8", [64, 33]]], "fold": "|k|", "gain": 6.0,
        "k_half_width": 1e5, "k_start": -1e5, "k_step": 3125.0,
        "kind": "spectral-density", "n_k": 64, "n_omega": 64,
        "omega_center": 1.2e15, "omega_half_width": 2e14, "omega_start": 1e15,
        "omega_step": 6.25e12, "pdcoh_file": 1}) + columns.tobytes())
    for name in ("s.csv", "s.bin"):
        path = tmp_path / name
        with pytest.raises(ConfigurationError, match=r"spectral-density files have fold "
                           r"'\|Omega\|, \|k\|', this one '\|k\|'$") as info:
            read_spectral_grid(path)
        assert str(path) in str(info.value)


def test_s_in_the_full_layout_not_even_is_refused_naming_the_file(tmp_path):
    # S is stored as its (|Omega|, |k|) quadrant, so a full-layout S, even
    # or not, is refused for its missing fold field before its values
    density = np.arange(64.0)[:, None] + np.abs(np.arange(64) - 32) / 64
    path = tmp_path / "s.csv"
    path.write_text(OLD_S_HEAD + "".join(
        ",".join(map(repr, row)) + "\n" for row in density.tolist()))
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(path))}: "
                       r"spectral-density files have fold '\|Omega\|, \|k\|', this one None$"):
        read_spectral_grid(path)


# a trace as written today: its stage sweep as the position axis
TRACE = ('# pdcoh_file: 1\n# kind: "fringe-trace"\n# position_start: 0.0\n'
         '# position_step: 4e-08\n# n_position: 3\n# bs2_position_m: 0.0002\n'
         '# carrier_omega: 1180000000000000.0\n# orientation: "19p94"\n'
         '# icfg_hash: "abc123"\n# columns: [["intensity", "real"]]\n'
         '2.0,1.0,0.5\n')


def test_trace_reads_its_stage_sweep_from_the_position_axis(tmp_path):
    # traces once also carried tau_offset_s (always bs2_position_m / c) and
    # source; both header keys are ignored
    path = tmp_path / "trace.csv"
    path.write_text(TRACE.replace("# icfg_hash", '# tau_offset_s: 6.67e-13\n'
                                  '# source: "synthetic"\n# icfg_hash'))
    back = read_trace(path)
    assert np.array_equal(back.positions_m, np.arange(3) * 4e-8)
    assert np.array_equal(back.intensities, [2.0, 1.0, 0.5])
    assert (back.bs2_position_m, back.carrier_omega) == (2e-4, 1.18e15)
    assert (back.orientation, back.icfg_hash) == ("19p94", "abc123")
    assert not hasattr(back, "tau_offset_s") and not hasattr(back, "source")


# a trace that held its stage sweep as a position_m array beside intensity
TWO_COLUMN_TRACE = (
    '# pdcoh_file: 1\n# kind: "fringe-trace"\n# bs2_position_m: 0.0002\n'
    '# carrier_omega: 1180000000000000.0\n# orientation: "19p94"\n'
    '# icfg_hash: "abc123"\n'
    '# columns: [["position_m", "real"], ["intensity", "real"]]\n'
    '0.0,4e-08,8e-08\n2.0,1.0,0.5\n')


MALFORMED_STAGE = {
    "two-column trace": (
        TRACE, TWO_COLUMN_TRACE, "header lacks 'position_start'"),
    "missing position_step": (
        "# position_step: 4e-08\n", "", "lacks 'position_step'"),
    "fractional n_position": (
        "n_position: 3", "n_position: 3.0", "n_position must be an integer"),
    "one-sample n_position": (
        "n_position: 3", "n_position: 1", "n_position must be an integer >= 2"),
    "boolean n_position": (
        "n_position: 3", "n_position: true", "n_position must be an integer"),
    "non-finite position_start": (
        "position_start: 0.0", "position_start: NaN",
        "position_start must be a finite number"),
    "infinite position_step": (
        "position_step: 4e-08", "position_step: Infinity",
        "position_step must be a finite number"),
    "text position_start": (
        "position_start: 0.0", 'position_start: "0.0"',
        "position_start must be a finite number"),
    "zero position_step": (
        "position_step: 4e-08", "position_step: 0.0",
        "position_step must be positive"),
    "negative position_step": (
        "position_step: 4e-08", "position_step: -4e-08",
        "position_step must be positive"),
    "position_step too small to advance the sweep": (
        "position_start: 0.0\n# position_step: 4e-08",
        "position_start: 1.0\n# position_step: 1e-20", "increase strictly"),
    "intensity row shorter than n_position": (
        "2.0,1.0,0.5", "2.0,1.0", r"shape \(1, 2\), n_position gives \(1, 3\)"),
    "intensities in two rows": (
        "2.0,1.0,0.5", "2.0,1.0,0.5\n0.5,1.0,2.0",
        r"shape \(2, 3\), n_position gives \(1, 3\)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STAGE))
def test_a_malformed_stage_header_is_refused_naming_the_file(tmp_path, case):
    old, new, message = MALFORMED_STAGE[case]
    assert old in TRACE
    path = tmp_path / "trace.csv"
    path.write_text(TRACE.replace(old, new))
    with pytest.raises(ConfigurationError, match=message) as info:
        read_trace(path)
    assert str(path) in str(info.value)


@settings(max_examples=40, deadline=None)
@given(st.floats(-100e-6, 100e-6), st.floats(3.0, 60.0))
def test_a_synthesized_sweep_reads_back_bit_for_bit(bs2, fringes):
    # the sweep is start + j * step with a step that start + step holds
    # exactly, so the file's start/step/count axis rebuilds it
    omega = 1.18e15
    tau = (np.arange(4097) - 2048) * 2e-16
    # half coherence keeps every sample clear of zero
    flat = CoherenceColumn(tau, np.full(tau.size, 0.5), carrier_omega=omega)
    icfg = InterferometerConfig()
    trace = synthesize_trace(flat, icfg, bs2_position_m=bs2,
                             stage_span_m=fringes * fringe_period_stage_m(omega))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "trace.csv"
        write_trace(path, trace)
        back = read_trace(path)
    assert back.positions_m.tobytes() == trace.positions_m.tobytes()
    assert back.intensities.tobytes() == trace.intensities.tobytes()


def test_write_trace_refuses_a_sweep_that_is_not_uniform(tmp_path):
    positions = np.arange(100) * 4e-8
    positions[50] += 1e-12
    trace = FringeTrace(positions, np.ones(100), 0.0, 1.18e15)
    path = tmp_path / "trace.csv"
    with pytest.raises(ConfigurationError, match="axis position is not uniform"):
        write_trace(path, trace)


def test_manifest_resolves_relative_to_itself(tmp_path):
    sub = tmp_path / "traces"
    sub.mkdir()
    paths = [sub / "t0.csv", sub / "t1.csv"]
    for p in paths:
        p.write_text("stub")
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, paths)
    text = manifest.read_text()
    assert "traces/t0.csv" in text and str(tmp_path) not in text.splitlines()[1]
    back = read_manifest(manifest)
    assert [p.resolve() for p in back] == [p.resolve() for p in paths]


def test_missing_manifest_is_a_configuration_error(tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(ConfigurationError, match=re.escape(str(missing))):
        read_manifest(missing)


def test_readers_reject_foreign_files(tmp_path, sg):
    plain = tmp_path / "plain.csv"
    plain.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigurationError, match="not a pdcoh"):
        read_spectral_grid(plain)
    with pytest.raises(ConfigurationError, match="not a pdcoh"):
        read_metrics(plain)
    with pytest.raises(ConfigurationError, match="not a pdcoh"):
        read_manifest(plain)

    gridfile = tmp_path / "grid.csv"
    write_spectral_grid(gridfile, sg)
    with pytest.raises(ConfigurationError, match="expected a coherence-map"):
        read_coherence_map(gridfile)
    cut = tmp_path / "cut.csv"
    write_profile(cut, "coherence-cut", {}, [("position", np.arange(3.0))])
    with pytest.raises(ConfigurationError, match="expected a dispersion-table"):
        read_profile(cut, "dispersion-table")


def test_nonuniform_axis_is_rejected(tmp_path):
    tau = np.array([0.0, 1e-15, 2.5e-15])
    cmap = CoherenceMap(tau, np.array([0.0, 1e-6]),
                        domain=np.zeros((2, 1)), carrier_omega=1e15,
                        intensity=1.0, provenance={})
    with pytest.raises(ConfigurationError, match="uniform"):
        write_coherence_map(tmp_path / "bad.csv", cmap)


def test_unknown_format_is_rejected(tmp_path, sg):
    with pytest.raises(ConfigurationError, match="format"):
        write_spectral_grid(tmp_path / "grid.xyz", sg, fmt="hdf5")


# --- the CSV encoder against a per-cell reference ---

AWKWARD = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, 0.1,
           1 / 3, -2.5e-308, 1.7976931348623157e308, 123456789.0]


def _cell(v):
    """A float as CSV writes it: its repr, but -nan for a NaN whose sign
    bit is set."""
    return "-nan" if np.isnan(v) and np.signbit(v) else repr(float(v))


def _reference_csv(header, arrays):
    lines = ["# pdcoh_file: 1"]
    lines += [f"# {key}: {json.dumps(value)}" for key, value in header.items()]
    lines.append("# columns: " + json.dumps([[name, "real"] for name, _ in arrays]))
    for _, arr in arrays:
        lines += _reference_lines(arr)
    return "\n".join(lines) + "\n"


def _reference_lines(arr):
    """The CSV lines of an array, a repr call per value."""
    return [",".join(_cell(v) for v in row) for row in np.atleast_2d(arr)]


def _awkward_arrays(n=40):
    """Arrays of n rows, n even, of the values repr finds awkward."""
    rng = np.random.default_rng(3)
    real = rng.choice(AWKWARD, size=(n, 7))
    return {
        "real": [("v", real)],
        "integer": [("n", np.arange(-3 * n // 2, 3 * n // 2,
                                    dtype=np.int64).reshape(n, 3))],
        "single-row": [("x", np.array(AWKWARD))],
        "multi-array": [("x", real[:, :5]), ("g", real[:, 2:]),
                        ("n", np.arange(5 * n, dtype=np.int32).reshape(n, 5))],
        "one and two columns": [("a", real[:, :1]), ("b", real[:, :2])],
    }


@pytest.mark.parametrize("n_rows", [40, 32, 4])
def test_csv_encoder_matches_per_cell_repr(tmp_path, n_rows):
    header = {"kind": "test", "theta_deg": 19.94, "tag": "19p94"}
    for case, arrays in _awkward_arrays(n_rows).items():
        path = tmp_path / f"{case}.csv"
        gridio._write_csv(path, header, arrays)
        assert path.read_text() == _reference_csv(header, arrays), case


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ulps_from(x, n):
    for _ in range(abs(n)):
        x = float(np.nextafter(x, math.copysign(math.inf, n)))
    return x


# doubles where a shortest-decimal formatter goes wrong, either sign
_HARD_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),  # any bit pattern
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),  # powers of two
    st.builds(lambda k, n: _ulps_from(float(f"1e{k}"), n),  # next to 10^k
              st.integers(-323, 308), st.integers(-3, 3)),
    st.builds(lambda m, e: float(f"{m}e{e}"),  # short decimals
              st.integers(1, 10**7), st.integers(-40, 40)),
    st.builds(lambda base, d: float(base + d),  # integers near 2^53, 1e16, 1e17
              st.sampled_from([2**53, 10**16, 10**17]), st.integers(-10**4, 10**4)),
    st.builds(math.ldexp, st.integers(1, 2**20), st.integers(-70, 10)),  # few bits: ties
    st.integers(1, 2**52 - 1).map(_from_bits),  # subnormals
    st.floats(9e-6, 2e-4), st.floats(9e15, 2e16),  # fixed / exponent switches
    st.sampled_from([0.0, math.inf, math.nan]),
)


@st.composite
def _signed(draw):
    x = draw(_HARD_FLOATS)
    return -x if draw(st.booleans()) else x


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_csv_encoder_bytes_equal_per_value_repr(data):
    """The block encoder writes the bytes of a repr call per value, -nan for
    a NaN whose sign bit is set: one row or many, a row count that blocks
    do not divide."""
    shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12)))
    size = math.prod(shape)
    values = data.draw(st.lists(_signed(), min_size=size, max_size=size))
    arr = np.array(values).reshape(shape)
    block = data.draw(st.sampled_from([gridio._BLOCK, 1, 5, 13, 40]))
    fh = io.BytesIO()
    with mock.patch.object(gridio, "_BLOCK", block):
        gridio._write_rows(fh, gridio._float_rows(arr))
    assert fh.getvalue().decode() == "".join(line + "\n" for line in _reference_lines(arr))


def test_csv_encoder_blocks_hold_about_a_megabyte():
    # a block's temporaries take about 240 bytes a value: 4,096-value
    # blocks peak at 0.99 MB above the rows, 16,384-value blocks at 4.1 MB
    rows = np.random.default_rng(32).standard_normal((513, 257))
    gridio._tables()  # cached from the first CSV write on
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            gridio._write_rows(sink, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5e6


def test_binary_reader_holds_one_copy_of_an_array(tmp_path):
    # each array is read into its own buffer; a bytes copy beside it
    # doubled the peak of a read
    half = np.random.default_rng(7).random((1024, 256))
    path = tmp_path / "wag.bin"
    write_wavelength_angle_grid(path, WavelengthAngleGrid(
        np.linspace(1.2e-6, 2.2e-6, 1024), np.linspace(-0.02, 0.02, 512), domain=half),
        fmt="binary")
    tracemalloc.start()
    try:
        back = read_wavelength_angle_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.domain, half)
    assert peak < 1.25 * half.nbytes


def test_an_array_its_file_cannot_hold_is_refused_before_it_is_allocated(tmp_path):
    # a 10^6 x 10^6 array (7.3 TiB) ended in numpy's MemoryError
    path = tmp_path / "huge.bin"
    path.write_bytes(_binary_file({
        "arrays": [["density", "<f8", [10**6, 10**6]]], "pdcoh_file": 1,
        "kind": "wavelength-angle-density", "fold": "angle >= 0",
        "wavelength_start": 1e-06, "wavelength_step": 1e-09, "n_wavelength": 10**6,
        "angle_start": -0.1, "angle_step": 1e-07, "n_angle": 2 * 10**6}) + bytes(64))
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path}: truncated: array 'density' needs 8000000000000 bytes, 64 remain")):
        read_wavelength_angle_grid(path)


def test_csv_encoder_matches_repr_over_a_seeded_sweep():
    """Random bit patterns, log-uniform values, short decimals, large
    integers, the neighbours of 10^k and 2^e, and doubles of few bits,
    whose decimals tie, in many blocks."""
    rng = np.random.default_rng(24)
    n = 20000
    pow10 = 10.0 ** rng.integers(-300, 300, n)
    pow2 = np.ldexp(1.0, rng.integers(-1074, 1024, n))
    values = np.concatenate([
        rng.integers(0, 2**64, n, dtype=np.uint64).view(float),
        10.0 ** rng.uniform(-310, 308, n),
        np.round(rng.uniform(0, 1e4, n), rng.integers(0, 8)) * 10.0 ** rng.integers(-20, 20, n),
        rng.integers(-2**62, 2**62, n).astype(float),
        np.nextafter(pow10, rng.choice([0, np.inf], n)), pow10,
        np.nextafter(pow2, rng.choice([0, np.inf], n)), pow2,
        np.ldexp(rng.integers(1, 2**20, n).astype(float), rng.integers(-70, 10, n)),
    ])
    values.view(np.uint64)[rng.random(values.size) < 0.5] ^= np.uint64(1 << 63)
    rows = values.reshape(-1, 125)
    fh = io.BytesIO()
    gridio._write_rows(fh, rows)
    assert fh.getvalue().decode() == "".join(line + "\n" for line in _reference_lines(rows))


@pytest.fixture()
def encoded(monkeypatch):
    """The blocks of values handed to gridio's CSV encoder."""
    blocks, encode = [], gridio._encode
    monkeypatch.setattr(gridio, "_encode", lambda rows: blocks.append(rows) or encode(rows))
    return blocks


def _stored(path):
    """The header and the one array a product file stores, as it stores them."""
    with open(path, "rb") as fh:
        binary = fh.read(8) == b"PDCOHBIN"
    header, arrays = (gridio._read_binary if binary else gridio._read_csv)(path)
    (stored,) = arrays.values()
    return header, stored


def test_example_products_store_their_fundamental_domain(tmp_path, encoded):
    """At 256 x 128, S stores its 129 x 65 (|Omega|, |k|) quadrant, the
    wavelength-angle grid its 64 angle >= 0 columns, the real map and
    blurred map their 513 x 129 tau >= 0, xi >= 0 quadrant; CSV hands
    each stored value to the encoder once, and each product reads back bit
    for bit."""
    cfg = CrystalConfig(length_m=0.01, theta_rad=math.radians(19.94),
                        pump_wavelength_m=800e-9, gain=6.0,
                        sellmeier=load_sellmeier("bbo_kato1986"))
    sg = build_spectrum(cfg, auto_grid(cfg, 256, 128))
    cmap = correlation_map(sg)
    # product -> (writer, reader, its array, stored shape, floats formatted)
    products = {
        "S": (write_spectral_grid, read_spectral_grid, sg, "domain",
              (129, 65), 129 * 65),
        "wavelength-angle grid": (
            write_wavelength_angle_grid, read_wavelength_angle_grid,
            to_wavelength_angle(cfg, sg.spec), "domain", (256, 64), 256 * 64),
        "map": (write_coherence_map, read_coherence_map, cmap, "domain",
                (513, 129), 513 * 129),
        "blurred map": (write_coherence_map, read_coherence_map,
                        instrument_blur(cmap, 1e-15, 6e-6), "domain",
                        (513, 129), 513 * 129)}
    for name, (write, read, product, field, shape, formatted) in products.items():
        for fmt in ("csv", "binary"):
            encoded.clear()
            path = tmp_path / f"product.{fmt}"
            write(path, product, fmt=fmt)
            assert sum(rows.size for rows in encoded) == (
                formatted if fmt == "csv" else 0), name
            header, stored = _stored(path)
            assert "fold" in header and stored.shape == shape, (name, fmt)
            back = getattr(read(path), field)
            assert back.dtype == np.float64, (name, fmt)
            assert back.tobytes() == getattr(product, field).tobytes(), (name, fmt)


# --- malformed files end as ConfigurationError naming the file ---


_TAU, _XI = (np.arange(5) - 2) * 1e-15, (np.arange(3) - 1) * 1e-6
# the tau >= 0, xi >= 0 quadrant of a 5 x 3 map
_G = np.arange(6.0).reshape(3, 2)
_POS = np.arange(8) * 4e-8
_SPEC = GridSpec(omega_center=1.2e15, omega_half_width=2e14, n_omega=64,
                 k_half_width=1e5, n_k=64)

# product -> (writer taking a path and an encoding, reader)
_PRODUCTS = {
    "map": (lambda p, fmt: write_coherence_map(p, CoherenceMap(
        _TAU, _XI, domain=_G, carrier_omega=1.2e15,
        intensity=1.0, provenance={}), fmt=fmt), read_coherence_map),
    "spectral": (lambda p, fmt: write_spectral_grid(p, SpectralGrid(
        _SPEC, domain=np.ones((33, 33)), provenance={"gain": 6.0}), fmt=fmt),
        read_spectral_grid),
    "wavelength-angle": (lambda p, fmt: write_wavelength_angle_grid(
        p, WavelengthAngleGrid(np.linspace(1.2e-6, 2.2e-6, 5),
                               np.linspace(-0.02, 0.02, 3), domain=np.ones((5, 2)),
                               provenance={}), fmt=fmt),
        read_wavelength_angle_grid),
    "assembled": (lambda p, fmt: write_assembled_map(p, AssembledMap(
        _TAU, _XI, np.linspace(0, 1, 15).reshape(5, 3), provenance={}),
        fmt=fmt), read_assembled_map),
    "profile": (lambda p, fmt: write_profile(
        p, "coherence-cut", {"theta_tag": "19p94"},
        [("position", _TAU), ("magnitude", np.abs(_TAU))], fmt=fmt),
        lambda p: read_profile(p, "coherence-cut")),
    "trace": (lambda p, fmt: write_trace(p, FringeTrace(
        _POS, 1.0 + np.cos(7.85e6 * _POS), 2e-4, 1.18e15, "19p94",
        "abc123"), fmt=fmt), read_trace),
    "metrics": (lambda p, _: write_metrics(p, {"a": 1.5, "tag": "19p94"}),
                read_metrics),
    "manifest": (lambda p, _: write_manifest(p, [p.parent / "t0.csv"]),
                 read_manifest),
}


def _product_file(tmp_path, fmt):
    """A small product file and its reader. fmt is "csv" or "binary" for a
    coherence map, "<product> csv" or "<product> binary" for another array
    product (a trace among them), or "metrics" or "manifest"."""
    product, _, encoding = fmt.rpartition(" ")
    if not product:
        product = "map" if fmt in ("csv", "binary") else fmt
    write, read = _PRODUCTS[product]
    path = tmp_path / "product.dat"
    write(path, encoding)
    return path, read


def _binary_file(meta):
    blob = json.dumps(meta).encode()
    return b"PDCOHBIN" + struct.pack("<I", len(blob)) + blob


def _garble_header(data):
    (length,) = struct.unpack("<I", data[8:12])
    return data[:12] + b"}" * length + data[12 + length:]


def _replace_line(text, index, new):
    lines = text.split("\n")
    lines[index] = new(lines[index])
    return "\n".join(lines)


def _one_omega_row(text):
    lines = text.splitlines(keepends=True)
    head = [line.replace("# n_omega: 64", "# n_omega: 1")
            for line in lines if line.startswith("#")]
    return "".join(head) + lines[len(head)]


CORRUPTIONS = {
    "truncated binary body": ("binary", lambda b: b[:-5]),
    "oversized length prefix": (
        "binary", lambda b: b[:8] + struct.pack("<I", 1 << 30) + b[12:]),
    "non-JSON binary header": ("binary", _garble_header),
    "binary header that is not a JSON object": (
        "binary", lambda _: _binary_file(["pdcoh_file", 1])),
    "binary header without arrays": (
        "binary", lambda _: _binary_file({"pdcoh_file": 1,
                                          "kind": "coherence-map"})),
    "non-JSON CSV header line": (
        "csv", lambda t: _replace_line(t, 1, lambda _: "# kind: {oops")),
    "short CSV row": (
        "csv", lambda t: _replace_line(t, -3, lambda s: s.rsplit(",", 1)[0])),
    "non-numeric CSV row": (
        "csv", lambda t: _replace_line(t, -2, lambda s: "abc" + s[3:])),
    "CSV header without an axis key": (
        "csv", lambda t: "".join(line for line in t.splitlines(keepends=True)
                                 if not line.startswith("# n_xi:"))),
    "non-JSON metrics value": ("metrics", lambda t: t + "b = nope\n"),
    "renamed CSV array": ("csv", lambda t: t.replace('[["g", ', '[["h", ')),
    "renamed binary array": ("binary", lambda b: b.replace(b'[["g",', b'[["h",')),
    "CSV axis count unlike the rows": (
        "csv", lambda t: t.replace("# n_tau: 5", "# n_tau: 4")),
    "binary axis count unlike the rows": (
        "binary", lambda b: b.replace(b'"n_tau":5', b'"n_tau":4')),
    "CSV assembled map axis count unlike the columns": (
        "assembled csv", lambda t: t.replace("# n_xi: 3", "# n_xi: 2")),
    "binary assembled map axis count unlike the columns": (
        "assembled binary", lambda b: b.replace(b'"n_xi":3', b'"n_xi":2')),
    "one-row spectral grid": ("spectral csv", _one_omega_row),
    "folded CSV spectral grid with more k than it stores": (
        "spectral csv", lambda t: t.replace("# n_k: 64", "# n_k: 128")),
    "folded CSV spectral grid with an odd Omega count": (
        "spectral csv", lambda t: t.replace("# n_omega: 64", "# n_omega: 63")
        .rsplit("\n", 2)[0] + "\n"),
    "folded binary wavelength-angle grid with more angles than it stores": (
        "wavelength-angle binary", lambda b: b.replace(b'"n_angle":3', b'"n_angle":9')),
    "CSV map of an unknown fold": (
        "csv", lambda t: t.replace('# fold: "tau >= 0, xi >= 0"', '# fold: "xi"')),
    "CSV map with a NaN tau_start": (
        "csv", lambda t: t.replace("# tau_start: -2e-15", "# tau_start: NaN")),
    "CSV spectral grid with an infinite k_step": (
        "spectral csv", lambda t: t.replace("# k_step: 3125.0", "# k_step: Infinity")),
    "binary map with a fractional axis count": (
        "binary", lambda b: b.replace(b'"n_xi":3', b'"n_xi":3.0')),
    # the body is parsed whole, with no comments: loadtxt's default would
    # cut this row's tail and keep it
    "CSV body row that holds #": (
        "csv", lambda t: _replace_line(t, -2, lambda s: s + " # note")),
    "header-only CSV file": (
        "csv", lambda t: "".join(line for line in t.splitlines(keepends=True)
                                 if line.startswith("#"))),
    "CSV profile whose two rows differ in width": (
        "profile csv", lambda t: _replace_line(t, -2, lambda s: s.rsplit(",", 1)[0])),
    "CSV row with an empty cell": (
        "csv", lambda t: _replace_line(t, -2, lambda s: "," + s.split(",", 1)[1])),
}


# and no warning reaches the caller, such as loadtxt's on an empty body
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_files_are_configuration_errors(tmp_path, corruption):
    fmt, corrupt = CORRUPTIONS[corruption]
    path, read = _product_file(tmp_path, fmt)
    if fmt.endswith("binary"):
        path.write_bytes(corrupt(path.read_bytes()))
    else:
        path.write_text(corrupt(path.read_text()))
    with pytest.raises(ConfigurationError, match=re.escape(str(path))) as info:
        read(path)
    assert "broadcast" not in str(info.value)


def _intact(kind):
    """Bytes of a small product file (see _product_file), and its reader."""
    with tempfile.TemporaryDirectory() as root:
        path, read = _product_file(Path(root), kind)
        return path.read_bytes(), read


FUZZED = ["csv", "binary", "metrics", "manifest"] + [
    f"{product} {encoding}" for product in
    ("spectral", "wavelength-angle", "assembled", "profile", "trace")
    for encoding in ("csv", "binary")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZED), st.booleans(),
       st.integers(0, 1 << 16), st.integers(0, 255))
def test_truncated_or_flipped_files_decode_or_raise_typed(kind, truncate, at, byte):
    data, read = _intact(kind)
    at %= len(data)
    damaged = data[:at] if truncate else data[:at] + bytes([byte]) + data[at + 1:]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "damaged.dat"
        path.write_bytes(damaged)
        # warnings as errors around the read only: a filterwarnings mark
        # would also turn Hypothesis's own reporting of a failure into one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                read(path)
            except PdcohError:
                pass


# --- write/read round trips over random shapes ---


def _dyadic(draw):
    return math.ldexp(draw(st.integers(1, 1023)), draw(st.integers(-60, 20)))


def _exact_axis(draw, n=None):
    """A uniform axis that the start/step/count header holds exactly: a
    dyadic step, and nodes that are small integer multiples of it."""
    n = n or draw(st.integers(1, 12))
    return (draw(st.integers(-600, 600)) + np.arange(n)) * _dyadic(draw)


def _values(draw, shape):
    """Random values over many decades, a fifth of them AWKWARD."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = math.prod(shape)
    flat = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    special = rng.random(size) < 0.2
    flat[special] = rng.choice(AWKWARD, int(special.sum()))
    return flat.reshape(shape)


def _header_float(draw):
    return draw(st.floats(allow_nan=False, allow_infinity=False))


def _domain(draw, symmetry, shape):
    """Random values of the shape of symmetry's domain of an array of shape."""
    return _values(draw, symmetry(np.empty(shape))[0].shape)


def _check_stored(path, domain):
    """The file is folded and stores domain, bit for bit."""
    header, stored = _stored(path)
    assert "fold" in header
    assert stored.shape == domain.shape
    assert stored.tobytes() == np.ascontiguousarray(domain).tobytes()


def _coherence_round_trip(draw, path, fmt):
    tau, xi = _exact_axis(draw), _exact_axis(draw)
    quadrant = _domain(draw, map_mirror, (tau.size, xi.size))
    write_coherence_map(path, CoherenceMap(
        tau, xi, domain=quadrant, carrier_omega=_header_float(draw),
        intensity=_header_float(draw), provenance={}), fmt=fmt)
    _check_stored(path, quadrant)
    back = read_coherence_map(path)
    return [(back.tau_axis, tau), (back.xi_axis, xi), (back.domain, quadrant)]


def _spectral_round_trip(draw, path, fmt):
    # any spec, not one whose axes the start/step/count header holds exactly
    n_omega, n_k = draw(st.sampled_from([64, 128])), draw(st.sampled_from([64, 128]))
    half_w = draw(st.floats(1e9, 1e16))
    spec = GridSpec(omega_center=half_w * draw(st.floats(1.001, 1e3)),
                    omega_half_width=half_w, n_omega=n_omega,
                    k_half_width=draw(st.floats(1.0, 1e9)), n_k=n_k)
    quadrant = _domain(draw, s_mirror, (n_omega, n_k))
    write_spectral_grid(path, SpectralGrid(spec, domain=quadrant), fmt=fmt)
    _check_stored(path, quadrant)
    back = read_spectral_grid(path)
    assert back.spec == spec
    return [(back.omega_axis(), spec.omega_axis()), (back.k_axis(), spec.k_axis()),
            (back.domain, quadrant)]


def _wavelength_angle_round_trip(draw, path, fmt):
    lam, theta = _exact_axis(draw), _exact_axis(draw)
    half = _domain(draw, angle_mirror, (lam.size, theta.size))
    write_wavelength_angle_grid(path, WavelengthAngleGrid(lam, theta, domain=half), fmt=fmt)
    _check_stored(path, half)
    back = read_wavelength_angle_grid(path)
    return [(back.wavelength_axis_m, lam), (back.angle_axis_rad, theta),
            (back.domain, half)]


def _assembled_round_trip(draw, path, fmt):
    tau, xi = _exact_axis(draw), _exact_axis(draw)
    magnitude = _values(draw, (tau.size, xi.size))
    write_assembled_map(path, AssembledMap(tau, xi, magnitude), fmt=fmt)
    back = read_assembled_map(path)
    return [(back.tau_axis, tau), (back.xi_axis, xi), (back.magnitude, magnitude)]


def _profile_round_trip(draw, path, fmt):
    n = draw(st.integers(1, 30))
    columns = [(f"c{i}", _values(draw, (n,))) for i in range(draw(st.integers(1, 4)))]
    write_profile(path, "coherence-cut", {"theta_tag": "19p94"}, columns, fmt=fmt)
    _, back = read_profile(path, "coherence-cut")
    assert list(back) == [name for name, _ in columns]
    return [(back[name], arr) for name, arr in columns]


def _trace_round_trip(draw, path, fmt):
    # a trace file holds its stage sweep as a uniform axis
    positions = _exact_axis(draw, draw(st.integers(2, 40)))
    n = positions.size
    # a trace holds finite, nonnegative intensities
    values = _values(draw, (n,))
    values = np.where(np.isfinite(values), values, 1e308)
    intensities = np.where(values < 0, -values, values)
    trace = FringeTrace(positions, intensities, _header_float(draw),
                        _header_float(draw), "19p94")
    write_trace(path, trace, fmt=fmt)
    back = read_trace(path)
    assert (back.bs2_position_m, back.carrier_omega) == (
        trace.bs2_position_m, trace.carrier_omega)
    return [(back.positions_m, positions), (back.intensities, intensities)]


ROUND_TRIPS = {
    "coherence map": _coherence_round_trip,
    "spectral grid": _spectral_round_trip,
    "wavelength-angle grid": _wavelength_angle_round_trip,
    "assembled map": _assembled_round_trip,
    "profile": _profile_round_trip,
    "trace": _trace_round_trip,
}


@pytest.mark.parametrize("kind, fmt", [(kind, fmt) for kind in ROUND_TRIPS
                                       for fmt in ("csv", "binary")])
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_product_round_trips_bit_for_bit(kind, fmt, data):
    with tempfile.TemporaryDirectory() as root:
        pairs = ROUND_TRIPS[kind](data.draw, Path(root) / "product.dat", fmt)
    for back, written in pairs:
        assert back.dtype == written.dtype and back.shape == written.shape
        assert back.tobytes() == written.tobytes()
