import ast
import dataclasses
import functools
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
from pdcoh.dispersion import ExtraordinaryAtAngle
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
from pdcoh.spectrum import WavelengthAngleGrid, angle_mirror, check_grid_size, domain_shape, \
    s_mirror, to_wavelength_angle


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


def test_spectral_grid_header_gives_its_grid_once(tmp_path, sg):
    # the five GridSpec numbers, the counts as integers, and no axis
    # start/step beside them
    path = tmp_path / "grid.csv"
    write_spectral_grid(path, sg)
    text = path.read_text()
    assert text.startswith('# pdcoh_file: 1\n# kind: "spectral-density"\n'
                           "# omega_center: 1200000000000000.0\n"
                           "# omega_half_width: 200000000000000.0\n# n_omega: 64\n"
                           "# k_half_width: 100000.0\n# n_k: 64\n")
    assert "_start" not in text and "_step" not in text
    for key in ("omega_center", "omega_half_width", "n_omega", "k_half_width", "n_k"):
        path.write_text(text.replace(f"# {key}: ", "# other: "))
        with pytest.raises(ConfigurationError) as info:
            read_spectral_grid(path)
        assert str(info.value) == f"{path}: header lacks {key!r}"


def test_an_old_spectral_header_is_read_by_its_grid_spec(tmp_path):
    # files from before S gave its grid once also held each axis's
    # start/step/count; the GridSpec numbers decide, and the axis keys are
    # kept as provenance
    density = np.arange(33.0)[:, None] + np.arange(33) / 64
    path = tmp_path / "s.csv"
    path.write_text(OLD_S_HEAD.replace("# columns:", '# fold: "|Omega|, |k|"\n# columns:')
                    .replace("# k_step: 3125.0", "# k_step: 1.0") + "".join(
        ",".join(map(repr, row)) + "\n" for row in density.tolist()))
    back = read_spectral_grid(path)
    assert back.spec == GridSpec(omega_center=1.2e15, omega_half_width=2e14, n_omega=64,
                                 k_half_width=1e5, n_k=64)
    assert back.k_axis()[1] - back.k_axis()[0] == 3125.0
    assert back.provenance["k_step"] == 1.0
    assert np.array_equal(back.domain, density)


def test_trace_with_a_non_finite_intensity_is_refused(tmp_path):
    pos = np.linspace(0.0, 1e-6, 5)
    path = tmp_path / "trace.csv"
    write_trace(path, FringeTrace(pos, np.ones(5), 0.0, 1.2e15))
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
                        domain=np.linspace(0, 1, 55).reshape(11, 5),
                        provenance={"n_traces": 5})
    path = tmp_path / "amap.dat"
    write_assembled_map(path, amap, fmt=fmt)
    back = read_assembled_map(path)
    assert np.array_equal(back.domain, amap.domain)
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
            f"AssembledMap domain has shape {shape}; axes of 3 x 2 nodes give (3, 2)")):
        AssembledMap(np.arange(3) * 1e-15, np.arange(2) * 1e-6, domain=np.ones(shape))



def test_folded_products_compare_by_identity():
    # a field-wise == of their arrays has no truth value; each product is
    # equal to itself only, and hashable, as S was before it was a Folded.
    # Two equal assembled maps or traces compared with == raised "The truth
    # value of an array with more than one element is ambiguous".
    for product in (SpectralGrid(_SPEC, domain=np.ones((33, 33))),
                    CoherenceMap(_TAU, _XI, 1.2e15, 1.0, domain=_G),
                    WavelengthAngleGrid(np.linspace(1.2e-6, 2.2e-6, 5),
                                        np.linspace(-0.02, 0.02, 3), domain=np.ones((5, 2))),
                    AssembledMap(**_HELD[AssembledMap]), FringeTrace(**_HELD[FringeTrace])):
        twin = dataclasses.replace(product)
        assert product == product and product != twin
        assert len({product, twin}) == 2

def test_single_column_map_keeps_its_shape(tmp_path):
    amap = AssembledMap(tau_axis=np.arange(9) * 1e-15,
                        xi_axis=np.array([3e-6]),
                        domain=np.arange(9.0).reshape(9, 1),
                        provenance={})
    path = tmp_path / "one.csv"
    write_assembled_map(path, amap)
    back = read_assembled_map(path)
    assert back.domain.shape == (9, 1)
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


def test_a_header_value_json_holds_is_written_as_it_is(tmp_path):
    # null, a list and a numpy bool were written as their str: "None",
    # "[1, 'a']" and "True"
    record = {"none": None, "list": [1, "a"], "flag": np.bool_(True), "n": np.int64(3)}
    want = {"none": None, "list": [1, "a"], "flag": True, "n": 3}
    write_metrics(tmp_path / "metrics.txt", record)
    write_profile(tmp_path / "cut.csv", "coherence-cut", record, [("position", np.arange(3.0))])
    assert read_metrics(tmp_path / "metrics.txt") == want
    assert read_profile(tmp_path / "cut.csv", "coherence-cut")[0] == want


def test_metrics_and_manifests_skip_blank_and_comment_lines(tmp_path):
    # pdcoh writes neither, but a hand-edited record or listing may hold them
    metrics, manifest = tmp_path / "metrics.txt", tmp_path / "manifest.txt"
    metrics.write_text("# pdcoh_metrics: 1\n\n# a note\na = 1.5\n")
    manifest.write_text("# pdcoh_manifest: 1\n\n# a note\nt0.csv\n")
    assert read_metrics(metrics) == {"a": 1.5}
    assert read_manifest(manifest) == [tmp_path.resolve() / "t0.csv"]


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
             f"wavelength-angle-density files have fold {WAG_FOLD!r}")):
        path = tmp_path / name
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(f'{path}: {fold}')}, this one None$"):
            read(path)


WAG_FOLD = "angle >= 0, rows without trailing zeros"


def test_a_wavelength_angle_grid_of_every_angle_ge_0_column_is_refused(tmp_path):
    # files that stored the grid's whole angle >= 0 half, trailing zeros
    # and all, declared the fold "angle >= 0": refused in either encoding
    head = {"kind": "wavelength-angle-density", "wavelength_start": 1e-06,
            "wavelength_step": 1e-07, "n_wavelength": 2, "angle_start": -0.5,
            "angle_step": 0.5, "n_angle": 3, "fold": "angle >= 0"}
    half = np.array([[2.0, 1.0], [4.0, 0.0]])
    (tmp_path / "wag.csv").write_text(
        "# pdcoh_file: 1\n" + "".join(f"# {key}: {json.dumps(value)}\n"
                                      for key, value in head.items())
        + '# columns: [["density", "real"]]\n2.0,1.0\n4.0,0.0\n')
    (tmp_path / "wag.bin").write_bytes(_binary_file({
        **head, "pdcoh_file": 1, "arrays": [["density", "<f8", [2, 2]]]}) + half.tobytes())
    for name in ("wag.csv", "wag.bin"):
        path = tmp_path / name
        with pytest.raises(ConfigurationError) as info:
            read_wavelength_angle_grid(path)
        assert str(info.value) == (f"{path}: wavelength-angle-density files have fold "
                                   f"{WAG_FOLD!r}, this one 'angle >= 0'")


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
        "n_position: 3", "n_position: 1", "stage positions must be two or more"),
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
        "position_step: 4e-08", "position_step: 0.0", "increase strictly"),
    "negative position_step": (
        "position_step: 4e-08", "position_step: -4e-08", "increase strictly"),
    "position_step too small to advance the sweep": (
        "position_start: 0.0\n# position_step: 4e-08",
        "position_start: 1.0\n# position_step: 1e-20", "increase strictly"),
    "intensity row shorter than n_position": (
        "2.0,1.0,0.5", "2.0,1.0",
        r"of one length; got shapes \(3,\) and \(2,\)"),
    "intensities in two rows": (
        "2.0,1.0,0.5", "2.0,1.0,0.5\n0.5,1.0,2.0",
        r"of one length; got shapes \(3,\) and \(2, 3\)"),
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


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("tau", [[np.nan, 1, 2], [0, np.inf, 2]])
def test_a_non_finite_axis_is_refused_before_anything_is_written(tmp_path, tau, fmt):
    # such a file was written, and then refused by its reader; the map is
    # now refused as it is built, so no writer is reached
    path = tmp_path / "amap.dat"
    with pytest.raises(ConfigurationError, match=re.escape(
            "AssembledMap tau_axis must hold one or more finite nodes that increase strictly")):
        write_assembled_map(path, AssembledMap(np.array(tau) * 1e-15, _XI,
                                               domain=np.ones((3, 3))), fmt=fmt)
    assert not path.exists()


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


@pytest.mark.parametrize("lengths, words", [
    ([0] * 10**4, "row_lengths must list one integer in [500, 1000] per row"),
    ([500] * 10**4, "row_lengths keep 5000000 values, which fill 5000 rows of 1000, "
                    "not the 1 stored")])
def test_row_lengths_that_unpack_past_the_file_are_refused_before_the_domain_is_allocated(
        tmp_path, lengths, words):
    # a 10^4 x 1000 domain (80 MB) from a file of one stored row: all-zero
    # rows, two header bytes each, once unpacked it at about 2,000 times
    # the file's size
    path = tmp_path / "wag.bin"
    path.write_bytes(_binary_file({
        "arrays": [["density", "<f8", [1, 1000]]], "pdcoh_file": 1,
        "kind": "wavelength-angle-density", "fold": WAG_FOLD, "row_lengths": lengths,
        "wavelength_start": 1e-06, "wavelength_step": 1e-10, "n_wavelength": 10**4,
        "angle_start": -0.1, "angle_step": 1e-4, "n_angle": 1999}) + bytes(8000))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError) as info:
            read_wavelength_angle_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: {words}"
    assert peak < 20 * path.stat().st_size


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
    """The header and the one array a product file stores, as it stores
    them, read past gridio, whose reader unpacks a packed domain."""
    data = path.read_bytes()
    if not data.startswith(b"PDCOHBIN"):
        header, arrays = gridio._read_csv(path)
        ((stored,),) = [arrays.values()]
        return header, stored
    (length,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + length])
    ((_, _, shape),) = header["arrays"]
    return header, np.frombuffer(data[12 + length:], "<f8").reshape(shape)


def test_example_products_store_their_fundamental_domain(tmp_path, encoded):
    """At 256 x 128, S stores its 129 x 65 (|Omega|, |k|) quadrant, the
    wavelength-angle grid the 12,116 values of its 256 x 64 angle >= 0
    columns that precede each row's trailing zeros, packed into 190 rows of
    64, the real map and blurred map their 513 x 129 tau >= 0, xi >= 0
    quadrant; CSV hands each stored value to the encoder once, and each
    product reads back bit for bit."""
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
            to_wavelength_angle(cfg, sg.spec), "domain", (190, 64), 190 * 64),
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
            assert sum(header.get("row_lengths", ())) == (
                12116 if name == "wavelength-angle grid" else 0), (name, fmt)
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
# the angle >= 0 half of a 5 x 7 grid: a full row, a trailing zero run of
# one value, one that runs into the row's first half, an all-zero row, zeros
# kept before a value; each row keeps its first half, so 15 values are
# stored in 4 rows of 4, the last padded
_WAG = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 0.0], [8.0, 0.0, 0.0, 0.0],
                 [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 9.0]])

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
                               np.linspace(-0.02, 0.02, 7), domain=_WAG,
                               provenance={}), fmt=fmt),
        read_wavelength_angle_grid),
    "assembled": (lambda p, fmt: write_assembled_map(p, AssembledMap(
        _TAU, _XI, domain=np.linspace(0, 1, 15).reshape(5, 3), provenance={}),
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


# each class's fields of a product or value it holds; check_grid_size's
# arguments of a count it holds
_HELD = {
    CoherenceMap: {"tau_axis": _TAU, "xi_axis": _XI, "domain": _G,
                   "carrier_omega": 1.2e15, "intensity": 1.0},
    WavelengthAngleGrid: {"wavelength_axis_m": np.linspace(1.2e-6, 2.2e-6, 5),
                          "angle_axis_rad": np.linspace(-0.02, 0.02, 3),
                          "domain": np.ones((5, 2))},
    AssembledMap: {"tau_axis": _TAU, "xi_axis": _XI, "domain": np.ones((5, 3))},
    FringeTrace: {"positions_m": _POS, "intensities": np.ones(8),
                  "bs2_position_m": 2e-4, "carrier_omega": 1.18e15},
    GridSpec: dataclasses.asdict(_SPEC),
    CrystalConfig: {"length_m": 0.01, "theta_rad": 0.35, "pump_wavelength_m": 800e-9,
                    "gain": 6.0, "sellmeier": load_sellmeier("bbo_kato1986")},
    InterferometerConfig: {"split_ratio": (0.5, 0.5), "magnification": 6.6},
    ExtraordinaryAtAngle: {"theta": 0.35},
    check_grid_size: {"field": "n_omega", "n": 64},
}


def _bad_axes(axis):
    """axis with a NaN or an infinite node, a zero or a negative step,
    reversed, or empty."""
    return {**{f"{name} node": np.r_[axis[:1], value, axis[2:]] for name, value in
               (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))},
            "zero step": np.r_[axis[:1], axis[:-1]],
            "negative step": np.r_[axis[1], axis[0], axis[2:]],
            "reversed": axis[::-1], "empty": axis[:0]}


_BAD_NUMBERS = {"zero": 0, "negative": -1, "nan": math.nan, "inf": math.inf,
                "-inf": -math.inf, "text": "abc", "none": None, "bool": True}

# each class's number fields, with the cases of _BAD_NUMBERS that each holds:
# a BS2 position of 0 or -1 m is a position, a gain and an angle may be 0
_NUMBERS = {
    CoherenceMap: {"carrier_omega": (), "intensity": ()},
    FringeTrace: {"carrier_omega": (), "bs2_position_m": ("zero", "negative")},
    GridSpec: dict.fromkeys(dataclasses.asdict(_SPEC), ()),
    CrystalConfig: {"length_m": (), "theta_rad": (), "pump_wavelength_m": (),
                    "gain": ("zero",)},
    InterferometerConfig: {"magnification": ()},
    ExtraordinaryAtAngle: {"theta": ("zero",)},
    check_grid_size: {"n": ()},
}

# "<class> <field> <case>" -> (class, field, value)
_REFUSED = {
    **{f"{cls.__name__} {name} {case}": (cls, name, bad) for cls, held in _HELD.items()
       for name in ("tau_axis", "xi_axis", "wavelength_axis_m", "angle_axis_rad",
                    "positions_m") if name in held
       for case, bad in _bad_axes(held[name]).items()},
    **{f"{cls.__name__} {name} {case}": (cls, name, bad)
       for cls, fields in _NUMBERS.items() for name, holds in fields.items()
       for case, bad in _BAD_NUMBERS.items() if case not in holds},
    **{f"InterferometerConfig split_ratio {case}": (
        InterferometerConfig, "split_ratio", (bad, 0.5)) for case, bad in _BAD_NUMBERS.items()},
    **{f"WavelengthAngleGrid wavelength_axis_m from {start}": (
        WavelengthAngleGrid, "wavelength_axis_m", np.linspace(start, 1e-6, 5))
       for start in (0.0, -1.0)},
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_a_product_built_in_memory_refuses_what_its_file_would(case):
    # the maps and the grid took each of these as given, and only a file's
    # reader refused some; the value classes raised a raw TypeError for text,
    # None or a NaN grid count, and took True or an infinite grid centre
    cls, name, bad = _REFUSED[case]
    cls(**_HELD[cls])
    with pytest.raises(ConfigurationError):
        cls(**{**_HELD[cls], name: bad})


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


def _header_set(data, key, value):
    """A product file's text or bytes with one header field rewritten."""
    if isinstance(data, bytes):
        (length,) = struct.unpack("<I", data[8:12])
        meta = json.loads(data[12:12 + length])
        return _binary_file({**meta, key: value}) + data[12 + length:]
    return re.sub(f"^# {key}: .*$", f"# {key}: {json.dumps(value)}", data, flags=re.M)


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
        "wavelength-angle binary", lambda b: b.replace(b'"n_angle":7', b'"n_angle":13')),
    "CSV map of an unknown fold": (
        "csv", lambda t: t.replace('# fold: "tau >= 0, xi >= 0"', '# fold: "xi"')),
    "CSV map with a NaN tau_start": (
        "csv", lambda t: t.replace("# tau_start: -2e-15", "# tau_start: NaN")),
    "CSV spectral grid with an infinite k_half_width": (
        "spectral csv", lambda t: t.replace("# k_half_width: 100000.0",
                                            "# k_half_width: Infinity")),
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
    # the profile's two columns are two rows: one of them cannot be split
    "CSV profile missing a row": (
        "profile csv", lambda t: t.rsplit("\n", 2)[0] + "\n"),
    "binary file of another format version": (
        "binary", lambda b: b.replace(b'"pdcoh_file":1', b'"pdcoh_file":2')),
    "CSV map with a zero tau_step": (
        "csv", lambda t: _header_set(t, "tau_step", 0.0)),
    "binary map with a negative xi_step": (
        "binary", lambda b: _header_set(b, "xi_step", -1e-06)),
    "CSV map with a text carrier_omega": (
        "csv", lambda t: _header_set(t, "carrier_omega", "abc")),
    "binary map with a NaN intensity": (
        "binary", lambda b: _header_set(b, "intensity", math.nan)),
    "CSV map with a zero carrier_omega": (
        "csv", lambda t: _header_set(t, "carrier_omega", 0)),
    "binary map with a negative intensity": (
        "binary", lambda b: _header_set(b, "intensity", -1)),
    "CSV wavelength-angle grid with a negative wavelength_start": (
        "wavelength-angle csv", lambda t: _header_set(t, "wavelength_start", -1)),
    "binary trace with a zero carrier_omega": (
        "trace binary", lambda b: _header_set(b, "carrier_omega", 0.0)),
    "CSV trace with a numeric orientation": (
        "trace csv", lambda t: _header_set(t, "orientation", 0)),
    "CSV trace with a null icfg_hash": (
        "trace csv", lambda t: _header_set(t, "icfg_hash", None)),
    "binary trace without a carrier_omega": (
        "trace binary", lambda b: b.replace(b'"carrier_omega"', b'"carrier_omegA"')),
}
# product -> one of its axis counts
_COUNTS = {"map": "n_tau", "spectral": "n_k", "wavelength-angle": "n_angle",
           "assembled": "n_xi", "trace": "n_position"}
# a count whose axis numpy refuses to allocate at once (72.8 TiB); one of
# 10^9 to 10^10 would really allocate gigabytes before the bound was there
CORRUPTIONS.update({
    f"{product} {fmt} axis count of 10**13": (
        f"{product} {fmt}", lambda data, key=key: _header_set(data, key, 10 ** 13))
    for product, key in _COUNTS.items() for fmt in ("csv", "binary")})


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
    assert str(info.value).count(str(path)) == 1


def _set_header(path, key, value):
    """Rewrite one header field of a product file, in either encoding."""
    data = path.read_bytes()
    if data.startswith(b"PDCOHBIN"):
        path.write_bytes(_header_set(data, key, value))
    else:
        path.write_text(_header_set(data.decode(), key, value))


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_an_axis_count_is_bounded_by_the_data_before_its_axis_is_built(tmp_path, fmt):
    # a trace's 8 intensities fill at most 2 * 8 + 1 nodes: one more is
    # refused by _read, that count itself by FringeTrace, both naming the file
    path, read = _product_file(tmp_path, f"trace {fmt}")
    _set_header(path, "n_position", 18)
    with pytest.raises(ConfigurationError) as info:
        read(path)
    assert str(info.value) == (f"{path}: n_position is 18, more nodes than the "
                               "file's data can fill (at most 17)")
    _set_header(path, "n_position", 17)
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(path))}: "
                       r"positions and .* got shapes \(17,\) and \(8,\)$"):
        read(path)


# product -> (an axis count, a count its stored array does not fit, the
# refusal of the product's class)
_RESHAPED = {
    "map": ("n_tau", 7,
            "CoherenceMap domain has shape (3, 2); axes of 7 x 3 nodes give (4, 2)"),
    "spectral": ("n_k", 128,
                 "SpectralGrid domain has shape (33, 33); axes of 64 x 128 nodes give (33, 65)"),
    "wavelength-angle": ("n_angle", 13, "WavelengthAngleGrid domain has shape (5, 4); "
                         "axes of 5 x 13 nodes give (5, 7)"),
    "assembled": ("n_xi", 2,
                  "AssembledMap domain has shape (5, 3); axes of 5 x 2 nodes give (5, 2)"),
}


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("product", sorted(_RESHAPED))
def test_an_array_its_axes_do_not_give_is_refused_by_its_class_naming_the_file(
        tmp_path, product, fmt):
    key, count, words = _RESHAPED[product]
    path, read = _product_file(tmp_path, f"{product} {fmt}")
    _set_header(path, key, count)
    with pytest.raises(ConfigurationError) as info:
        read(path)
    assert str(info.value) == f"{path}: {words}"


@functools.cache
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


# --- one load for every file, by the kind its header names ---


def _same(a, b):
    """Products read back are equal: the same fields, the same values, and
    arrays the same bit for bit."""
    x, y = dict(_fields(a)), dict(_fields(b))
    assert x.keys() == y.keys()
    for name, value in x.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == y[name].dtype and value.tobytes() == y[name].tobytes()
        else:
            assert type(value) is type(y[name]) and value == y[name], name


def _fields(product, name=""):
    """(name, value) of each field, item or element a product holds."""
    if isinstance(product, dict):
        items = product.items()
    elif isinstance(product, (list, tuple)):
        items = enumerate(product)
    elif dataclasses.is_dataclass(product):
        items = vars(product).items()
    else:
        yield name, product
        return
    for key, item in items:
        yield from _fields(item, f"{name}.{key}" if name else str(key))


@pytest.mark.parametrize("fmt", FUZZED)
def test_load_reads_a_file_as_its_own_reader_does(tmp_path, fmt):
    path, read = _product_file(tmp_path, fmt)
    _same(gridio.load(path), read(path))


@pytest.mark.parametrize("kind, refusal", [
    ("cut", "unknown kind 'cut'"), (None, "unknown kind None"),
    (["coherence-map"], "unknown kind ['coherence-map']")])
@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_load_refuses_a_kind_it_has_no_reader_for_naming_the_file(tmp_path, fmt, kind,
                                                                   refusal):
    path, _ = _product_file(tmp_path, fmt)
    _set_header(path, "kind", kind)
    with pytest.raises(ConfigurationError) as info:
        gridio.load(path)
    assert str(info.value) == f"{path}: {refusal}"


def test_load_refuses_a_header_without_a_kind_naming_the_file(tmp_path):
    path, _ = _product_file(tmp_path, "csv")
    path.write_text(re.sub("^# kind: .*\n", "", path.read_text(), flags=re.M))
    with pytest.raises(ConfigurationError) as info:
        gridio.load(path)
    assert str(info.value) == f"{path}: header lacks 'kind'"



@pytest.mark.parametrize("case", ["missing", "directory", "empty"])
@pytest.mark.parametrize("reader", [*gridio.READERS, "load"])
def test_every_reader_refuses_a_file_it_cannot_read_naming_it(tmp_path, reader, case):
    # a path that is not there, a directory or an empty file ends in a
    # PdcohError naming the path, never in a raw OSError
    path = tmp_path / "product.dat"
    if case == "directory":
        path.mkdir()
    elif case == "empty":
        path.touch()
    read = gridio.load if reader == "load" else gridio.READERS[reader]
    with pytest.raises(PdcohError) as info:
        read(path)
    assert str(path) in str(info.value)

def _header_keys(data):
    """The keys of a file's header: a binary file's JSON header, the `# key:`
    lines of a text file (its first line among them), and a metrics
    record's `key = value` lines."""
    if data.startswith(b"PDCOHBIN"):
        (length,) = struct.unpack("<I", data[8:12])
        return sorted(json.loads(data[12:12 + length]))
    text = data.decode()
    return sorted(re.findall(r"^# (\w+):", text, flags=re.M)
                  + re.findall(r"^(\w+) = ", text, flags=re.M))


def _rewrite(data, key, value):
    """A file's bytes with the value of one of its _header_keys replaced."""
    if data.startswith(b"PDCOHBIN"):
        return _header_set(data, key, value)
    text = _header_set(data.decode(), key, value)
    return re.sub(f"^{key} = .*$", f"{key} = {json.dumps(value)}", text, flags=re.M).encode()


# what a hand-edited header may hold where a number or a text belongs;
# 10**13 as a count is refused by its bound, not by an allocation
REWRITES = [math.nan, math.inf, -math.inf, "abc", 0, -1, True, None, 10 ** 13]
# fields that hold an axis: finite and strictly increasing
AXES = {"tau_axis", "xi_axis", "wavelength_axis_m", "angle_axis_rad", "positions_m"}
# fields, or axes, whose every value is positive
POSITIVE = {"carrier_omega", "intensity", "wavelength_axis_m"}


def _check_fields(back, intact):
    """back, read from a rewritten file, holds the intact file's arrays and
    fields of their kinds: text where text was, a finite number where a
    number was, an axis finite and increasing, a carrier, an intensity and
    a wavelength positive. Provenance and metrics records are not checked."""
    if isinstance(back, dict):
        return
    if isinstance(back, tuple):  # a profile: (header, columns)
        back, intact = back[1], intact[1]
    got = {name: value for name, value in _fields(back)
           if "provenance" not in name.split(".")}
    want = dict(_fields(intact))
    for name, value in got.items():
        old = want[name]
        if name.rsplit(".", 1)[-1] in POSITIVE:
            assert np.all(np.asarray(value) > 0), name
        if isinstance(old, np.ndarray):
            assert value.dtype == old.dtype and value.shape == old.shape, name
            if name.rsplit(".", 1)[-1] in AXES:
                assert np.isfinite(value).all() and (np.diff(value) > 0).all(), name
            else:
                assert value.tobytes() == old.tobytes(), name
        elif isinstance(old, str):
            assert isinstance(value, str), name
        elif isinstance(old, Path):
            assert value == old, name
        else:
            assert type(value) in (int, float) and math.isfinite(value), name


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZED), st.data())
def test_a_rewritten_header_value_is_refused_or_holds_its_kind(fmt, data):
    intact_bytes, read = _intact(fmt)
    key = data.draw(st.sampled_from(_header_keys(intact_bytes)), label="key")
    value = data.draw(st.sampled_from(REWRITES), label="value")
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "product.dat"
        path.write_bytes(intact_bytes)
        intact = read(path)
        path.write_bytes(_rewrite(intact_bytes, key, value))
        try:
            back = gridio.load(path)
        except PdcohError as exc:
            assert str(path) in str(exc)
            return
    _check_fields(back, intact)


def _given_tests_that_make_warnings_errors(source):
    """Names of the tests in source that are decorated with Hypothesis's
    given and carry a filterwarnings("error...") mark, their own or the
    module's pytestmark."""
    def called(node, name):
        return isinstance(node, ast.Call) and name in ast.unparse(node.func).split(".")

    def errors(tree):
        return any(called(node, "filterwarnings") and any(
            isinstance(arg, ast.Constant) and str(arg.value).startswith("error")
            for arg in node.args) for node in ast.walk(tree))

    module = ast.parse(source)
    module_marked = any(errors(stmt.value) for stmt in module.body
                        if isinstance(stmt, ast.Assign)
                        and any(getattr(t, "id", None) == "pytestmark" for t in stmt.targets))
    return [node.name for node in ast.walk(module) if isinstance(node, ast.FunctionDef)
            and any(called(d, "given") for d in node.decorator_list)
            and (module_marked or any(errors(d) for d in node.decorator_list))]


def test_no_hypothesis_test_turns_warnings_into_errors_by_a_mark():
    # such a mark also turns a warning in Hypothesis's own reporting of a
    # failing example into an error, and pytest then ends in INTERNALERROR
    # with the failure unseen; scope the warnings with
    # warnings.catch_warnings() around the call under test instead
    test = "@given(st.integers())\ndef test_x(n):\n    pass\n"
    for marked in ('@pytest.mark.filterwarnings("error")\n' + test,
                   'pytestmark = [pytest.mark.filterwarnings("error::UserWarning")]\n' + test):
        assert _given_tests_that_make_warnings_errors(marked) == ["test_x"]
    assert _given_tests_that_make_warnings_errors(test) == []
    found = {path.name: _given_tests_that_make_warnings_errors(path.read_text())
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert not {name: tests for name, tests in found.items() if tests}


# --- write/read round trips over random shapes ---


def _dyadic(draw):
    return math.ldexp(draw(st.integers(1, 1023)), draw(st.integers(-60, 20)))


def _exact_axis(draw, n=None, first=-600):
    """A uniform axis that the start/step/count header holds exactly: a
    dyadic step, and nodes that are small integer multiples of it, the
    first node k steps, k >= first."""
    n = n or draw(st.integers(1, 12))
    return (draw(st.integers(first, 600)) + np.arange(n)) * _dyadic(draw)


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


def _positive_float(draw):
    return draw(st.floats(0, exclude_min=True, allow_infinity=False))


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
        tau, xi, domain=quadrant, carrier_omega=_positive_float(draw),
        intensity=_positive_float(draw), provenance={}), fmt=fmt)
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


def _packed(domain):
    """(row_lengths, stored) of a wavelength-angle domain, row by row: each
    row without the values whose bits are +0.0's that trail its first half,
    the kept values in rows of the domain's width, the last padded with
    +0.0."""
    width = domain.shape[1]
    rows = [list(row) for row in domain]
    for row in rows:
        while len(row) > math.ceil(width / 2) and np.float64(row[-1]).tobytes() == bytes(8):
            row.pop()
    kept = [value for row in rows for value in row]
    stored = np.zeros(math.ceil(len(kept) / width) * width)
    stored[:len(kept)] = kept
    return [len(row) for row in rows], stored.reshape(-1, width)


def _check_packed(path, domain):
    """The file is folded and stores domain packed, as _packed packs it."""
    header, stored = _stored(path)
    lengths, want = _packed(domain)
    assert header["fold"] == WAG_FOLD and header["row_lengths"] == lengths
    assert stored.shape == want.shape and stored.tobytes() == want.tobytes()


def _wavelength_angle_round_trip(draw, path, fmt):
    lam, theta = _exact_axis(draw, first=1), _exact_axis(draw)
    half = _domain(draw, angle_mirror, (lam.size, theta.size))
    write_wavelength_angle_grid(path, WavelengthAngleGrid(lam, theta, domain=half), fmt=fmt)
    _check_packed(path, half)
    back = read_wavelength_angle_grid(path)
    return [(back.wavelength_axis_m, lam), (back.angle_axis_rad, theta),
            (back.domain, half)]


def _assembled_round_trip(draw, path, fmt):
    tau, xi = _exact_axis(draw), _exact_axis(draw)
    magnitude = _values(draw, (tau.size, xi.size))
    write_assembled_map(path, AssembledMap(tau, xi, domain=magnitude), fmt=fmt)
    back = read_assembled_map(path)
    return [(back.tau_axis, tau), (back.xi_axis, xi), (back.domain, magnitude)]


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
    # and a finite, positive carrier
    trace = FringeTrace(positions, intensities, _header_float(draw),
                        _positive_float(draw), "19p94")
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


def _trailing_zeros(draw, shape):
    """Random values of shape, each row ending in a drawn run of +0.0 (none
    to all of it), whose last value is sometimes -0.0 instead."""
    rows = _values(draw, shape)
    for row in rows:
        row[draw(st.integers(0, row.size)):] = 0.0
        if draw(st.booleans()):
            row[-1] = -0.0
    return rows


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_wavelength_angle_domain_round_trips_bit_for_bit(fmt, data):
    # rows stored without their trailing +0.0 values: a -0.0, a NaN or an
    # infinity is kept, and each row reads back as it was written
    n_lam, n_theta = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 12))
    half = _trailing_zeros(data.draw, domain_shape(angle_mirror, (n_lam, n_theta)))
    grid = WavelengthAngleGrid((1 + np.arange(n_lam)) * 1e-7, np.arange(n_theta) * 0.25,
                               domain=half)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "wag.dat"
        write_wavelength_angle_grid(path, grid, fmt=fmt)
        _check_packed(path, half)
        back = read_wavelength_angle_grid(path)
    assert back.domain.dtype == np.float64 and back.domain.tobytes() == half.tobytes()


# row_lengths of the _WAG fixture, which stores 15 values in 4 rows of 4 ->
# the refusal of each
_RANGE = "row_lengths must list one integer in [2, 4] per row"
_ROW_LENGTHS = {
    "a row longer than the width": ([4, 3, 2, 5, 1], _RANGE),
    "a row shorter than its first half": ([4, 4, 2, 1, 4], _RANGE),
    "a negative row": ([4, 3, -1, 2, 4], _RANGE),
    "a fractional row": ([4, 3.0, 2, 2, 4], _RANGE),
    "a boolean row": ([4, 3, 2, 2, True], _RANGE),
    "no list": (15, _RANGE),
    "more values than the stored rows hold": (
        [4, 4, 4, 4, 4], "row_lengths keep 20 values, which fill 5 rows of 4, not the 4 stored"),
    "fewer values than the stored rows hold": (
        [4, 2, 2, 2, 2], "row_lengths keep 12 values, which fill 3 rows of 4, not the 4 stored"),
}


@pytest.mark.parametrize("fmt", ["csv", "binary"])
@pytest.mark.parametrize("case", sorted(_ROW_LENGTHS))
def test_row_lengths_the_stored_rows_do_not_fit_are_refused_naming_the_file(
        tmp_path, case, fmt):
    lengths, words = _ROW_LENGTHS[case]
    path, read = _product_file(tmp_path, f"wavelength-angle {fmt}")
    _set_header(path, "row_lengths", lengths)
    with pytest.raises(ConfigurationError) as info:
        read(path)
    assert str(info.value) == f"{path}: {words}"


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_a_packed_file_without_row_lengths_or_with_a_nonzero_pad_is_refused(tmp_path, fmt):
    path, read = _product_file(tmp_path, f"wavelength-angle {fmt}")
    intact = path.read_bytes()
    # the last stored row ends in 9.0 and the pad; -0.0 is not +0.0
    if fmt == "binary":
        path.write_bytes(intact[:-8] + np.float64(-0.0).tobytes())
    else:
        path.write_bytes(intact.replace(b"9.0,0.0\n", b"9.0,-0.0\n"))
    with pytest.raises(ConfigurationError) as info:
        read(path)
    assert str(info.value) == f"{path}: the pad after the stored rows is not +0.0"
    if fmt == "binary":
        (length,) = struct.unpack("<I", intact[8:12])
        meta = json.loads(intact[12:12 + length])
        del meta["row_lengths"]
        path.write_bytes(_binary_file(meta) + intact[12 + length:])
    else:
        path.write_bytes(re.sub(rb"^# row_lengths: .*\n", b"", intact, flags=re.M))
    with pytest.raises(ConfigurationError) as info:
        read(path)
    assert str(info.value) == f"{path}: header lacks 'row_lengths'"
