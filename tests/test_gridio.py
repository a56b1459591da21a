import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcoh import ConfigurationError, CrystalConfig, gridio, GridSpec, \
    PdcohError, SpectralGrid, auto_grid, build_spectrum, load_sellmeier
from pdcoh.coherence import CoherenceMap, correlation_map, instrument_blur
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
from pdcoh.interferometer import AssembledMap, FringeTrace
from pdcoh.spectrum import WavelengthAngleGrid


@pytest.fixture()
def sg():
    rng = np.random.default_rng(7)
    spec = GridSpec(omega_center=1.2e15, omega_half_width=2e14,
                    n_omega=64, k_half_width=1e5, n_k=64)
    values = rng.random((64, 64))
    return SpectralGrid(spec, values, provenance={
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
    g = rng.standard_normal((33, 17)) + 1j * rng.standard_normal((33, 17))
    cmap = CoherenceMap(tau, xi, g, carrier_omega=1.18e15, intensity=42.5,
                        provenance={"oversample": 16})
    path = tmp_path / "map.dat"
    write_coherence_map(path, cmap, fmt=fmt)
    back = read_coherence_map(path)
    assert np.array_equal(back.g, g)
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
           "complex view": lambda: (rng.standard_normal((9, 12))
                                    + 1j * rng.standard_normal((9, 12)))[::2, 1::3],
           "big-endian": lambda: rng.standard_normal((6, 4)).astype(">f8")}[layout]()
    assert not (arr.flags.c_contiguous and arr.dtype.isnative)
    path = tmp_path / "a.bin"
    gridio._write(path, "binary", {"kind": "test"}, [], {}, [("a", arr)])
    _, _, arrays = gridio._read(path, "test")
    back = arrays["a"]
    assert back.shape == arr.shape and back.dtype == arr.dtype.newbyteorder("=")
    assert np.array_equal(back.view(np.uint64), np.ascontiguousarray(arr, back.dtype).view(np.uint64))


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_complex_parts_survive_the_round_trip_exactly(tmp_path, fmt):
    # re + 1j*im would turn an infinite imaginary part into a NaN real
    # part and lose signed zeros; every pairing of these parts must survive
    parts = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5]
    pairs = np.array([(re, im) for re in parts for im in parts])
    g = pairs.view(complex).reshape(6, 6)
    cmap = CoherenceMap((np.arange(6) - 3) * 1e-15, (np.arange(6) - 3) * 1e-6,
                        g, carrier_omega=1.18e15, intensity=1.0, provenance={})
    path = tmp_path / "map.dat"
    write_coherence_map(path, cmap, fmt=fmt)
    back = read_coherence_map(path).g.view(float)
    assert np.array_equal(back, g.view(float), equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(g.view(float)))


def test_wavelength_angle_round_trip(tmp_path):
    wag = WavelengthAngleGrid(
        wavelength_axis_m=np.linspace(1.2e-6, 2.2e-6, 41),
        angle_axis_rad=np.linspace(-0.02, 0.02, 31),
        values=np.outer(np.arange(41.0), np.arange(31.0)),
        provenance={"material": "bbo_kato1986"})
    path = tmp_path / "wag.csv"
    write_wavelength_angle_grid(path, wag)
    back = read_wavelength_angle_grid(path)
    assert np.array_equal(back.values, wag.values)
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


def test_profile_round_trip_with_complex_column(tmp_path):
    x = np.linspace(0, 1, 21)
    z = np.exp(2j * np.pi * x)
    path = tmp_path / "cut.csv"
    write_profile(path, "coherence-cut", {"theta_tag": "19p94"},
                  [("position", x), ("g", z)])
    header, cols = read_profile(path, "coherence-cut")
    assert header["theta_tag"] == "19p94"
    assert np.array_equal(cols["position"], x)
    assert np.array_equal(cols["g"], z)
    with pytest.raises(ConfigurationError, match="expected"):
        read_profile(path, "dispersion-table")


def test_profile_rejects_ragged_columns(tmp_path):
    with pytest.raises(ConfigurationError, match="length"):
        write_profile(tmp_path / "bad.csv", "coherence-cut", {},
                      [("a", np.arange(5.0)), ("b", np.arange(4.0))])


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


def test_trace_in_the_older_format_still_reads(tmp_path):
    # traces once also carried tau_offset_s (always bs2_position_m / c) and
    # source; both header keys are ignored
    path = tmp_path / "old.csv"
    path.write_text(
        '# pdcoh_file: 1\n# kind: "fringe-trace"\n# bs2_position_m: 0.0002\n'
        '# tau_offset_s: 6.67e-13\n# carrier_omega: 1180000000000000.0\n'
        '# orientation: "19p94"\n# source: "synthetic"\n# icfg_hash: "abc123"\n'
        '# columns: [["position_m", "real"], ["intensity", "real"]]\n'
        '0.0,4e-08,8e-08\n2.0,1.0,0.5\n')
    back = read_trace(path)
    assert np.array_equal(back.positions_m, [0.0, 4e-8, 8e-8])
    assert np.array_equal(back.intensities, [2.0, 1.0, 0.5])
    assert (back.bs2_position_m, back.carrier_omega) == (2e-4, 1.18e15)
    assert (back.orientation, back.icfg_hash) == ("19p94", "abc123")
    assert not hasattr(back, "tau_offset_s") and not hasattr(back, "source")


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


def test_nonuniform_axis_is_rejected(tmp_path):
    tau = np.array([0.0, 1e-15, 2.5e-15])
    cmap = CoherenceMap(tau, np.array([0.0, 1e-6]),
                        np.zeros((3, 2), complex), carrier_omega=1e15,
                        intensity=1.0, provenance={})
    with pytest.raises(ConfigurationError, match="uniform"):
        write_coherence_map(tmp_path / "bad.csv", cmap)


def test_unknown_format_is_rejected(tmp_path, sg):
    with pytest.raises(ConfigurationError, match="format"):
        write_spectral_grid(tmp_path / "grid.xyz", sg, fmt="hdf5")


# --- the CSV encoder against a per-cell reference ---

AWKWARD = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, 0.1,
           1 / 3, -2.5e-308, 1.7976931348623157e308, 123456789.0]


def _reference_csv(header, arrays):
    lines = ["# pdcoh_file: 1"]
    lines += [f"# {key}: {json.dumps(value)}" for key, value in header.items()]
    lines.append("# columns: " + json.dumps(
        [[name, "complex" if np.iscomplexobj(arr) else "real"]
         for name, arr in arrays]))
    for _, arr in arrays:
        for row in np.atleast_2d(arr):
            cells = []
            for v in row:
                if np.iscomplexobj(row):
                    cells += [repr(float(v.real)), repr(float(v.imag))]
                else:
                    cells.append(repr(float(v)))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _even_after_first(a):
    """a with column n - j a copy of column j: every row even after its first value."""
    a = np.array(a)
    n = a.shape[1]
    a[:, n // 2 + 1:] = a[:, (n - 1) // 2:0:-1]
    return a


def _conjugate_mirrored(a):
    """a with each row k past the middle conj(row n - 1 - k) reversed."""
    a = np.array(a, dtype=complex)
    half = len(a) // 2
    if half:
        a[len(a) - half:] = np.conj(a[half - 1::-1, ::-1])
    return a


def _awkward_arrays():
    rng = np.random.default_rng(3)
    real = rng.choice(AWKWARD, size=(40, 7))
    cplx = np.empty((40, 5), complex)
    cplx.real = rng.choice(AWKWARD, size=cplx.shape)
    cplx.imag = rng.choice(AWKWARD + [-0.0] * 5, size=cplx.shape)
    # a mirror that differs only in the sign of one zero is not reused
    zero_sign = _even_after_first(rng.random((6, 8)))
    zero_sign[2, [3, 5]] = 0.0, -0.0
    # +-inf and imaginary zeros of both signs; row 33 of 40 holds a NaN and
    # its twin, row 6, none, so row 33 is formatted; the twin of row 34,
    # row 5, differs from its mirror in the sign of an imaginary zero
    finite = np.where(np.isnan(cplx), 1.5, cplx)
    mirrored = _conjugate_mirrored(finite)
    mirrored[33, 2], mirrored[6, 2] = complex(np.nan, 0.5), complex(1.0, -0.5)
    mirrored[34, 0] = complex(mirrored[34, 0].real, 0.0)
    mirrored[5, 4] = complex(mirrored[5, 4].real, 0.0)
    return {
        "real": [("v", real)],
        "complex": [("g", cplx)],
        "integer": [("n", np.arange(-60, 60, dtype=np.int64).reshape(40, 3))],
        "single-row": [("x", np.array(AWKWARD))],
        "multi-array": [("x", real[:, :5]), ("g", cplx),
                        ("n", np.arange(200, dtype=np.int32).reshape(40, 5))],
        # NaN, +-inf and signed zeros in mirrored cells; odd and even lengths
        "even rows": [("v", _even_after_first(real)),
                      ("w", _even_after_first(rng.choice(AWKWARD, (40, 8))))],
        "one and two columns": [("a", real[:, :1]), ("b", _even_after_first(real[:, :2]))],
        "zero-sign mirror": [("v", zero_sign)],
        # with 4-row blocks, twin pairs (0, 39) and (19, 20) land in different blocks
        "conjugate mirrors": [("g", mirrored)],
        "odd mirrors": [("g", _conjugate_mirrored(finite[:9]))],
    }


@pytest.mark.parametrize("path_kind", ["serial", "pool"])
def test_csv_encoder_matches_per_cell_repr(tmp_path, monkeypatch, path_kind):
    if path_kind == "pool":
        if not hasattr(os, "fork"):
            pytest.skip("no fork start method")
        # every file takes the pool, in blocks of 4 rows: 10 blocks, 3 workers
        monkeypatch.setattr(gridio, "_POOL_CELLS", 1)
        monkeypatch.setattr(gridio, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(gridio, "_usable_cpus", lambda: 3)
        with gridio._block_map(cells=1, n_blocks=10) as fmap:
            assert fmap is not map
    else:
        monkeypatch.setattr(gridio, "_POOL_CELLS", 1 << 62)
    header = {"kind": "test", "theta_deg": 19.94, "tag": "19p94"}
    for case, arrays in _awkward_arrays().items():
        path = tmp_path / f"{case}.csv"
        gridio._write_csv(path, header, arrays)
        assert path.read_text() == _reference_csv(header, arrays), case


@pytest.fixture()
def repr_calls(monkeypatch):
    """The values gridio formats, through a counting repr in its globals."""
    calls = []
    monkeypatch.setattr(gridio, "repr", lambda v: calls.append(v) or repr(v),
                        raising=False)
    return calls


def test_awkward_mirrors_reach_the_reuse_rules(repr_calls):
    calls = repr_calls
    arrays = _awkward_arrays()
    # (array, rows formatted in full): row 2 of the zero-sign mirror is not even
    cases = [(arr, 0) for _, arr in arrays["even rows"]] + [
        (arrays["zero-sign mirror"][0][1], 1)]
    for values, in_full in cases:
        calls.clear()
        gridio._format_block(gridio._float_rows(values))
        n = values.shape[1]
        assert len(calls) == (len(values) - in_full) * (n // 2 + 1) + in_full * n
    g = arrays["conjugate mirrors"][0][1]
    twins = gridio._conjugate_twins(g, gridio._float_rows(g))
    assert np.flatnonzero(twins).tolist() == [k for k in range(20, 40) if k not in (33, 34)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mirror_images_match_per_cell_repr(data):
    """An even or conjugate-mirrored array, with one cell perhaps perturbed,
    writes the per-cell reference on the serial and the pool path."""
    draw = data.draw
    dtype = draw(st.sampled_from([float, complex]))
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 7)))
    values = _values(draw, shape, dtype)
    values = (_even_after_first if dtype is float else _conjugate_mirrored)(values)
    perturb = draw(st.sampled_from([None, "value", "zero sign", "nan"]))
    if perturb:
        i, j = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
        if perturb == "zero sign":
            # the cell and its mirror become zeros that the mirror rule
            # would give opposite signs
            twin = (i, (shape[1] - j) % shape[1]) if dtype is float else (
                shape[0] - 1 - i, shape[1] - 1 - j)
            values[i, j], values[twin] = 0.0, (-0.0 if dtype is float else 0.0)
        else:
            values[i, j] = np.nan if perturb == "nan" else _values(draw, (), dtype)
    arrays = [("v", values)]
    header = {"kind": "test"}
    expected = _reference_csv(header, arrays)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "mirror.csv"
        for pool_cells, block_rows in ((1 << 62, 32), (1, 2)):
            with mock.patch.multiple(gridio, _POOL_CELLS=pool_cells,
                                     _BLOCK_ROWS=block_rows,
                                     _usable_cpus=lambda: 2):
                gridio._write_csv(path, header, arrays)
            assert path.read_text() == expected


def test_example_products_format_about_half_their_values(tmp_path, monkeypatch,
                                                          repr_calls):
    """S, the map and the blurred map of the example format at most about
    half their values, and still write the per-cell bytes."""
    cfg = CrystalConfig(length_m=0.01, theta_rad=math.radians(19.94),
                        pump_wavelength_m=800e-9, gain=6.0,
                        sellmeier=load_sellmeier("bbo_kato1986"))
    sg = build_spectrum(cfg, auto_grid(cfg, 256, 128))
    cmap = correlation_map(sg)
    products = {"density": sg.values, "map": cmap.g,
                "blurred map": instrument_blur(cmap, 1e-15, 6e-6).g}
    monkeypatch.setattr(gridio, "_POOL_CELLS", 1 << 62)
    header = {"kind": "test"}
    for name, values in products.items():
        repr_calls.clear()
        path = tmp_path / "product.csv"
        gridio._write_csv(path, header, [("v", values)])
        assert path.read_text() == _reference_csv(header, [("v", values)]), name
        n_values = gridio._float_rows(values).size
        assert len(repr_calls) <= 0.51 * n_values, (name, len(repr_calls), n_values)


# --- malformed files end as ConfigurationError naming the file ---


_TAU, _XI = (np.arange(5) - 2) * 1e-15, (np.arange(3) - 1) * 1e-6
_POS = np.arange(8) * 4e-8
_SPEC = GridSpec(omega_center=1.2e15, omega_half_width=2e14, n_omega=64,
                 k_half_width=1e5, n_k=64)

# product -> (writer taking a path and an encoding, reader)
_PRODUCTS = {
    "map": (lambda p, fmt: write_coherence_map(p, CoherenceMap(
        _TAU, _XI, np.ones((5, 3), complex), carrier_omega=1.2e15,
        intensity=1.0, provenance={}), fmt=fmt), read_coherence_map),
    "spectral": (lambda p, fmt: write_spectral_grid(p, SpectralGrid(
        _SPEC, np.ones((64, 64)), provenance={"gain": 6.0}), fmt=fmt),
        read_spectral_grid),
    "wavelength-angle": (lambda p, fmt: write_wavelength_angle_grid(
        p, WavelengthAngleGrid(np.linspace(1.2e-6, 2.2e-6, 5),
                               np.linspace(-0.02, 0.02, 3), np.ones((5, 3)),
                               provenance={}), fmt=fmt),
        read_wavelength_angle_grid),
    "assembled": (lambda p, fmt: write_assembled_map(p, AssembledMap(
        _TAU, _XI, np.linspace(0, 1, 15).reshape(5, 3), provenance={}),
        fmt=fmt), read_assembled_map),
    "profile": (lambda p, fmt: write_profile(
        p, "coherence-cut", {"theta_tag": "19p94"},
        [("position", _TAU), ("magnitude", np.abs(_TAU))], fmt=fmt),
        lambda p: read_profile(p, "coherence-cut")),
    "trace": (lambda p, _: write_trace(p, FringeTrace(
        _POS, 1.0 + np.cos(7.85e6 * _POS), 2e-4, 1.18e15, "19p94",
        "abc123")), read_trace),
    "metrics": (lambda p, _: write_metrics(p, {"a": 1.5, "tag": "19p94"}),
                read_metrics),
    "manifest": (lambda p, _: write_manifest(p, [p.parent / "t0.csv"]),
                 read_manifest),
}


def _product_file(tmp_path, fmt):
    """A small product file and its reader. fmt is "csv" or "binary" for a
    coherence map, "<product> csv" or "<product> binary" for another array
    product, or "metrics", "manifest" or "trace"."""
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
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_files_are_configuration_errors(tmp_path, corruption):
    fmt, corrupt = CORRUPTIONS[corruption]
    path, read = _product_file(tmp_path, fmt)
    if fmt.endswith("binary"):
        path.write_bytes(corrupt(path.read_bytes()))
    else:
        path.write_text(corrupt(path.read_text()))
    with pytest.raises(ConfigurationError, match=re.escape(str(path))):
        read(path)


def _intact(kind):
    """Bytes of a small product file (see _product_file), and its reader."""
    with tempfile.TemporaryDirectory() as root:
        path, read = _product_file(Path(root), kind)
        return path.read_bytes(), read


FUZZED = ["csv", "binary", "trace", "metrics", "manifest"] + [
    f"{product} {encoding}" for product in
    ("spectral", "wavelength-angle", "assembled", "profile")
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


def _values(draw, shape, dtype=float):
    """Random values over many decades, a fifth of them AWKWARD."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = math.prod(shape) * (2 if dtype is complex else 1)
    flat = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    special = rng.random(size) < 0.2
    flat[special] = rng.choice(AWKWARD, int(special.sum()))
    return flat.view(dtype).reshape(shape)


def _header_float(draw):
    return draw(st.floats(allow_nan=False, allow_infinity=False))


def _coherence_round_trip(draw, path, fmt):
    tau, xi = _exact_axis(draw), _exact_axis(draw)
    g = _values(draw, (tau.size, xi.size), complex)
    write_coherence_map(path, CoherenceMap(
        tau, xi, g, carrier_omega=_header_float(draw),
        intensity=_header_float(draw), provenance={}), fmt=fmt)
    back = read_coherence_map(path)
    return [(back.tau_axis, tau), (back.xi_axis, xi), (back.g, g)]


def _spectral_round_trip(draw, path, fmt):
    # any spec, not one whose axes the start/step/count header holds exactly
    n_omega, n_k = draw(st.sampled_from([64, 128])), draw(st.sampled_from([64, 128]))
    half_w = draw(st.floats(1e9, 1e16))
    spec = GridSpec(omega_center=half_w * draw(st.floats(1.001, 1e3)),
                    omega_half_width=half_w, n_omega=n_omega,
                    k_half_width=draw(st.floats(1.0, 1e9)), n_k=n_k)
    values = _values(draw, (n_omega, n_k))
    write_spectral_grid(path, SpectralGrid(spec, values), fmt=fmt)
    back = read_spectral_grid(path)
    assert back.spec == spec
    return [(back.omega_axis(), spec.omega_axis()), (back.k_axis(), spec.k_axis()),
            (back.values, values)]


def _wavelength_angle_round_trip(draw, path, fmt):
    lam, theta = _exact_axis(draw), _exact_axis(draw)
    values = _values(draw, (lam.size, theta.size))
    write_wavelength_angle_grid(path, WavelengthAngleGrid(lam, theta, values), fmt=fmt)
    back = read_wavelength_angle_grid(path)
    return [(back.wavelength_axis_m, lam), (back.angle_axis_rad, theta),
            (back.values, values)]


def _assembled_round_trip(draw, path, fmt):
    tau, xi = _exact_axis(draw), _exact_axis(draw)
    magnitude = _values(draw, (tau.size, xi.size))
    write_assembled_map(path, AssembledMap(tau, xi, magnitude), fmt=fmt)
    back = read_assembled_map(path)
    return [(back.tau_axis, tau), (back.xi_axis, xi), (back.magnitude, magnitude)]


def _profile_round_trip(draw, path, fmt):
    n = draw(st.integers(1, 30))
    columns = [(f"c{i}", _values(draw, (n,), draw(st.sampled_from([float, complex]))))
               for i in range(draw(st.integers(1, 4)))]
    write_profile(path, "coherence-cut", {"theta_tag": "19p94"}, columns, fmt=fmt)
    _, back = read_profile(path, "coherence-cut")
    assert list(back) == [name for name, _ in columns]
    return [(back[name], arr) for name, arr in columns]


def _trace_round_trip(draw, path, fmt):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    positions = np.cumsum(rng.uniform(1e-9, 1e-7, n)) - 1e-6
    # a trace holds finite, nonnegative intensities
    values = _values(draw, (n,))
    values = np.where(np.isfinite(values), values, 1e308)
    intensities = np.where(values < 0, -values, values)
    trace = FringeTrace(positions, intensities, _header_float(draw),
                        _header_float(draw), "19p94")
    write_trace(path, trace)
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


# traces have one encoding, csv
@pytest.mark.parametrize("kind, fmt", [(kind, fmt) for kind in ROUND_TRIPS
                                       for fmt in ("csv", "binary")
                                       if kind != "trace" or fmt == "csv"])
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_product_round_trips_bit_for_bit(kind, fmt, data):
    with tempfile.TemporaryDirectory() as root:
        pairs = ROUND_TRIPS[kind](data.draw, Path(root) / "product.dat", fmt)
    for back, written in pairs:
        assert back.dtype == written.dtype and back.shape == written.shape
        assert back.tobytes() == written.tobytes()
