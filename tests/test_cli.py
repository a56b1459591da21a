import ast
import contextlib
import errno
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdcoh
from pdcoh import cli, gridio
from pdcoh.cli import main
from pdcoh.config import load_run_config
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
    write_manifest,
    write_trace,
)
from pdcoh.interferometer import assemble_map, extract_visibility
from pdcoh.coherence import correlation_map
from pdcoh.spectrum import Folded, SpectralGrid, auto_grid, build_spectrum, to_wavelength_angle

CONFIG = """\
[crystal]
material = bbo_kato1986
length = 10 mm
pump_wavelength = 800 nm
gain = 6
theta = 19.94 deg

[grid]
n_omega = 256
n_k = 128

[interferometer]
bs2_step = 40 um
bs2_count = 11
stage_span = 16 um

[output]
directory = {out}
format = csv
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One interferogram run shared by the read-side tests, with the
    traces it synthesized in memory, in file order."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    cfg = root / "run.ini"
    cfg.write_text(CONFIG.format(out=out))
    synthesize, traces = cli.synthesize_trace, []

    def recorded(*args, **kwargs):
        traces.append(synthesize(*args, **kwargs))
        return traces[-1]

    with mock.patch.object(cli, "synthesize_trace", recorded):
        assert main(["interferogram", str(cfg)]) == 0
    return {"cfg": cfg, "out": out, "traces": traces,
            "manifest": out / "interferogram_19p94_manifest.txt"}


def test_dispersion_writes_a_table(ws):
    assert main(["dispersion", str(ws["cfg"]), "--points", "65"]) == 0
    header, cols = read_profile(ws["out"] / "dispersion_bbo_kato1986.csv",
                                "dispersion-table")
    assert header["material"] == "bbo_kato1986"
    assert 1.0 < header["zero_dispersion_wavelength_um"] < 2.0
    assert cols["wavelength_um"].size == 65
    assert np.all(np.diff(cols["wavelength_um"]) > 0)
    assert np.all(cols["n_ordinary"] > cols["n_extraordinary_principal"])


def test_dispersion_table_without_a_gvd_zero(tmp_path, monkeypatch):
    # Kato's set without its infrared term: the ordinary gvd has no zero
    # in range, so the table is written without the zero's header field
    monkeypatch.chdir(tmp_path)
    kato = (Path(pdcoh.__file__).parent / "data" / "bbo_kato1986.txt").read_text()
    Path("flat.txt").write_text(kato.replace("0.01822 0.01354", "0.01822 0"))
    cfg = tmp_path / "flat.ini"
    cfg.write_text(CONFIG.format(out="out").replace("bbo_kato1986", "flat.txt"))
    assert main(["dispersion", str(cfg), "--points", "33"]) == 0
    header, cols = read_profile(Path("out") / "dispersion_flat.csv",
                                "dispersion-table")
    assert "zero_dispersion_wavelength_um" not in header
    assert header["material"] == "flat.txt"
    assert cols["gvd_ordinary_fs2_per_mm"].size == 33
    assert np.all(cols["gvd_ordinary_fs2_per_mm"] > 0)


@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("binary", "bin")])
def test_dispersion_names_a_sellmeier_file_by_its_stem(tmp_path, fmt, ext):
    kato = (Path(pdcoh.__file__).parent / "data" / "bbo_kato1986.txt").read_text()
    (tmp_path / "bbo.txt").write_text(kato)
    cfg = tmp_path / "abs.ini"
    cfg.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("bbo_kato1986", str(tmp_path / "bbo.txt"))
                   .replace("format = csv", f"format = {fmt}"))
    assert main(["dispersion", str(cfg), "--points", "17"]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == [f"dispersion_bbo.{ext}"]
    header, cols = read_profile(tmp_path / "out" / f"dispersion_bbo.{ext}",
                                "dispersion-table")
    assert header["material"] == str(tmp_path / "bbo.txt")
    assert cols["wavelength_um"].size == 17


def test_phasematch_reports_the_collinear_angle(ws):
    assert main(["phasematch", str(ws["cfg"])]) == 0
    record = read_metrics(ws["out"] / "phasematch.txt")
    assert record["theta_pm_deg"] == pytest.approx(19.86659, abs=1e-4)
    assert record["degenerate_wavelength_m"] == pytest.approx(1.6e-6,
                                                              rel=1e-12, abs=0)
    header, cols = read_profile(ws["out"] / "phasematch_19p94_locus.csv",
                                "phase-matched-locus")
    assert header["theta_deg"] == pytest.approx(19.94, rel=1e-12)
    assert np.all(cols["k_ring_rad_per_m"] >= 0)
    lam = cols["wavelength_m"]
    near = np.abs(lam - 1.6e-6) < 2e-8
    assert cols["k_ring_rad_per_m"][near].min() > 4e4


def test_spectrum_emits_both_grids_deterministically(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", str(ws["cfg"]), "--out", str(a)]) == 0
    assert main(["spectrum", str(ws["cfg"]), "--out", str(b)]) == 0
    for name in ("spectrum_19p94_omega_k.csv",
                 "spectrum_19p94_wavelength_angle.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    sg = read_spectral_grid(a / "spectrum_19p94_omega_k.csv")
    assert sg.values.shape == (256, 128)
    assert sg.provenance["theta_rad"] == pytest.approx(math.radians(19.94),
                                                       rel=1e-12, abs=0)



def test_products_record_facts_not_copied_labels(ws, tmp_path):
    # to_wavelength_angle takes only the crystal and S's grid spec, and a map
    # records the edge ratio of the quadrant it transforms: an S built by
    # hand, with no provenance, gives the command's wavelength-angle grid
    # bit for bit and a map with its own edge ratio
    out = tmp_path / "out"
    assert main(["spectrum", str(ws["cfg"]), "--out", str(out)]) == 0
    rc = load_run_config(ws["cfg"])
    cfg = rc.crystal_config(rc.thetas_rad[0])
    built = build_spectrum(cfg, auto_grid(cfg, rc.n_omega, rc.n_k))
    sg = SpectralGrid(built.spec, domain=built.domain.copy())
    wag = to_wavelength_angle(cfg, sg.spec)
    command = read_wavelength_angle_grid(out / "spectrum_19p94_wavelength_angle.csv")
    assert wag.domain.tobytes() == command.domain.tobytes()
    assert wag.provenance == command.provenance
    assert not {"edge_ratio", "invalid_nodes"} & set(wag.provenance)
    assert correlation_map(sg).provenance["edge_ratio"] == sg.edge_ratio
    # a file whose edge_ratio label was changed, its quadrant not: the map
    # carries the quadrant's ratio, in the label's place
    path = out / "spectrum_19p94_omega_k.csv"
    label = f"# edge_ratio: {json.dumps(sg.edge_ratio)}\n"
    text = path.read_text()
    assert label in text
    path.write_text(text.replace(label, "# edge_ratio: 0.5\n"))
    relabelled = read_spectral_grid(path)
    assert relabelled.provenance["edge_ratio"] == 0.5
    provenance = correlation_map(relabelled).provenance
    assert provenance["edge_ratio"] == relabelled.edge_ratio == sg.edge_ratio
    assert list(provenance)[:len(relabelled.provenance)] == list(relabelled.provenance)

def test_coherence_emits_maps_cuts_and_metrics(ws, tmp_path):
    out = tmp_path / "coh"
    assert main(["coherence", str(ws["cfg"]), "--blur", "1fs,6um",
                 "--out", str(out)]) == 0
    cmap = read_coherence_map(out / "coherence_19p94_map.csv")
    i0, j0 = cmap.tau_axis.size // 2, cmap.xi_axis.size // 2
    assert cmap.g[i0, j0] == 1.0 + 0.0j

    record = read_metrics(out / "coherence_19p94_metrics.txt")
    assert record["tau_c_s"] == pytest.approx(1.6816e-14, rel=2e-2, abs=0)
    assert record["xi_c_m"] == pytest.approx(4.2020e-05, rel=2e-2)
    assert record["first_ring_height"] == pytest.approx(0.2657, abs=2e-2)
    assert record["coupling"] > 0.1

    blurred = read_metrics(out / "coherence_19p94_blur_metrics.txt")
    assert blurred["xi_c_m"] > record["xi_c_m"]
    assert blurred["tau_c_s"] != record["tau_c_s"]
    _, cut = read_profile(out / "coherence_19p94_tau_cut.csv",
                          "coherence-cut")
    assert cut["magnitude"].max() == pytest.approx(1.0, abs=1e-12)
    assert (out / "coherence_19p94_blur_map.csv").exists()
    assert (out / "coherence_19p94_blur_xi_cut.csv").exists()


def test_interferogram_traces_carry_metadata(ws):
    paths = read_manifest(ws["manifest"])
    assert len(paths) == 11
    trace = read_trace(paths[0])
    assert trace.orientation == "19p94"
    assert trace.bs2_position_m == pytest.approx(-5 * 40e-6, rel=1e-12, abs=0)
    assert trace.icfg_hash
    assert trace.positions_m.size >= 8 * 16e-6 / 800e-9
    steps = np.diff([read_trace(p).bs2_position_m for p in paths])
    assert np.allclose(steps, 40e-6, rtol=1e-9)


def test_trace_files_hand_analyze_the_synthesized_traces_bit_for_bit(ws, tmp_path):
    paths = read_manifest(ws["manifest"])
    assert len(paths) == len(ws["traces"]) == 11
    for path, made in zip(paths, ws["traces"]):
        # one row of intensities under the stage axis: a 16 um sweep is 20
        # fringes of 20 samples
        lines = path.read_text().splitlines()
        assert sum(not line.startswith("#") for line in lines) == 1
        assert "# n_position: 401" in lines
        back = read_trace(path)
        assert back.positions_m.tobytes() == made.positions_m.tobytes()
        assert back.intensities.tobytes() == made.intensities.tobytes()
    out = tmp_path / "an"
    assert main(["analyze", str(ws["manifest"]), "--config", str(ws["cfg"]),
                 "--out", str(out)]) == 0
    rc = load_run_config(ws["cfg"])
    ours = tmp_path / "ours.csv"
    made = assemble_map(ws["traces"], rc.interferometer, rc.window_fringes)
    write_assembled_map(ours, made)
    assert (out / "analyze_map.csv").read_bytes() == ours.read_bytes()
    back = read_assembled_map(out / "analyze_map.csv")
    assert back.tau_axis.tobytes() == made.tau_axis.tobytes()
    assert back.xi_axis.tobytes() == made.xi_axis.tobytes()


def _manifest_changed_from_the_seventh_trace(ws, tmp_path, change):
    """A manifest of copies of the run's 11 traces, change(trace) applied
    to the seventh and every later one; and the seventh's file, the first
    that differs."""
    paths = []
    for j, path in enumerate(read_manifest(ws["manifest"])):
        trace = read_trace(path)
        if j >= 6:
            change(trace)
        paths.append(tmp_path / path.name)
        write_trace(paths[-1], trace)
    mixed = tmp_path / "mixed_manifest.txt"
    write_manifest(mixed, paths)
    return mixed, read_manifest(mixed)[6]


def test_analyze_refuses_traces_of_two_orientations(ws, tmp_path, capsys):
    # both orientations share the degenerate carrier: only the tags differ;
    # the refusal names the first trace that differs, not only the manifest
    mixed, named = _manifest_changed_from_the_seventh_trace(
        ws, tmp_path, lambda trace: setattr(trace, "orientation", "19p90"))
    out = tmp_path / "an"
    assert main(["analyze", str(mixed), "--config", str(ws["cfg"]),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: [interferometer] on {mixed}: {named}: "
        "traces mix orientations '19p90' and '19p94'\n")
    assert not out.exists()


@pytest.mark.parametrize("change, words", [
    pytest.param(lambda t: setattr(t, "carrier_omega", t.carrier_omega * 1.01),
                 "traces mix carrier frequencies", id="carrier_omega"),
    pytest.param(lambda t: setattr(t, "icfg_hash", "0" * 16),
                 "different interferometer configuration (icfg_hash 0000000000000000",
                 id="icfg_hash"),
    # the later traces shift with it: only its own step is 43 um
    pytest.param(lambda t: setattr(t, "bs2_position_m", t.bs2_position_m + 3e-6),
                 "BS2 step 43 um, not 40 um: BS2 positions must step uniformly",
                 id="bs2_position_m"),
])
def test_analyze_names_the_first_trace_that_does_not_fit_the_rest(
        ws, tmp_path, capsys, change, words):
    mixed, named = _manifest_changed_from_the_seventh_trace(ws, tmp_path, change)
    assert main(["analyze", str(mixed), "--config", str(ws["cfg"]),
                 "--out", str(tmp_path / "an")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [interferometer] on {mixed}: {named}: ")
    assert words in err and err.count(str(named)) == 1


def test_a_malformed_stage_header_exits_1_naming_the_trace(ws, tmp_path, capsys):
    first = read_manifest(ws["manifest"])[0]
    bad = tmp_path / first.name
    bad.write_text(first.read_text().replace("# n_position: 401", "# n_position: 400"))
    manifest = tmp_path / "bad_manifest.txt"
    write_manifest(manifest, [bad])
    assert main(["analyze", str(manifest), "--config", str(ws["cfg"]),
                 "--out", str(tmp_path / "an")]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: positions and intensities must be one-dimensional" in err
    assert "got shapes (400,) and (401,)" in err
    assert err.count(str(bad)) == 1


@pytest.mark.parametrize("value", ["NaN", "Infinity", '"abc"'])
@pytest.mark.parametrize("key", ["bs2_position_m", "carrier_omega"])
def test_a_trace_header_number_that_is_not_finite_exits_1_naming_the_trace(
        ws, tmp_path, capsys, key, value):
    # checked as an axis start or step is: NaN once reached int(round(...))
    # in extract_visibility, a string a comparison with a float
    traces = read_manifest(ws["manifest"])
    bad = tmp_path / traces[5].name
    bad.write_text(re.sub(f"^# {key}: .*$", f"# {key}: {value}", traces[5].read_text(),
                          flags=re.M))
    manifest = tmp_path / "bad_manifest.txt"
    write_manifest(manifest, [*traces[:5], bad, *traces[6:]])
    assert main(["analyze", str(manifest), "--config", str(ws["cfg"]),
                 "--out", str(tmp_path / "an")]) == 1
    got = {"NaN": "nan", "Infinity": "inf", '"abc"': "'abc'"}[value]
    assert capsys.readouterr().err == (
        f"error: {bad}: {key} must be a finite number, got {got}\n")


# what a hand-edited header may hold where a number or a text belongs
REWRITES = [math.nan, math.inf, -math.inf, "abc", 0, -1, True, None, 10 ** 13]
TRACE_KEYS = ["kind", "position_start", "position_step", "n_position", "bs2_position_m",
              "carrier_omega", "orientation", "icfg_hash"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), st.sampled_from(["csv", "binary"]),
       st.sampled_from(TRACE_KEYS), st.sampled_from(REWRITES))
def test_a_rewritten_trace_header_value_never_ends_analyze_in_an_internal_error(
        ws, index, fmt, key, value):
    traces = read_manifest(ws["manifest"])
    header, arrays = gridio._decode(traces[index])
    with tempfile.TemporaryDirectory() as root:
        bad = Path(root) / f"trace.{gridio.FORMATS[fmt]}"
        (gridio._write_csv if fmt == "csv" else gridio._write_binary)(
            bad, {**header, key: value}, list(arrays.items()))
        manifest = Path(root) / "bad_manifest.txt"
        write_manifest(manifest, [*traces[:index], bad, *traces[index + 1:]])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", str(manifest), "--config", str(ws["cfg"]),
                         "--out", str(Path(root) / "an")])
    assert code in (0, 1, 2) and "internal error" not in err.getvalue()


def test_a_two_column_trace_exits_1_naming_it(ws, tmp_path, capsys):
    # a trace that held its stage sweep as a position_m array beside the
    # intensities, with no position axis
    first = read_trace(read_manifest(ws["manifest"])[0])
    bad = tmp_path / "two_column.csv"
    bad.write_text(
        '# pdcoh_file: 1\n# kind: "fringe-trace"\n'
        f'# bs2_position_m: {first.bs2_position_m!r}\n'
        f'# carrier_omega: {first.carrier_omega!r}\n# orientation: "19p94"\n'
        '# columns: [["position_m", "real"], ["intensity", "real"]]\n'
        + ",".join(map(repr, first.positions_m.tolist())) + "\n"
        + ",".join(map(repr, first.intensities.tolist())) + "\n")
    manifest = tmp_path / "old_manifest.txt"
    write_manifest(manifest, [bad, *read_manifest(ws["manifest"])[1:]])
    out = tmp_path / "an"
    assert main(["analyze", str(manifest), "--config", str(ws["cfg"]),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # named once: read_trace's refusal carries the file, analyze adds nothing
    assert f"error: {bad}: header lacks 'position_start'" in err
    assert err.count(str(bad)) == 1
    assert not out.exists()


def test_analyze_rebuilds_the_map(ws, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", str(ws["manifest"]), "--config", str(ws["cfg"]),
                 "--out", str(out)]) == 0
    amap = read_assembled_map(out / "analyze_map.csv")
    assert amap.domain.shape[1] == 11
    assert np.allclose(amap.xi_axis,
                       np.arange(-5, 6) * 40e-6 / 6.6, rtol=1e-9)
    record = read_metrics(out / "analyze_metrics.txt")
    assert record["n_traces"] == 11
    # the one-fringe window broadens the reconstructed widths; they stay
    # the right order of magnitude
    assert 1.2e-14 < record["tau_c_s"] < 3.0e-14
    assert 3.0e-05 < record["xi_c_m"] < 5.5e-05


def test_a_binary_run_writes_binary_traces_that_analyze_reads_as_csv_ones(ws, tmp_path):
    out, cfg = tmp_path / "out", tmp_path / "run.ini"
    cfg.write_text(CONFIG.format(out=out).replace("format = csv", "format = binary"))
    assert main(["interferogram", str(cfg)]) == 0
    manifest = out / "interferogram_19p94_manifest.txt"
    paths = read_manifest(manifest)
    assert paths == sorted(out.glob("interferogram_*_trace*"))
    assert [p.name for p in paths] == [f"interferogram_19p94_trace{j:02d}.bin"
                                       for j in range(11)]
    for path, csv_path in zip(paths, read_manifest(ws["manifest"]), strict=True):
        assert path.read_bytes().startswith(b"PDCOHBIN")
        binary, text = read_trace(path), read_trace(csv_path)
        assert binary.positions_m.tobytes() == text.positions_m.tobytes()
        assert binary.intensities.tobytes() == text.intensities.tobytes()
    maps = []
    for run_cfg, run_manifest, name in ((cfg, manifest, "analyze_map.bin"),
                                        (ws["cfg"], ws["manifest"], "analyze_map.csv")):
        an = tmp_path / name
        assert main(["analyze", str(run_manifest), "--config", str(run_cfg),
                     "--out", str(an)]) == 0
        maps.append(read_assembled_map(an / name))
    for field in ("tau_axis", "xi_axis", "domain"):
        assert getattr(maps[0], field).tobytes() == getattr(maps[1], field).tobytes()


def test_analyze_keeps_every_window_of_the_sweep(tmp_path):
    # the example's 48 um sweeps: their common delay range is a whole
    # number of window steps only up to rounding, and must keep its last row
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("stage_span = 16 um", "stage_span = 48 um"))
    assert main(["interferogram", str(cfg)]) == 0
    manifest = tmp_path / "out" / "interferogram_19p94_manifest.txt"
    assert main(["analyze", str(manifest), "--config", str(cfg),
                 "--out", str(tmp_path / "an")]) == 0
    amap = read_assembled_map(tmp_path / "an" / "analyze_map.csv")
    icfg = load_run_config(cfg).interferometer
    for path in read_manifest(manifest):
        taus, _ = extract_visibility(read_trace(path), icfg)
        assert amap.tau_axis.size == taus.size


def test_analyze_single_trace_gives_an_envelope(ws, tmp_path):
    solo = tmp_path / "solo_manifest.txt"
    write_manifest(solo, [read_manifest(ws["manifest"])[5]])
    out = tmp_path / "solo"
    assert main(["analyze", str(solo), "--config", str(ws["cfg"]),
                 "--out", str(out)]) == 0
    amap = read_assembled_map(out / "analyze_map.csv")
    taus, _ = extract_visibility(read_trace(read_manifest(solo)[0]),
                                 load_run_config(ws["cfg"]).interferometer)
    assert amap.domain.shape == (taus.size, 1)
    assert amap.xi_axis == pytest.approx([0.0], abs=1e-18)
    assert amap.domain.max() <= 1.0 + 1e-9
    assert amap.provenance["window_fringes"] == 1.0
    assert sorted(p.name for p in out.iterdir()) == ["analyze_map.csv",
                                                    "analyze_metrics.txt"]
    record = read_metrics(out / "analyze_metrics.txt")
    assert record["n_traces"] == 1
    assert "xi_c_m" not in record


def test_env_var_supplies_the_config(ws, monkeypatch, tmp_path):
    monkeypatch.setenv("PDCOH_CONFIG", str(ws["cfg"]))
    assert main(["phasematch", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "phasematch.txt").exists()


def test_missing_config_is_a_validation_error(monkeypatch, capsys):
    monkeypatch.delenv("PDCOH_CONFIG", raising=False)
    assert main(["spectrum"]) == 1
    assert "PDCOH_CONFIG" in capsys.readouterr().err


def test_config_problems_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.format(out=tmp_path) + "\n[crystal]\nlenght = 1\n")
    assert main(["spectrum", str(bad)]) == 1
    bad.write_text(CONFIG.format(out=tmp_path).replace("800 nm", "800"))
    assert main(["spectrum", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "pump_wavelength" in err


def test_non_finite_gain_exits_1_naming_the_field(tmp_path, capsys):
    bad = tmp_path / "nan.ini"
    bad.write_text(CONFIG.format(out=tmp_path).replace("gain = 6", "gain = nan"))
    assert main(["spectrum", str(bad)]) == 1
    assert "[crystal] gain" in capsys.readouterr().err
    assert not list(tmp_path.glob("spectrum_*"))


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy takes most of a second to import: neither the import nor
    # coherence --blur (its Gaussian blur is in-module) may load it
    small = tmp_path / "small.ini"
    small.write_text(CONFIG.format(out=tmp_path / "out")
                     .replace("= 256", "= 64").replace("= 128", "= 64")
                     .replace("csv", "binary"))
    code = ("import sys, pdcoh.cli\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "code = pdcoh.cli.main(['coherence', sys.argv[1], '--blur', '1fs,6um'])\n"
            "print(code, scipy())\n")
    src = str(Path(pdcoh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(small)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[0] == "[]"
    assert out.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "coherence_19p94_blur_map.bin").is_file()


def _loaded_after(module, *argvs):
    """Each command's exit code and whether module was loaded after it,
    the commands run in turn in one fresh interpreter."""
    code = ("import json, sys, pdcoh.cli\n"
            "module, argvs = json.loads(sys.argv[1])\n"
            "for argv in argvs:\n"
            "    print(pdcoh.cli.main(argv), module in sys.modules)\n")
    src = str(Path(pdcoh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, json.dumps([module, argvs])],
                         env=env, check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if not line.startswith("wrote ")]


def _small_config(tmp_path):
    small = tmp_path / "small.ini"
    small.write_text(CONFIG.format(out=tmp_path / "out").replace("= 256", "= 64")
                     .replace("= 128", "= 64"))
    return small


def test_analyze_loads_no_numpy_ma(ws, tmp_path):
    # numpy.ma takes about 18 ms to import; np.median loads it lazily
    argv = ["analyze", str(ws["manifest"]), "--config", str(ws["cfg"]),
            "--out", str(tmp_path / "an")]
    assert _loaded_after("numpy.ma", argv) == ["0 False"]
    assert (tmp_path / "an" / "analyze_metrics.txt").is_file()


def test_csv_spectrum_and_blurred_coherence_load_no_numpy_ma(tmp_path):
    # the CSV encoder must not load it either (np.union1d and other set
    # operations do)
    small = _small_config(tmp_path)
    assert _loaded_after("numpy.ma", ["spectrum", str(small)],
                         ["coherence", str(small), "--blur", "1fs,6um"]) == ["0 False"] * 2
    assert (tmp_path / "out" / "spectrum_19p94_omega_k.csv").is_file()
    assert (tmp_path / "out" / "coherence_19p94_blur_map.csv").is_file()


def test_no_command_loads_openssl(tmp_path):
    # hashlib loads OpenSSL's _hashlib, about 3.5 MB of every launch's peak;
    # the config digest takes the interpreter's built-in sha256
    small = _small_config(tmp_path)
    manifest = tmp_path / "out" / "interferogram_19p94_manifest.txt"
    assert _loaded_after("_hashlib", ["dispersion", str(small)],
                         ["phasematch", str(small)], ["spectrum", str(small)],
                         ["coherence", str(small), "--blur", "1fs,6um"],
                         ["interferogram", str(small)],
                         ["analyze", str(manifest), "--config", str(small),
                          "--out", str(tmp_path / "an")]) == ["0 False"] * 6
    assert (tmp_path / "an" / "analyze_metrics.txt").is_file()


def _main_peak(argv):
    """tracemalloc's peak during main(argv), above what was held at its start."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", [["interferogram"], ["coherence", "--blur=1fs,6um"]])
def test_no_orientation_holds_its_arrays_past_its_products(tmp_path, command):
    """Two orientations peak no higher than the higher of them alone: none
    of the first one's S, map, blurred map or column is held while the
    second is built. The 32 kB slack covers the run's own small objects
    (7 kB measured); a map of this grid takes 530 kB, the interferogram's
    column 285 kB."""
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(out=tmp_path / "out"))
    argv = [command[0], str(config), *command[1:]]
    thetas = ["--theta=19.90deg", "--theta=19.94deg"]
    main(argv + thetas)  # fills what a first run caches
    one = max(_main_peak(argv + [theta]) for theta in thetas)
    assert _main_peak(argv + thetas) <= one + 32_000


def test_maps_and_metrics_at_one_and_two_blas_threads_agree_to_rounding(tmp_path):
    # products are byte-identical at one BLAS thread count only: the
    # transform's matrix products sum in another order on 2 threads. At
    # 1 and 2 threads the maps differ by at most 4 ulp of 1 (1.5 measured)
    # and the metrics by at most 8 eps relative (1.9 measured). OpenBLAS
    # runs the products of a smaller grid than the example's 1024 x 512 on
    # one thread, where nothing would differ
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(out=tmp_path).replace("= 256", "= 1024")
                      .replace("= 128", "= 512").replace("csv", "binary"))
    src = str(Path(pdcoh.__file__).resolve().parents[1])
    outs = [tmp_path / "1", tmp_path / "2"]
    for out in outs:
        threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), out.name)
        subprocess.run([sys.executable, "-m", "pdcoh.cli", "coherence", str(config),
                        "--blur=1fs,6um", f"--out={out}"], check=True, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=src, **threads), timeout=300)
    for product in ("", "blur_"):
        one, two = (read_coherence_map(out / f"coherence_19p94_{product}map.bin")
                    for out in outs)
        assert np.abs(one.domain - two.domain).max() <= 4 * np.spacing(1.0), product
        one, two = (read_metrics(out / f"coherence_19p94_{product}metrics.txt")
                    for out in outs)
        for key in ("tau_c_s", "xi_c_m", "first_ring_height", "coupling"):
            assert one[key] == pytest.approx(two[key], rel=8 * np.finfo(float).eps,
                                             abs=0), (product, key)


def test_bad_blur_flag_exits_1(ws, tmp_path, capsys):
    assert main(["coherence", str(ws["cfg"]), "--blur", "1fs"]) == 1
    assert "--blur" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["coherence", str(ws["cfg"]), "--blur", "1fs,-6um",
                 "--out", str(out)]) == 1
    # coherence.check_blur's refusal, as blur_sigma gives it, before any S
    assert capsys.readouterr().err == (
        "error: --blur: blur widths must be nonnegative, got 1e-15 s and -6e-06 m\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("dispersion", "--points", "-5"),
    ("dispersion", "--points", "0"),
    ("dispersion", "--points", "many"),
    ("coherence", "--blur", "-1fs,6um"),
])
def test_bad_count_and_width_flags_exit_1_before_any_work(ws, tmp_path, capsys,
                                                          command, flag, value):
    out = tmp_path / "out"
    # flag=value: argparse would take a bare "-1fs,6um" for an option
    assert main([command, str(ws["cfg"]), "--out", str(out), f"{flag}={value}"]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


# config lines of a crystal whose density's support auto_grid finds
# reaching its cap
CAPPED = ("gain = 3.4", "length = 23.3 mm")
# auto_grid's cap for bbo_kato1986 pumped at 800 nm: the 1.6 um signal
# reaches 3.1 um, the end of its dispersion range, at 0.484 omega_c
CAP_OF_KATO = (r"the density's support reaches its grid's cap of 0\.484 omega_c "
               r"\(0\.49 omega_c, or less where signal or idler leaves the "
               r"0\.22-3\.1 um dispersion range\)")


@pytest.mark.parametrize("command, flags, message", [
    pytest.param("coherence", ["--blur=1fs,1000um", "--out={taken}"],
                 "--blur: blur kernel is wider than the map", id="blur-too-wide"),
    pytest.param("coherence", ["--blur=0.01fs,6um", "--out={taken}"],
                 r"--blur: tau blur sigma spans .* refine the tau axis \d+x",
                 id="blur-too-narrow"),
    # within the map, but the blurred peak's half maximum lies past its edge
    pytest.param("coherence", ["--blur=529fs,0um", "--out={taken}"],
                 "^error: --blur: half-maximum crossing lies outside the map",
                 id="blur-past-the-half-maximum"),
    pytest.param("coherence", ["--out={file}/out"],
                 "--out: cannot write {file}/out: ", id="out-under-a-file"),
    pytest.param("spectrum", ["--out={file}"], "--out: cannot write {file}: ",
                 id="out-a-file"),
    pytest.param("spectrum", [], r"\[output\] directory: cannot write {file}: ",
                 id="directory-a-file"),
    pytest.param("spectrum", ["--out={taken}"],
                 "--out: cannot write {taken}/spectrum_19p94_omega_k.bin: ",
                 id="product-a-directory"),
    pytest.param("spectrum", ["--out="], "--out: empty", id="out-empty"),
    # a crystal whose density's support reaches the cap, where the signal
    # leaves the dispersion range: the grid cannot hold it
    pytest.param("interferogram", ["--theta=60.17deg", *CAPPED, "--out={taken}"],
                 r"--theta: bbo_kato1986 at theta 60.17 deg: " + CAP_OF_KATO,
                 id="theta-with-density-on-the-grid-edge"),
    pytest.param("spectrum", ["--theta=60.17deg", *CAPPED, "--out={taken}"],
                 r"--theta: bbo_kato1986 at theta 60.17 deg: " + CAP_OF_KATO,
                 id="spectrum-theta-with-density-on-the-grid-edge"),
    pytest.param("coherence", ["theta = 60.17 deg", *CAPPED, "--out={taken}"],
                 r"^error: \[crystal\] theta: bbo_kato1986 at theta 60.17 deg: "
                 + CAP_OF_KATO + "$",
                 id="config-theta-with-density-on-the-grid-edge"),
    # at gain 6 and 10 mm the ring runs to the end of the dispersion range,
    # which no setting narrows: auto_grid refuses it
    pytest.param("spectrum", ["--theta=71.75deg", "--out={taken}"],
                 r"^error: --theta: bbo_kato1986 at theta 71.75 deg: " + CAP_OF_KATO + "$",
                 id="theta-with-a-grid-past-the-dispersion-range"),
    # S overflows; refused by its peak, without a RuntimeWarning
    pytest.param("spectrum", ["gain = 1e3", "--out={taken}"],
                 r"^error: \[crystal\] gain and length: density peak is inf at "
                 r"gain 1000, length 0.01 m$",
                 id="gain-overflowing-the-density",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_flag_and_output_refusals_exit_1_naming_them(tmp_path, capsys, command,
                                                    flags, message):
    # a flag or config value the program can only refuse after the config
    # loads, and an output path that cannot be written: a file, a path
    # under a file, or a product name taken by a directory. An entry that
    # is not a flag is a config line, which replaces the line of its key.
    file, taken = tmp_path / "file", tmp_path / "taken"
    file.write_text("not a directory\n")
    (taken / "spectrum_19p94_omega_k.bin").mkdir(parents=True)
    text = (CONFIG.format(out=file).replace("= 256", "= 64")
            .replace("= 128", "= 64").replace("csv", "binary"))
    for line in [f for f in flags if not f.startswith("--")]:
        key = line.split(" ", 1)[0]
        text = re.sub(rf"^{key} = .*$", line, text, flags=re.M)
    small = tmp_path / "small.ini"
    small.write_text(text)
    flags = [f.format(file=file, taken=taken) for f in flags if f.startswith("--")]
    assert main([command, str(small), *flags]) == 1
    err = capsys.readouterr().err
    assert re.search(message.format(file=re.escape(str(file)),
                                    taken=re.escape(str(taken))), err, re.M), err
    assert "internal error" not in err
    # a refused --blur or --theta writes nothing for its orientation
    assert not list(taken.glob("coherence_*")) and not list(taken.glob("*_60p17_*"))


def test_density_on_an_automatic_grid_edge_is_refused_without_a_remedy(tmp_path,
                                                                        capsys):
    # auto_grid sizes its grid from S's closed-form support: at 75.25 deg
    # the ring runs to the end of the dispersion range, so the support
    # reaches the cap. No setting widens the grid past the cap, so the
    # refusal names the angle and the cap instead of a remedy
    small = tmp_path / "small.ini"
    small.write_text(CONFIG.format(out=tmp_path / "out").replace("= 256", "= 64")
                     .replace("= 128", "= 64").replace("csv", "binary"))
    assert main(["spectrum", str(small), "--theta=75.25deg"]) == 1
    assert re.search(r"^error: --theta: bbo_kato1986 at theta 75.25 deg: " + CAP_OF_KATO
                     + "$", capsys.readouterr().err, re.M)
    small.write_text(small.read_text().replace("gain = 6", CAPPED[0])
                     .replace("length = 10 mm", CAPPED[1]))
    assert main(["spectrum", str(small), "--theta=60.17deg"]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: --theta: bbo_kato1986 at theta 60.17 deg: " + CAP_OF_KATO
                     + "$", err, re.M), err
    assert "widen the grid" not in err


def test_commands_hold_s_as_its_quadrant(tmp_path, monkeypatch):
    # spectrum, coherence --blur and interferogram run from the fundamental
    # domains that S, the wavelength-angle grid and the map hold: none of
    # them unfolds a full array
    def unfolded(product):
        raise AssertionError(f"{type(product).__name__} was unfolded")

    # every Folded product unfolds through Folded.values; a map also under g
    for cls, name in ((Folded, "values"), (pdcoh.CoherenceMap, "g")):
        monkeypatch.setattr(cls, name, property(unfolded))
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.format(out=tmp_path / "out"))
    for argv in (["spectrum"], ["coherence", "--blur=1fs,6um"], ["interferogram"]):
        assert main([argv[0], str(config), *argv[1:]]) == 0, argv


def _two_orientation_csv(tmp_path):
    small = tmp_path / "small.ini"
    small.write_text(CONFIG.format(out=tmp_path / "out").replace("= 256", "= 64")
                     .replace("= 128", "= 64")
                     .replace("theta = 19.94 deg", "theta = 19.90 deg, 19.94 deg"))
    return small


# kind -> the one fold of a symmetric kind
FOLDS = {"spectral-density": "|Omega|, |k|",
         "wavelength-angle-density": "angle >= 0, rows without trailing zeros",
         "coherence-map": "tau >= 0, xi >= 0"}


def test_each_command_reports_each_file_once_it_is_complete(tmp_path, monkeypatch,
                                                            capsys):
    # every file is written by the command itself: one wrote line per file,
    # printed once the file is complete
    small = _two_orientation_csv(tmp_path)
    sizes = {}  # path -> its size when its wrote line was printed

    def report(line):
        path = Path(line.removeprefix("wrote "))
        sizes[path] = path.stat().st_size if path.exists() else None
        print(line)

    monkeypatch.setattr(cli, "print", report, raising=False)
    manifest = tmp_path / "interferogram" / "interferogram_19p94_manifest.txt"
    layouts = {}  # kind -> (header, array names) of each CSV product
    for command, flags, n_files in (
            ("dispersion", [str(small), "--points=17"], 1),
            ("phasematch", [str(small)], 3),
            ("spectrum", [str(small)], 4),
            ("coherence", [str(small), "--blur=1fs,6um"], 16),
            ("interferogram", [str(small)], 24),
            ("analyze", [str(manifest), f"--config={small}"], 2)):
        out = tmp_path / command
        assert main([command, *flags, f"--out={out}"]) == 0
        files = sorted(out.iterdir())
        wrote = capsys.readouterr().out.splitlines()
        assert len(files) == n_files, command
        assert sorted(wrote) == sorted(f"wrote {f}" for f in files)
        assert all(sizes[f] == f.stat().st_size for f in files)
        for f in files:
            if f.suffix == ".csv":
                header, arrays = gridio._read_csv(f)
                layouts.setdefault(header["kind"], []).append((header, list(arrays)))
    # each symmetric kind in its one fold, each trace under its position axis
    for kind, fold in FOLDS.items():
        assert layouts[kind] and all(h.get("fold") == fold for h, _ in layouts[kind])
    assert len(layouts["fringe-trace"]) == 22
    assert all({"position_start", "position_step", "n_position"} <= h.keys()
               and names == ["intensity"] for h, names in layouts["fringe-trace"])
    wag = read_wavelength_angle_grid(tmp_path / "spectrum"
                                     / "spectrum_19p94_wavelength_angle.csv")
    assert wag.values.tobytes() == wag.values[:, ::-1].tobytes()


def test_a_refused_later_orientation_leaves_the_earlier_map_complete(
        tmp_path, capsys):
    # 21 deg is refused after the 19.94 deg products were written
    out = tmp_path / "out"
    assert main(["coherence", str(_two_orientation_csv(tmp_path)), f"--out={out}",
                 "--theta=19.94deg", "--theta=21deg"]) == 1
    assert "--theta: bbo_kato1986 at theta 21 deg" in capsys.readouterr().err
    assert read_coherence_map(out / "coherence_19p94_map.csv").g.shape == (1025, 257)


def test_a_writer_that_cannot_write_exits_1_naming_the_path(tmp_path,
                                                             monkeypatch, capsys):
    # a disk that fills up under the command's own first CSV write
    def full_disk(path, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(gridio, "_write_csv", full_disk)
    out = tmp_path / "out"
    assert main(["coherence", str(_two_orientation_csv(tmp_path)),
                 f"--out={out}"]) == 1
    err = capsys.readouterr().err
    assert f"--out: cannot write {out}/coherence_19p9_map.csv: No space left" in err
    assert "internal error" not in err


@pytest.mark.parametrize("thetas, flags, field", [
    ("19.94 deg", ["--theta=19.94deg", "--theta=19.940001deg"], "--theta"),
    ("19.94 deg, 19.90 deg, 19.940001 deg", [], r"\[crystal\] theta"),
], ids=["flags", "config"])
def test_orientations_that_share_a_product_tag_are_refused(tmp_path, capsys,
                                                           thetas, flags, field):
    # a tag keeps 6 significant digits: the second orientation would
    # overwrite the first one's products
    small = _two_orientation_csv(tmp_path)
    small.write_text(small.read_text().replace("19.90 deg, 19.94 deg", thetas))
    out = tmp_path / "out"
    for command in ("phasematch", "spectrum", "coherence", "interferogram"):
        assert main([command, str(small), f"--out={out}", *flags]) == 1
        err = capsys.readouterr().err
        assert re.search(f"{field}: 19.94 and 19.940001 deg share the product "
                         "tag 19p94", err), err
    assert list(out.iterdir()) == []


def test_missing_manifest_exits_1_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    out = tmp_path / "out"
    assert main(["analyze", str(missing), "--out", str(out)]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


def _perfbench_table(module, name):
    """The literal value of a module-level table in perfbench/<module>.py."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / f"{module}.py"
    return next(ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name)


def test_benchmark_wrapped_names_resolve():
    # perfbench/spans.py WRAPS lists (module, attribute, span) triples that
    # the traced benchmark launcher replaces; a missing name kills the launch
    wraps = _perfbench_table("spans", "WRAPS")
    import pdcoh.cli  # noqa: F401 - binds the consumer modules
    missing = [(module, name) for module, name, _ in wraps
               if not hasattr(importlib.import_module(module), name)]
    assert wraps and missing == []
    # perfbench/checks.py READERS names the gridio reader of each product;
    # a lost name would fail every readback of its products
    readers = _perfbench_table("checks", "READERS")
    from pdcoh import gridio
    lost = [name for _, name, _ in readers if not callable(getattr(gridio, name, None))]
    assert readers and lost == []


def test_unreadable_trace_exits_1_naming_the_file(ws, tmp_path, capsys):
    ghost = tmp_path / "ghost.csv"
    broken = tmp_path / "broken_manifest.txt"
    write_manifest(broken, [read_manifest(ws["manifest"])[0], ghost])
    assert main(["analyze", str(broken), "--config", str(ws["cfg"])]) == 1
    assert "ghost.csv" in capsys.readouterr().err


def test_runtime_failures_exit_2(tmp_path, capsys):
    # a sweep too short for the envelope to fall to half its peak: the
    # width, not any one field, is what fails
    short = tmp_path / "short.ini"
    short.write_text(CONFIG.format(out=tmp_path)
                     .replace("stage_span = 16 um", "stage_span = 3 um"))
    assert main(["interferogram", str(short)]) == 0
    assert main(["analyze", str(tmp_path / "interferogram_19p94_manifest.txt"),
                 "--config", str(short), "--out", str(tmp_path / "an")]) == 2
    assert "half-maximum crossing lies outside the map" in capsys.readouterr().err


@pytest.mark.parametrize("command, old, new, fields", [
    ("interferogram", "stage_span = 16 um", "stage_span = 1 um",
     r"\[interferometer\] stage_span.*cover at least 3"),
    # refused from the sweep's ends, before any of it is sampled
    ("interferogram", "stage_span = 16 um", "stage_span = 1e300 um",
     r"\[interferometer\] stage_span.*pass the map's tau axis"),
    ("interferogram", "bs2_step = 40 um", "bs2_step = 5 mm",
     r"\[interferometer\] .*bs2_step.*BS2 at -25000 um.*outside the map"),
    ("interferogram", "bs2_count = 11", "bs2_count = 11\nmagnification = 1e-6",
     r"\[interferometer\] .*magnification.*outside the map"),
    ("analyze", "stage_span = 16 um", "stage_span = 16 um\nwindow_fringes = 100",
     r"\[interferometer\] .*window_fringes 100 .*longer than the trace"),
    ("spectrum", "gain = 6", "gain = 0",
     r"\[crystal\] gain and length: density peak is 0"),
    # S overflows; refused by its peak, without a RuntimeWarning
    pytest.param("spectrum", "length = 10 mm", "length = 1e300 mm",
                 r"\[crystal\] gain and length: density peak is nan",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_refusals_that_config_values_cause_exit_1_naming_them(
        ws, tmp_path, capsys, command, old, new, fields):
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.format(out=tmp_path).replace(old, new))
    argv = [command, str(bad)]
    if command == "analyze":
        argv = ["analyze", str(ws["manifest"]), "--config", str(bad)]
    assert main(argv) == 1
    assert re.search(fields, capsys.readouterr().err)


@pytest.mark.parametrize("command", ["dispersion", "spectrum"])
def test_unreadable_sellmeier_file_exits_1_naming_it(tmp_path, capsys, command):
    sellmeier = tmp_path / "random.txt"
    sellmeier.write_bytes(bytes(range(128, 192)))  # not UTF-8 text
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.format(out=tmp_path)
                   .replace("bbo_kato1986", str(sellmeier)))
    assert main([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"\[crystal\] material: cannot read Sellmeier file .*random\.txt",
                     err), err
    assert "internal error" not in err


@pytest.mark.parametrize("old, new, refusal", [
    ("0.22 3.1", "3.1 0.22", r"bad\.txt: valid_range_um must be ordered and positive"),
    ("= 2.7359", "= 0.5", r"bad\.txt: ordinary index not real and above 1"),
    ("material = BBO", "material BBO", r"bad\.txt:15: expected key = value"),
    ("0.22 3.1", "0.22 3.1 5", r"bad\.txt: valid_range_um needs 2 numbers, got 3"),
    ("2.3753", "2.3753x", r"bad\.txt: extraordinary: could not convert .*2\.3753x"),
], ids=["unordered range", "index below 1", "line without =", "number count",
        "non-numeric coefficient"])
def test_malformed_sellmeier_file_exits_1_naming_it(tmp_path, capsys, old, new, refusal):
    kato = (Path(pdcoh.__file__).parent / "data" / "bbo_kato1986.txt").read_text()
    assert kato.count(old) == 1
    (tmp_path / "bad.txt").write_text(kato.replace(old, new))
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("bbo_kato1986", str(tmp_path / "bad.txt")))
    assert main(["dispersion", str(bad)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"\[crystal\] material: .*" + refusal, err), err
    assert not (tmp_path / "out").exists()


def test_phasematch_below_the_collinear_angle_writes_no_locus(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    assert main(["phasematch", str(cfg), "--theta", "19.80deg"]) == 0
    assert "theta 19.8 deg: no phase-matched ring in range, nothing written" \
        in capsys.readouterr().out
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["phasematch.txt"]


def test_cli_import_loads_no_importlib_resources():
    # the shipped Sellmeier sets are read by path, so no launch pays for
    # importing importlib.resources; -S keeps site hooks from importing it
    src = str(Path(pdcoh.__file__).resolve().parents[1])
    site = str(Path(np.__file__).resolve().parents[1])
    code = ("import sys\n"
            f"sys.path[:0] = [{src!r}, {site!r}]\n"
            "import pdcoh.cli\n"
            "pdcoh.load_sellmeier('bbo_kato1986')\n"
            "print('importlib.resources' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_readme_commands_run(tmp_path, monkeypatch):
    # the README's command block, line by line, on a 64 x 64 example grid
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pdcoh ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "example.ini").write_text(
        (root / "configs" / "example.ini").read_text()
        .replace("n_omega = 1024", "n_omega = 64").replace("n_k = 512", "n_k = 64"))
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_library_block_runs():
    # the README's python block, as written: it builds the 1024 x 512 example
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Library use", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["cmap"].g.shape == (1025, 257)
    assert np.ptp(scope["trace"].positions_m) == pytest.approx(48e-6, rel=1e-12, abs=0)


def test_usage_errors_and_help(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert "interferogram" in capsys.readouterr().out
