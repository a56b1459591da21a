import ast
import importlib
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdcoh
from pdcoh.cli import main
from pdcoh.gridio import (
    read_assembled_map,
    read_coherence_map,
    read_manifest,
    read_metrics,
    read_profile,
    read_spectral_grid,
    read_trace,
    write_manifest,
)

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
    """One interferogram run shared by the read-side tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    cfg = root / "run.ini"
    cfg.write_text(CONFIG.format(out=out))
    assert main(["interferogram", str(cfg)]) == 0
    return {"cfg": cfg, "out": out,
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
                                                       rel=1e-12)


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


def test_analyze_rebuilds_the_map(ws, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", str(ws["manifest"]), "--config", str(ws["cfg"]),
                 "--out", str(out)]) == 0
    amap = read_assembled_map(out / "analyze_map.csv")
    assert amap.magnitude.shape[1] == 11
    assert np.allclose(amap.xi_axis,
                       np.arange(-5, 6) * 40e-6 / 6.6, rtol=1e-9)
    record = read_metrics(out / "analyze_metrics.txt")
    assert record["n_traces"] == 11
    # the one-fringe window broadens the reconstructed widths; they stay
    # the right order of magnitude
    assert 1.2e-14 < record["tau_c_s"] < 3.0e-14
    assert 3.0e-05 < record["xi_c_m"] < 5.5e-05


def test_analyze_single_trace_gives_an_envelope(ws, tmp_path):
    solo = tmp_path / "solo_manifest.txt"
    write_manifest(solo, [read_manifest(ws["manifest"])[5]])
    out = tmp_path / "solo"
    assert main(["analyze", str(solo), "--config", str(ws["cfg"]),
                 "--out", str(out)]) == 0
    _, cols = read_profile(out / "analyze_envelope.csv", "coherence-cut")
    assert cols["magnitude"].max() <= 1.0 + 1e-9
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


def test_bad_blur_flag_exits_1(ws, tmp_path, capsys):
    assert main(["coherence", str(ws["cfg"]), "--blur", "1fs"]) == 1
    assert "--blur" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["coherence", str(ws["cfg"]), "--blur", "1fs,-6um",
                 "--out", str(out)]) == 1
    assert "--blur" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("dispersion", "--points", "-5"),
    ("dispersion", "--points", "0"),
    ("dispersion", "--points", "many"),
    ("interferogram", "--bs2-steps", "0"),
    ("interferogram", "--bs2-steps", "-3"),
    ("coherence", "--blur", "-1fs,6um"),
])
def test_bad_count_and_width_flags_exit_1_before_any_work(ws, tmp_path, capsys,
                                                          command, flag, value):
    out = tmp_path / "out"
    # flag=value: argparse would take a bare "-1fs,6um" for an option
    assert main([command, str(ws["cfg"]), "--out", str(out), f"{flag}={value}"]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_missing_manifest_exits_1_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    out = tmp_path / "out"
    assert main(["analyze", str(missing), "--out", str(out)]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_wrapped_names_resolve():
    # perfbench/spans.py WRAPS lists (module, attribute, span) triples that
    # the traced benchmark launcher replaces; a missing name kills the launch
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    wraps = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "WRAPS")
    import pdcoh.cli  # noqa: F401 - binds the consumer modules
    missing = [(module, name) for module, name, _ in wraps
               if not hasattr(importlib.import_module(module), name)]
    assert wraps and missing == []


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
    ("interferogram", "bs2_step = 40 um", "bs2_step = 5 mm",
     r"\[interferometer\] .*bs2_step.*BS2 at -25000 um.*outside the map"),
    ("interferogram", "bs2_count = 11", "bs2_count = 11\nmagnification = 1e-6",
     r"\[interferometer\] .*magnification.*outside the map"),
    ("analyze", "stage_span = 16 um", "stage_span = 16 um\nwindow_fringes = 100",
     r"\[interferometer\] .*window_fringes 100 .*longer than the trace"),
    ("spectrum", "gain = 6", "gain = 0", r"\[crystal\]: density peak is 0"),
    ("spectrum", "length = 10 mm", "length = 1e300 mm",
     r"\[crystal\]: density peak is nan"),
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


def test_usage_errors_and_help(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert "interferogram" in capsys.readouterr().out
