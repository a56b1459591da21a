"""Refusals that name a file or field ahead of the error they wrap.

Each case is one bad input at one site that catches an exception and
re-raises it as a ConfigurationError prefixed with its file or field. The
case pins the whole message, the type raised and the type it chains from.
"""

import configparser
import errno
import os

import numpy as np
import pytest

from pdcoh import ConfigurationError, GridSpec, SpectralGrid, cli
from pdcoh.config import load_run_config
from pdcoh.dispersion import load_sellmeier
from pdcoh.gridio import read_manifest, read_spectral_grid, read_trace, \
    write_manifest, write_spectral_grid, write_trace
from pdcoh.interferometer import FringeTrace

_SELLMEIER = """\
material = BBO
ordinary = 2.7359 0.01878 0.01822 0.01354
extraordinary = 2.3753 0.01224 0.01667 0.01516
valid_range_um = 0.22 1.06
"""


def _oserror(code, path):
    return f"[Errno {code}] {os.strerror(code)}: '{path}'"


def _unreadable_config(tmp_path):
    path = tmp_path / "absent.ini"
    return (lambda: load_run_config(path),
            f"cannot read config file {path}: {_oserror(errno.ENOENT, path)}",
            FileNotFoundError)


def _malformed_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("oops\n")
    return (lambda: load_run_config(path),
            "malformed config file: File contains no section headers.\n"
            f"file: '{path}', line: 1\n'oops\\n'",
            configparser.MissingSectionHeaderError)


def _sellmeier_not_utf8(tmp_path):
    path = tmp_path / "set.txt"
    path.write_bytes(b"\xff" + _SELLMEIER.encode())
    return (lambda: load_sellmeier(str(path)),
            f"cannot read Sellmeier file {path}: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte",
            UnicodeDecodeError)


def _sellmeier_not_a_float(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text(_SELLMEIER.replace("0.01878", "x"))
    return (lambda: load_sellmeier(str(path)),
            f"{path}: ordinary: could not convert string to float: 'x'",
            ValueError)


def _spectral_file(tmp_path, key, value):
    """A CSV S whose header holds value, JSON-encoded, under key."""
    spec = GridSpec(omega_center=1.2e15, omega_half_width=2e14, n_omega=64,
                    k_half_width=1e5, n_k=64)
    path = tmp_path / "s.csv"
    write_spectral_grid(path, SpectralGrid(spec, domain=np.ones((33, 33))))
    text = path.read_text()
    line = next(line for line in text.splitlines() if line.startswith(f"# {key}:"))
    path.write_text(text.replace(line, f"# {key}: {value}"))
    return path


def _spectral_spec_off_its_axes(tmp_path):
    path = _spectral_file(tmp_path, "omega_center", "1.3e15")
    return (lambda: read_spectral_grid(path),
            f"{path}: the grid spec disagrees with the omega axis",
            ConfigurationError)


def _spectral_spec_of_the_wrong_type(tmp_path):
    path = _spectral_file(tmp_path, "omega_center", '"x"')
    return (lambda: read_spectral_grid(path),
            f"{path}: '<=' not supported between instances of 'str' and 'float'",
            TypeError)


def _negative_trace(tmp_path):
    trace = FringeTrace(np.arange(8) * 4e-8, np.ones(8), 0.0, 1.18e15)
    trace.intensities[3] = -1.0
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    return (lambda: read_trace(path),
            f"{path}: detector intensities must be finite and nonnegative",
            ConfigurationError)


def _manifest_is_a_directory(tmp_path):
    return (lambda: read_manifest(tmp_path),
            f"cannot read trace manifest {tmp_path}: "
            f"{_oserror(errno.EISDIR, tmp_path)}",
            IsADirectoryError)


def _manifest_lists_a_missing_trace(tmp_path):
    manifest, trace = tmp_path / "m.txt", tmp_path.resolve() / "absent.csv"
    write_manifest(manifest, [trace])
    args = cli._build_parser().parse_args(
        ["analyze", str(manifest), "--out", str(tmp_path / "out")])
    return (lambda: args.func(args),
            f"unreadable trace file {trace}: {_oserror(errno.ENOENT, trace)}",
            FileNotFoundError)


@pytest.mark.parametrize("case", [
    _unreadable_config, _malformed_config, _sellmeier_not_utf8,
    _sellmeier_not_a_float, _spectral_spec_off_its_axes,
    _spectral_spec_of_the_wrong_type, _negative_trace,
    _manifest_is_a_directory, _manifest_lists_a_missing_trace,
], ids=lambda case: case.__name__.lstrip("_"))
def test_a_prefixed_refusal_keeps_its_words_and_its_cause(case, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    call, words, cause = case(tmp_path)
    with pytest.raises(ConfigurationError) as info:
        call()
    assert type(info.value) is ConfigurationError
    assert str(info.value) == words
    assert type(info.value.__cause__) is cause
