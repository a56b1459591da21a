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
from pdcoh.coherence import CoherenceColumn, CoherenceMap, blur_sigma
from pdcoh.config import load_run_config
from pdcoh.dispersion import load_sellmeier
from pdcoh.gridio import read_manifest, read_spectral_grid, read_trace, \
    write_manifest, write_spectral_grid, write_trace
from pdcoh.interferometer import FringeTrace, InterferometerConfig, extract_visibility, \
    synthesize_trace

_SELLMEIER = """\
material = BBO
ordinary = 2.7359 0.01878 0.01822 0.01354
extraordinary = 2.3753 0.01224 0.01667 0.01516
valid_range_um = 0.22 1.06
"""


def _unreadable_config(tmp_path):
    path = tmp_path / "absent.ini"
    return (lambda: load_run_config(path),
            f"cannot read config file {path}: {os.strerror(errno.ENOENT)}",
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
            f"{path}: omega_center must be a finite number, got 'x'",
            ConfigurationError)


def _negative_trace(tmp_path):
    trace = FringeTrace(np.arange(8) * 4e-8, np.ones(8), 0.0, 1.18e15)
    trace.intensities[3] = -1.0
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    return (lambda: read_trace(path),
            f"{path}: detector intensities must be finite and nonnegative",
            ConfigurationError)


def _words(call):
    """The message of the exception that call raises."""
    try:
        call()
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError("call raised nothing")


def _unpack_two(ratios):
    r1, r2 = ratios
    return r1, r2


def _split_ratio_none(tmp_path):
    return (lambda: InterferometerConfig(split_ratio=None),
            f"split_ratio: {_words(lambda: _unpack_two(None))}", TypeError)


def _split_ratio_of_three(tmp_path):
    ratios = (0.25, 0.25, 0.5)
    return (lambda: InterferometerConfig(split_ratio=ratios),
            f"split_ratio: {_words(lambda: _unpack_two(ratios))}", ValueError)


def _text_intensities(tmp_path):
    return (lambda: FringeTrace(np.arange(8) * 4e-8, "abc", 0.0, 1.18e15),
            "intensities: could not convert string to float: 'abc'", ValueError)


def _text_positions(tmp_path):
    return (lambda: FringeTrace("abc", np.ones(8), 0.0, 1.18e15),
            "positions_m: could not convert string to float: 'abc'", ValueError)


def _manifest_is_a_directory(tmp_path):
    return (lambda: read_manifest(tmp_path),
            f"cannot read trace manifest {tmp_path}: {os.strerror(errno.EISDIR)}",
            IsADirectoryError)


def _manifest_lists_a_missing_trace(tmp_path):
    manifest, trace = tmp_path / "m.txt", tmp_path.resolve() / "absent.csv"
    write_manifest(manifest, [trace])
    args = cli._build_parser().parse_args(
        ["analyze", str(manifest), "--out", str(tmp_path / "out")])
    return (lambda: args.func(args),
            f"unreadable trace file {trace}: {os.strerror(errno.ENOENT)}",
            FileNotFoundError)


@pytest.mark.parametrize("case", [
    _unreadable_config, _malformed_config, _sellmeier_not_utf8,
    _sellmeier_not_a_float, _spectral_spec_off_its_axes,
    _spectral_spec_of_the_wrong_type, _negative_trace,
    _split_ratio_none, _split_ratio_of_three, _text_intensities, _text_positions,
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


_TAU = np.arange(-2.0, 3.0) * 1e-15
_TRACE = FringeTrace(np.arange(64) * 1e-8, np.ones(64), 0.0, 1.18e15,
                     icfg_hash=InterferometerConfig().config_hash())
_MAP = CoherenceMap(_TAU, np.arange(-1.0, 2.0) * 1e-6, domain=np.ones((3, 2)),
                    carrier_omega=1.18e15, intensity=1.0)
_COLUMN = CoherenceColumn(_TAU, np.ones(5), 1.18e15)

# a value that is not a number, where one is wanted -> the refusal naming it;
# such values raised TypeError from a comparison, or were taken
_NOT_A_NUMBER = {
    "column carrier": (lambda: CoherenceColumn(_TAU, np.ones(5), "abc"),
                       "carrier_omega must be a finite number, got 'abc'"),
    "column carrier of zero": (lambda: CoherenceColumn(_TAU, np.ones(5), 0.0),
                               "carrier_omega must be positive, got 0.0"),
    "visibility window": (
        lambda: extract_visibility(_TRACE, InterferometerConfig(), window_fringes="abc"),
        "window_fringes must be a finite number, got 'abc'"),
    "blur tau width": (lambda: blur_sigma(_MAP, "abc", 1.0),
                       "blur tau width must be a finite number, got 'abc'"),
    "blur xi width": (lambda: blur_sigma(_MAP, 0.0, None),
                      "blur xi width must be a finite number, got None"),
    "sweep BS2 position": (
        lambda: synthesize_trace(_COLUMN, InterferometerConfig(), bs2_position_m="abc"),
        "bs2_position_m must be a finite number, got 'abc'"),
    "sweep BS2 position of NaN": (
        lambda: synthesize_trace(_COLUMN, InterferometerConfig(), bs2_position_m=float("nan")),
        "bs2_position_m must be a finite number, got nan"),
    "sweep stage span": (
        lambda: synthesize_trace(_COLUMN, InterferometerConfig(), stage_span_m="abc"),
        "stage_span_m must be a finite number, got 'abc'"),
    "sweep stage span of NaN": (
        lambda: synthesize_trace(_COLUMN, InterferometerConfig(), stage_span_m=float("nan")),
        "stage_span_m must be a finite number, got nan"),
    "sweep stage span of zero": (
        lambda: synthesize_trace(_COLUMN, InterferometerConfig(), stage_span_m=0.0),
        "stage_span_m must be positive, got 0.0"),
}


@pytest.mark.parametrize("case", sorted(_NOT_A_NUMBER))
def test_a_value_that_is_not_a_number_is_refused_naming_it(case):
    call, words = _NOT_A_NUMBER[case]
    with pytest.raises(ConfigurationError) as info:
        call()
    assert type(info.value) is ConfigurationError and str(info.value) == words

