"""Every one-field mistake in a config file, and every drawn value of a
command-line flag, ends with exit 0 or 1 and a message naming what is
wrong: never a traceback or an internal error."""

import configparser
import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdcoh.cli import main
from pdcoh.config import FIELDS

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.ini"

# the example at 19.94 deg on a 64 x 64 grid, written in binary
_EXAMPLE = configparser.ConfigParser()
_EXAMPLE.read(EXAMPLE)
BASE = {key: value for section in _EXAMPLE.sections()
        for key, value in _EXAMPLE[section].items()}
BASE.update(n_omega="64", n_k="64", theta="19.94 deg", format="binary")

# huge valid values of these are large jobs, not bad inputs
_NO_HUGE = {"n_omega", "n_k", "bs2_count"}


@contextlib.contextmanager
def _inside(path):
    here = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(here)


COMMANDS = ("dispersion", "phasematch", "spectrum", "coherence",
            "interferogram", "analyze")


def _config_text(values):
    sections = {}
    for f in FIELDS:
        sections.setdefault(f.section, []).append(f"{f.key} = {values[f.key]}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n\n"
                   for section, lines in sections.items())


@st.composite
def _mutations(draw):
    """(key, text): one field of BASE set to one kind of mistake."""
    key = draw(st.sampled_from([f.key for f in FIELDS]))
    number, _, unit = BASE[key].split(",")[0].partition(" ")
    kinds = ["empty", "nan", "inf", "negative", "wrong unit", "wrong type", "list"]
    if key not in _NO_HUGE:
        kinds.append("huge")
    kind = draw(st.sampled_from(kinds))
    text = {
        "empty": "",
        "nan": f"nan {unit}",
        "inf": f"inf {unit}",
        "negative": f"-{number} {unit}",
        "huge": f"1e300 {unit}",
        "wrong unit": f"{number} {'mm' if unit == 'deg' else 'fs'}",
        "wrong type": "abc",
        "list": f"{BASE[key]}, {BASE[key]}",
    }[kind].strip()
    return key, text


@settings(max_examples=100, deadline=None)
@given(_mutations(), st.sampled_from(COMMANDS))
def test_one_bad_field_exits_0_or_1_naming_it(mutation, command):
    key, text = mutation
    section = next(f.section for f in FIELDS if f.key == key)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, _inside(root), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        Path("base.ini").write_text(_config_text(dict(BASE, directory="base")))
        Path("bad.ini").write_text(_config_text(dict(BASE, **{key: text})))
        if command == "analyze":
            assert main(["interferogram", "base.ini"]) == 0
            argv = ["analyze", "base/interferogram_19p94_manifest.txt",
                    "--config", "bad.ini"]
        else:
            argv = [command, "bad.ini"]
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1), message
    assert "internal error" not in message and "Traceback" not in message
    if code:
        assert re.search(rf"\[{section}\]|\b{key}\b", message), message


_ANGLES = st.one_of(st.floats(0.0, 95.0).map(lambda d: f"{d:g}deg"),
                    st.floats(19.5, 20.4).map(lambda d: f"{d:.3f} deg"),
                    st.sampled_from(["-1deg", "0.35rad", "nan deg", "20", "", "abc"]))
_WIDTHS = st.one_of(
    st.tuples(st.floats(0.0, 3000.0), st.floats(0.0, 3000.0)).map(
        lambda p: f"{p[0]:g}fs,{p[1]:g}um"),
    st.sampled_from(["1fs", "1fs,6um,6um", "1fs,-6um", "1000fs,6um",
                     "1fs,1000um", "0.01fs,6um", "1um,6fs", ","]))
_COUNTS = st.one_of(st.integers(-3, 600).map(str),
                    st.sampled_from(["many", "", "2.5", "1e3"]))
# --out: the file "taken", a path under it, an empty string, a directory
# still to be made, or no flag at all
_OUTS = st.sampled_from(["taken", "taken/out", "", "new/out", None])


@st.composite
def _commands(draw):
    """(argv, flags): one command on base.ini with drawn flag values."""
    command = draw(st.sampled_from(COMMANDS[:-1]))
    flags = {"dispersion": {"--points": _COUNTS},
             "coherence": {"--theta": _ANGLES, "--blur": _WIDTHS}}.get(
                 command, {"--theta": _ANGLES})
    argv = [command, "base.ini"]
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    out = draw(_OUTS)
    if out is not None:
        argv.append(f"--out={out}")
    return argv, [a.partition("=")[0] for a in argv[2:]]


@settings(max_examples=40, deadline=None)
@given(_commands())
# near the angle cap, the auto-sized grid resolves the central peak too coarsely
@example((["coherence", "base.ini", "--theta=68.9375deg", "--out=new/out"],
          ["--theta", "--out"]))
# a blur within the map that widens the peak's half maximum past its edge
@example((["coherence", "base.ini", "--blur=529fs,0um", "--out=new/out"],
          ["--blur", "--out"]))
def test_drawn_flags_exit_0_or_1_naming_the_flag(command):
    argv, flags = command
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, _inside(root), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        Path("base.ini").write_text(_config_text(dict(BASE, directory="base")))
        Path("taken").write_text("a file, not a directory\n")
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1), (argv, message)
    assert "internal error" not in message and "Traceback" not in message
    if code:
        assert any(flag in message for flag in flags), (argv, message)
