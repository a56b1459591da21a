"""Deterministic on-disk formats for grids, maps, traces, and metrics.

Two encodings share one header model. CSV files open with `# key: value`
lines (values JSON-encoded, so strings and numbers survive the round
trip) followed by comma-separated rows, which the reader parses in one
numpy.loadtxt call. Binary files carry a JSON header
after an 8-byte magic and then raw little-endian float64 arrays in C
order. Every array is real: a complex column or a binary array of
another dtype is refused naming the file. Every array product (grids, maps,
cuts, tables and fringe traces) goes through one writer, `_write`, and
one reader, `_read`. Uniform axes persist as start/step/count, and an
array read back must have one sample per axis value, or per node of its
fundamental domain: a fringe trace is one row of intensities under the
`position` axis of its stage sweep, in either encoding.
Headers carry no timestamp: the same inputs must produce the same bytes.

A symmetric product is a spectrum.Folded, held in memory as its
fundamental domain, and stores just that, named by its class's `fold` in
a `fold` header field: a coherence map its tau >= 0, xi >= 0 quadrant, S
its (|Omega|, |k|) quadrant, a wavelength-angle grid its angle >= 0
columns. Each is written from and read into the domain its object holds,
never unfolded, so a file does not hold the full grid for a tool such as
numpy.loadtxt; the domain's shape comes from the class's symmetry. A
symmetric kind's file with no fold field, or with another fold, and a
fold on any other kind are refused naming the file. A CSV value is its repr, a
NaN whose sign bit is set -nan, byte for byte; one numpy kernel formats a
block of values at a time and calls repr only for the few values it
cannot settle exactly (_write_rows). Every write_* returns with its file
complete, written by the calling process: the command line writes every
product itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .coherence import CoherenceMap
from .errors import ConfigurationError, blamed
from .interferometer import AssembledMap, FringeTrace
from .spectrum import GridSpec, SpectralGrid, WavelengthAngleGrid, domain_shape

_VERSION = 1
_MAGIC = b"PDCOHBIN"

# output format -> file extension
FORMATS = {"csv": "csv", "binary": "bin"}

def _clean(header):
    out = {}
    for key, value in header.items():
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if not isinstance(value, (str, int, float, bool)):
            value = str(value)
        out[str(key)] = value
    return out


def _axis_spec(name, axis):
    axis = np.asarray(axis, dtype=float)
    if axis.size == 0:
        raise ConfigurationError(f"axis {name} is empty")
    step = float(axis[1] - axis[0]) if axis.size > 1 else 0.0
    if axis.size > 1:
        dev = np.max(np.abs(np.diff(axis) - step))
        if dev > 1e-9 * abs(step):
            raise ConfigurationError(f"axis {name} is not uniform")
    return {f"{name}_start": float(axis[0]), f"{name}_step": step,
            f"n_{name}": int(axis.size)}


@contextlib.contextmanager
def _decoding(path):
    """Report a file that fails to decode as a ConfigurationError naming it."""
    try:
        yield
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise ConfigurationError(
            f"{path}: cannot decode: {type(exc).__name__}: {exc}") from exc


def _require(header, key, path):
    try:
        return header.pop(key)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: header lacks {key!r}") from exc


# --- CSV encoding ---


def _float_rows(arr):
    # the float64 every array is stored as; a complex one raises TypeError
    return np.atleast_2d(arr).astype("<f8", casting="safe", copy=False)


# The CSV encoder: see _write_rows.
_K_MIN, _K_MAX = -240, 272  # the 10^k table
_FAST_RANGE = (1e-250, 1e250)
_MARGIN = 1e-9  # in units of the 17th digit
_BLOCK = 1 << 12  # values per block: about 1 MB of temporaries
_SLOT = 25  # bytes per value: sign, at most 23 characters, separator


@functools.cache
def _tables():
    """10^k as hi + lo doubles, hi also as its two halves; the text of
    each 4-digit group, in full and without its trailing zeros; the text
    of each decimal exponent. Built on the first CSV write."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            # int / int is correctly rounded
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi = np.array(hi)
    n = np.arange(10000)
    text = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], 1).astype(np.uint8)
    trailing = np.logical_and.accumulate(text[:, ::-1] == 0, axis=1)[:, ::-1]
    groups = np.concatenate([text + ord("0"), np.where(trailing, 0, text + ord("0"))])
    exponents = np.array([b"e%+03d" % e for e in range(-400, 400)], "S5")
    return (hi, *_split(hi), np.array(lo), groups.view(np.uint32).ravel(),
            exponents.view(np.uint8).reshape(-1, 5))


def _split(a):
    """Dekker's split of a into two halves of at most 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(x, i):
    """x 10^k, k = _K_MIN + i, as the integer P nearest to it plus f in
    [-0.5, 0.5]."""
    hi, hh, hl, lo = (table.take(i) for table in _tables()[:4])
    p = x * hi
    xh, xl = _split(x)
    t = xl * hl - (((p - xh * hh) - xl * hh) - xh * hl) + x * lo
    r = np.rint(t)
    # p is above 2^53, so a whole number
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _shortest(x):
    """(settled, D, decpt) of positive normal doubles: repr's digits are
    those of the 17-digit D, less its trailing zeros, with the decimal
    point decpt places from their start, where settled."""
    i = (16 - _K_MIN) - np.floor(np.log10(x)).astype(np.int64)
    P, f = _scaled(x, i)
    off = (P < 10 ** 16) | (P > 10 ** 17)
    if off.any():  # log10 was a unit off, next to a power of ten
        i[off] += np.where(P[off] < 10 ** 16, 1, -1)
        P[off], f[off] = _scaled(x[off], i[off])
    settled = (P >= 10 ** 16) & (P <= 10 ** 17)
    half_ulp = np.ldexp(_tables()[0].take(i), np.frexp(x)[1] - 54)
    inside, outside = half_ulp - _MARGIN, half_ulp + _MARGIN
    D = P
    near = np.abs(np.abs(f) - 0.5) <= _MARGIN  # a tie for the 17 digits
    for unit in (10, 100):
        q = P // unit
        s = (P - q * unit) + f
        up = s > unit / 2
        dist = np.where(up, unit - s, np.abs(s))
        take = dist < inside
        D = np.where(take, (q + up) * unit, D)
        # a tie between two roundings can only be taken at 16 digits
        near = np.where(take, np.abs(s - unit / 2) <= _MARGIN, near | (dist < outside))
    top = D == 10 ** 17
    return settled & ~near, np.where(top, 10 ** 16, D), (17 - _K_MIN) - i + top


def _encode(rows):
    """The CSV lines of a block of rows, as a uint8 array.

    Each value gets a _SLOT-byte slot: a sign byte, its text, its separator
    last, zero bytes between, which are dropped at the end. The text is laid
    out by the place of the decimal point, as repr lays it out: fixed for
    decpt in -3..16, with an exponent beyond (layout 17). Sorted by layout,
    each layout's values are a run of slots that slice copies fill.
    """
    *_, groups, exponents = _tables()
    v = rows.ravel()
    a = np.abs(v)
    neg = np.signbit(v)
    # finite, normal, inside _FAST_RANGE and not a power of two
    fast = (a >= _FAST_RANGE[0]) & (a < _FAST_RANGE[1]) & (v.view(np.uint64) << 12 != 0)
    # 1.5 stands in for the values the kernel does not write
    settled, D, decpt = _shortest(np.where(fast, a, 1.5))
    layout = np.where((decpt > -4) & (decpt <= 16), decpt, 17).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    bounds = np.cumsum(np.bincount(layout + 4, minlength=22)).tolist()
    D, decpt = D.take(order), decpt.take(order)
    # D's 17 digits: the first in byte 3, then four groups of four in
    # words 1-4; words 5-8 hold those groups trimmed: a group followed by
    # zero groups alone has its trailing zeros as zero bytes
    top = D // 10 ** 8
    low = (D - top * 10 ** 8).astype(np.uint32)
    top = top.astype(np.uint32)
    first = top // 10 ** 8
    top -= first * 10 ** 8
    g = np.empty((len(v), 8), np.intp)
    for j, part in ((0, top), (2, low)):
        g[:, j] = part // 10 ** 4
        g[:, j + 1] = part - g[:, j] * 10 ** 4
    tail = np.ones(len(v), bool)
    for j in (3, 2, 1, 0):
        g[:, 4 + j] = g[:, j] + 10000 * tail
        tail &= g[:, j] == 0
    words = np.empty((len(v), 9), np.uint32)
    words[:, 1:] = groups.take(g)
    digits = words.view(np.uint8)
    digits[:, 3] = first + ord("0")
    full, trim = digits[:, 3:20], digits[:, 20:]
    laid = np.zeros((len(v), _SLOT), np.uint8)
    laid[:, 0] = neg.take(order) * np.uint8(ord("-"))
    for q in range(-3, 18):
        lo, hi = bounds[q + 3], bounds[q + 4]
        if lo == hi:
            continue
        run = laid[lo:hi]
        if q <= 0:  # 0.000ddd
            run[:, 1:3 - q] = np.frombuffer(b"0.000"[:2 - q], np.uint8)
            run[:, 3 - q] = full[lo:hi, 0]
            run[:, 4 - q:20 - q] = trim[lo:hi]
        elif q <= 16:  # ddd.ddd, at least one digit after the point
            run[:, 1:1 + q] = full[lo:hi, :q]
            run[:, 1 + q] = ord(".")
            run[:, 2 + q] = full[lo:hi, q]
            run[:, 3 + q:19] = trim[lo:hi, q:]
        else:  # d.ddde+XX, the point only before a digit
            run[:, 1] = full[lo:hi, 0]
            run[:, 2] = (trim[lo:hi, 0] != 0) * np.uint8(ord("."))
            run[:, 3:19] = trim[lo:hi]
            run[:, 19:24] = exponents.take(decpt[lo:hi] + 399, axis=0)
    # back in value order: a take of rows is far faster than a scatter
    inv = np.empty_like(order)
    inv[order] = np.arange(len(v))
    slot = laid.take(inv, axis=0)
    zero = a == 0
    slot[zero, 1:] = np.frombuffer(b"0.0".ljust(_SLOT - 1, b"\0"), np.uint8)
    rest = np.flatnonzero(~(fast & settled) & ~zero)
    if rest.size:
        # repr drops a NaN's sign: -nan, which the reader's float parse keeps
        text = [b"-nan" if nan else repr(x).encode() for x, nan in
                zip(v[rest].tolist(), (np.isnan(v[rest]) & neg[rest]).tolist())]
        slot[rest, :-1] = np.array(text, f"S{_SLOT - 1}").view(np.uint8).reshape(-1, _SLOT - 1)
    slot[:, -1] = ord(",")
    slot[rows.shape[1] - 1::rows.shape[1], -1] = ord("\n")
    flat = slot.reshape(-1)
    return flat[flat != 0]


def _write_rows(fh, rows):
    """Write each row's line: its values comma-separated, each as repr
    writes it, but -nan for a NaN whose sign bit is set, which the reader's
    float parse keeps.

    The bytes are those of a repr call per value, but one numpy kernel
    (_encode) makes them for _BLOCK values at a time. The digits are repr's
    shortest round-trip decimal (Adams, "Ryu", PLDI 2018): y = |x| 10^k in
    [1e16, 1e17] is formed as a double-double with Dekker's exact product
    (1971), and the first of the 15-, 16- and 17-digit roundings of y that
    lies within half an ulp of x is taken, as repr takes it. The computed y
    and half ulp are off by less than 1e-13 of a unit of the 17th digit. A
    value whose rounding lies within _MARGIN (1e-9 units) of a tie or of
    the half-ulp bound, where that error could decide, is formatted by
    repr itself, as are NaN, infinities, |x| outside _FAST_RANGE
    (subnormals among them), and powers of two, whose neighbour below is
    nearer than the one above. Zeros are written directly.
    """
    step = max(1, _BLOCK // rows.shape[1])
    for start in range(0, len(rows), step):
        fh.write(_encode(rows[start:start + step]))


def _write_csv(path, header, arrays):
    arrays = [(name, _float_rows(arr)) for name, arr in arrays]
    lines = [f"# pdcoh_file: {_VERSION}"]
    for key, value in header.items():
        lines.append(f"# {key}: {json.dumps(value)}")
    lines.append("# columns: " + json.dumps([[name, "real"] for name, _ in arrays]))
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode())
        for _, arr in arrays:
            _write_rows(fh, arr)


def _read_csv(path):
    """The `#` header lines, then the whole body in one parse, whose rows
    divide evenly between the arrays `# columns:` lists, in listed order.
    The body holds no comments: a `#` or an empty cell in it, or rows of
    unequal width, fail the parse."""
    header = {}
    with open(path) as fh:
        if fh.readline().strip() != f"# pdcoh_file: {_VERSION}":
            raise ConfigurationError(f"{path}: not a pdcoh CSV file")
        body = fh.tell()
        while (line := fh.readline()).startswith("#") or line.isspace():
            if line.startswith("#"):
                key, _, raw = line[1:].partition(":")
                header[key.strip()] = json.loads(raw)
            body = fh.tell()
        if (columns := header.pop("columns", None)) is None:
            raise ConfigurationError(f"{path}: header lacks the column listing")
        if not line:  # loadtxt would only warn
            raise ConfigurationError(f"{path}: no rows follow the header")
        fh.seek(body)
        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if len(columns) == 0 or len(rows) % len(columns):
        raise ConfigurationError(f"{path}: row count does not match columns")
    per = len(rows) // len(columns)
    arrays = {}
    for idx, (name, kind) in enumerate(columns):
        if kind != "real":
            raise ConfigurationError(f"{path}: array {name!r} has column type "
                                     f"{kind!r}; pdcoh files hold real arrays")
        arrays[name] = rows[idx * per:(idx + 1) * per]
    return header, arrays


# --- binary encoding ---


def _write_binary(path, header, arrays):
    meta = dict(header)
    meta["pdcoh_file"] = _VERSION
    arrays = [(name, _float_rows(arr)) for name, arr in arrays]
    meta["arrays"] = [[name, "<f8", list(arr.shape)] for name, arr in arrays]
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            # the array's own buffer when it is already C-ordered
            fh.write(np.ascontiguousarray(arr).data)


def _read_binary(path):
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        fh.seek(len(_MAGIC))
        (length,) = struct.unpack("<I", fh.read(4))
        blob = fh.read(length)
        if len(blob) != length:
            raise ConfigurationError(
                f"{path}: truncated: header needs {length} bytes, "
                f"{len(blob)} remain")
        meta = json.loads(blob.decode())
        if not isinstance(meta, dict):
            raise ConfigurationError(f"{path}: header is not a JSON object")
        if meta.pop("pdcoh_file", None) != _VERSION:
            raise ConfigurationError(f"{path}: unsupported format version")
        arrays = {}
        for name, dtype, shape in meta.pop("arrays"):
            if dtype != "<f8":
                raise ConfigurationError(f"{path}: array {name!r} has dtype "
                                         f"{dtype!r}; pdcoh files hold <f8")
            size, left = math.prod(shape) * 8, end - fh.tell()
            if size > left:  # checked before a header's shape is allocated
                raise ConfigurationError(f"{path}: truncated: array {name!r} "
                                         f"needs {size} bytes, {left} remain")
            # read into the array itself: no copy of its bytes beside it
            arrays[name] = np.empty(shape, dtype)
            fh.readinto(arrays[name])
    return meta, arrays


# --- one writer and one reader for every array product ---


def _write(path, fmt, head, axes, provenance, arrays, fold=None):
    """Write the head fields, each (name, axis) as start/step/count, the
    provenance, then the named arrays, in that header order; a Folded
    product's arrays are its fundamental domain, declared by its fold as a
    last `fold` field."""
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown output format {fmt!r}; "
                                 f"choose one of {tuple(FORMATS)}")
    header = dict(head)
    for name, axis in axes:
        header.update(_axis_spec(name, axis))
    header.update(_clean(provenance))
    if fold is not None:
        header["fold"] = fold
    (_write_csv if fmt == "csv" else _write_binary)(path, header, arrays)


def _read(path, kind, axes=(), folded=None):
    """(provenance, axes, arrays) of a product of this kind.

    The encoding is sniffed from the magic. The file of a folded kind, read
    for its Folded class, must carry the class's one fold, any other file
    none. With axes named, each axis must hold an integer count and a
    finite start and step (_axis), and every array must have one row per
    value of the first and one column per value of the second, or for a
    folded kind the shape of that grid's domain under the class's symmetry.
    """
    with open(path, "rb") as fh:
        binary = fh.read(len(_MAGIC)) == _MAGIC
    with _decoding(path):
        header, arrays = (_read_binary if binary else _read_csv)(path)
        found = _require(header, "kind", path)
        if found != kind:
            raise ConfigurationError(
                f"{path}: expected a {kind} file, found {found!r}")
        specs = [_axis(header, name, path) for name in axes]
        shape = tuple(n for _, _, n in specs)
        fold = header.pop("fold", None)
        ours = None if folded is None else folded.fold
        if fold != ours:
            raise ConfigurationError(f"{path}: {kind} files have fold {ours!r}, "
                                     f"this one {fold!r}")
        if folded is not None:
            shape = domain_shape(folded.symmetry, shape)
        for name, arr in arrays.items() if axes else ():
            if arr.shape != shape:
                raise ConfigurationError(f"{path}: array {name!r} has shape "
                                         f"{arr.shape}, its axes give {shape}")
    return header, [start + np.arange(n) * step for start, step, n in specs], arrays


def _axis(header, name, path):
    """(start, step, count) of an axis: an integer count, finite start and step."""
    start, step, n = (_require(header, key, path) for key in
                      (f"{name}_start", f"{name}_step", f"n_{name}"))
    if type(n) is not int:
        raise ConfigurationError(
            f"{path}: n_{name} must be an integer, got {n!r}")
    for key, value in ((f"{name}_start", start), (f"{name}_step", step)):
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigurationError(
                f"{path}: {key} must be a finite number, got {value!r}")
    return start, step, n


# the GridSpec numbers that the axes' start/step/count do not carry exactly
_SPEC_KEYS = ("omega_center", "omega_half_width", "k_half_width")


def write_spectral_grid(path, sg, fmt="csv"):
    _write(path, fmt, {"kind": "spectral-density",
                       **{key: getattr(sg.spec, key) for key in _SPEC_KEYS}},
           [("omega", sg.omega_axis()), ("k", sg.k_axis())], sg.provenance,
           [("density", sg.domain)], sg.fold)


def read_spectral_grid(path):
    """S, built from the (|Omega|, |k|) quadrant its file stores."""
    header, (omega, k), arrays = _read(path, "spectral-density", ("omega", "k"),
                                       SpectralGrid)
    spec = {key: _require(header, key, path) for key in _SPEC_KEYS}
    density = _require(arrays, "density", path)
    with blamed(path, ConfigurationError, TypeError):
        spec = GridSpec(n_omega=omega.size, n_k=k.size, **spec)
        for name, ours, read, step in (
                ("omega", spec.omega_axis(), omega, spec.omega_step),
                ("k", spec.k_axis(), k, spec.k_step)):
            if not np.allclose(ours, read, rtol=0, atol=1e-6 * step):
                raise ConfigurationError(f"the grid spec disagrees with the {name} axis")
        return SpectralGrid(spec, domain=density, provenance=header)


def write_wavelength_angle_grid(path, wag, fmt="csv"):
    _write(path, fmt, {"kind": "wavelength-angle-density"},
           [("wavelength", wag.wavelength_axis_m), ("angle", wag.angle_axis_rad)],
           wag.provenance, [("density", wag.domain)], wag.fold)


def read_wavelength_angle_grid(path):
    header, (wavelength, angle), arrays = _read(
        path, "wavelength-angle-density", ("wavelength", "angle"), WavelengthAngleGrid)
    return WavelengthAngleGrid(wavelength_axis_m=wavelength,
                               angle_axis_rad=angle,
                               domain=_require(arrays, "density", path),
                               provenance=header)


def write_coherence_map(path, cmap, fmt="csv"):
    _write(path, fmt, {"kind": "coherence-map",
                       "carrier_omega": float(cmap.carrier_omega),
                       "intensity": float(cmap.intensity)},
           [("tau", cmap.tau_axis), ("xi", cmap.xi_axis)], cmap.provenance,
           [("g", cmap.domain)], cmap.fold)


def read_coherence_map(path):
    header, (tau, xi), arrays = _read(path, "coherence-map", ("tau", "xi"), CoherenceMap)
    return CoherenceMap(tau_axis=tau, xi_axis=xi,
                        domain=_require(arrays, "g", path),
                        carrier_omega=_require(header, "carrier_omega", path),
                        intensity=_require(header, "intensity", path),
                        provenance=header)


def write_assembled_map(path, amap, fmt="csv"):
    _write(path, fmt, {"kind": "assembled-map"},
           [("tau", amap.tau_axis), ("xi", amap.xi_axis)], amap.provenance,
           [("magnitude", amap.magnitude)])


def read_assembled_map(path):
    header, (tau, xi), arrays = _read(path, "assembled-map", ("tau", "xi"))
    return AssembledMap(tau_axis=tau, xi_axis=xi,
                        magnitude=_require(arrays, "magnitude", path),
                        provenance=header)


def write_profile(path, kind, header, columns, fmt="csv"):
    """One-dimensional cuts: equal-length named columns side by side, of
    at least one value, so that a CSV body holds rows."""
    sizes = {np.asarray(arr).size for _, arr in columns}
    if len(sizes) != 1 or 0 in sizes:
        raise ConfigurationError("profile columns are empty or differ in length")
    _write(path, fmt, {"kind": kind}, [], header,
           [(name, np.asarray(arr).reshape(1, -1)) for name, arr in columns])


def read_profile(path, kind):
    header, _, arrays = _read(path, kind)
    return header, {name: arr.ravel() for name, arr in arrays.items()}


def write_trace(path, trace, fmt="csv"):
    """A fringe trace: its stage sweep as the uniform `position` axis (a
    sweep that is not uniform is refused), its intensities as the one row
    of the `intensity` array."""
    _write(path, fmt, {"kind": "fringe-trace"},
           [("position", trace.positions_m)], {
               "bs2_position_m": float(trace.bs2_position_m),
               "carrier_omega": float(trace.carrier_omega),
               "orientation": trace.orientation,
               "icfg_hash": trace.icfg_hash,
           }, [("intensity", np.reshape(trace.intensities, (1, -1)))])


def _stage_axis(header, shape, path):
    """The stage positions start + j * step of a trace's `position` axis,
    which must be an increasing sweep of one position per intensity."""
    start, step, n = _axis(header, "position", path)
    if n < 2:
        raise ConfigurationError(
            f"{path}: n_position must be an integer >= 2, got {n!r}")
    if step <= 0:
        raise ConfigurationError(
            f"{path}: position_step must be positive, got {step!r}")
    if shape != (1, n):
        raise ConfigurationError(f"{path}: array 'intensity' has shape "
                                 f"{shape}, n_position gives {(1, n)}")
    return start + np.arange(n) * step


def read_trace(path):
    """A fringe trace: the stage sweep from its `position` axis, which a file
    must have, the intensities from its one `intensity` row; header keys a
    trace does not use (tau_offset_s, source) are ignored."""
    header, _, arrays = _read(path, "fringe-trace")
    intensities = _require(arrays, "intensity", path)
    positions = _stage_axis(header, intensities.shape, path)
    bs2, carrier = (_require(header, key, path)
                    for key in ("bs2_position_m", "carrier_omega"))
    # a sweep that does not advance, or a negative or non-finite sample
    with blamed(path, ConfigurationError):
        return FringeTrace(positions_m=positions.ravel(),
                           intensities=intensities.ravel(),
                           bs2_position_m=bs2, carrier_omega=carrier,
                           orientation=header.get("orientation", ""),
                           icfg_hash=header.get("icfg_hash", ""))


# --- metrics and manifests ---


def write_metrics(path, mapping):
    """Flat `key = value` record; values survive a JSON round trip."""
    lines = [f"# pdcoh_metrics: {_VERSION}"]
    for key, value in _clean(mapping).items():
        lines.append(f"{key} = {json.dumps(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics(path):
    out = {}
    with open(path) as fh, _decoding(path):
        first = fh.readline().strip()
        if first != f"# pdcoh_metrics: {_VERSION}":
            raise ConfigurationError(f"{path}: not a pdcoh metrics file")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            out[key.strip()] = json.loads(raw.strip())
    return out


def write_manifest(path, trace_paths):
    """Trace listing, one path per line, relative to the manifest."""
    base = Path(path).parent.resolve()
    lines = [f"# pdcoh_manifest: {_VERSION}"]
    for p in trace_paths:
        p = Path(p).resolve()
        try:
            lines.append(str(p.relative_to(base)))
        except ValueError:
            lines.append(str(p))
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path):
    base = Path(path).parent.resolve()
    with blamed(f"cannot read trace manifest {path}", OSError, ValueError):
        lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != f"# pdcoh_manifest: {_VERSION}":
        raise ConfigurationError(f"{path}: not a pdcoh trace manifest")
    out = []
    for line in lines[1:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        out.append(p if p.is_absolute() else base / p)
    return out
