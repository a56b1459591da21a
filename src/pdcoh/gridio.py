"""Deterministic on-disk formats for grids, maps, traces, and metrics.

Two encodings share one header model. CSV files open with `# key: value`
lines (values JSON-encoded, so strings and numbers survive the round
trip) followed by comma-separated rows; complex grids store re/im column
pairs. Binary files carry a JSON header after an 8-byte magic and then
raw little-endian arrays in C order. Every array product (grids, maps,
cuts, tables and fringe traces) goes through one writer, `_write`, and
one reader, `_read`. Uniform axes persist as start/step/count, and an
array read back must have one sample per axis value: a fringe trace is
one row of intensities under the `position` axis of its stage sweep.
Headers carry no timestamp: the same inputs must produce the same bytes.

A symmetric product stores only its fundamental domain, named by a `fold`
header field: a coherence map its tau >= 0, xi >= 0 quadrant, S its
(|Omega|, |k|) quadrant, a wavelength-angle grid its angle >= 0 columns.
The reader rebuilds the full array bit for bit with the producer's own
symmetry (coherence.map_mirror, spectrum.s_mirror and angle_mirror; older
S files folded in k alone, spectrum.k_mirror), so a file does not hold the
full grid for a tool such as numpy.loadtxt. Where that would not give every
bit back, the writer stores the whole array with no fold field, as older
files do. A CSV value is its repr, a NaN whose sign bit is set -nan. Every
write_* returns with its file complete; the command line writes its large
CSV products in forked writer processes.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .coherence import CoherenceMap, map_mirror
from .errors import ConfigurationError
from .interferometer import AssembledMap, FringeTrace
from .spectrum import GridSpec, SpectralGrid, WavelengthAngleGrid, \
    angle_mirror, k_mirror, mirror, s_mirror

_VERSION = 1
_MAGIC = b"PDCOHBIN"

# output format -> file extension
FORMATS = {"csv": "csv", "binary": "bin"}

# kind -> {fold field: its symmetry}; written under the first, read under any
_FOLDS = {"spectral-density": {"|Omega|, |k|": s_mirror, "|k|": k_mirror},
          "wavelength-angle-density": {"angle >= 0": angle_mirror},
          "coherence-map": {"tau >= 0, xi >= 0": map_mirror}}


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
    # complex values become adjacent re/im floats, as the header declares
    arr = np.atleast_2d(arr)
    if np.iscomplexobj(arr):
        return np.ascontiguousarray(arr, dtype=complex).view(float)
    return np.asarray(arr, dtype=float)


def _write_rows(fh, rows):
    """Write each row's line, its values' repr (about 1.4 us each) comma-
    separated; repr drops a NaN's sign, so in the rows that hold a negative
    NaN, that is written -nan, which the reader's float parse keeps."""
    negative_nan = np.isnan(rows) & np.signbit(rows)
    for row, signed in zip(rows, negative_nan):
        cells = map(repr, row.tolist())
        if signed.any():
            cells = ["-nan" if s else cell for cell, s in zip(cells, signed.tolist())]
        fh.write((",".join(cells) + "\n").encode())


def _write_csv(path, header, arrays):
    lines = [f"# pdcoh_file: {_VERSION}"]
    for key, value in header.items():
        lines.append(f"# {key}: {json.dumps(value)}")
    lines.append("# columns: " + json.dumps(
        [[name, "complex" if np.iscomplexobj(arr) else "real"]
         for name, arr in arrays]))
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode())
        for _, arr in arrays:
            _write_rows(fh, _float_rows(arr))


def _read_csv(path):
    header, columns, rows = {}, None, []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# pdcoh_file: {_VERSION}":
            raise ConfigurationError(f"{path}: not a pdcoh CSV file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# columns:"):
                columns = json.loads(line.split(":", 1)[1])
            elif line.startswith("#"):
                key, _, raw = line[1:].partition(":")
                header[key.strip()] = json.loads(raw.strip())
            else:
                rows.append(np.array(line.split(","), dtype=float))
    if columns is None:
        raise ConfigurationError(f"{path}: header lacks the column listing")
    # rows divide evenly between the named arrays, in listed order
    if len(columns) == 0 or len(rows) % len(columns):
        raise ConfigurationError(f"{path}: row count does not match columns")
    per = len(rows) // len(columns)
    arrays = {}
    for idx, (name, kind) in enumerate(columns):
        chunk = rows[idx * per:(idx + 1) * per]
        if len({row.size for row in chunk}) > 1:
            raise ConfigurationError(
                f"{path}: rows of array {name!r} differ in length")
        block = np.array(chunk)
        # the exact inverse of the writer's view(float): signed zeros,
        # infinities and NaNs keep their own part
        arrays[name] = block.view(complex) if kind == "complex" else block
    return header, arrays


# --- binary encoding ---


def _write_binary(path, header, arrays):
    meta = dict(header)
    meta["pdcoh_file"] = _VERSION
    meta["arrays"] = [[name, np.asarray(arr).dtype.newbyteorder("<").str,
                       list(np.atleast_2d(arr).shape)] for name, arr in arrays]
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            # the array's own buffer when it is already C-ordered little-endian
            data = np.atleast_2d(arr)
            fh.write(np.ascontiguousarray(data, data.dtype.newbyteorder("<")).data)


def _read_binary(path):
    with open(path, "rb") as fh:
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
            size = int(np.prod(shape)) * np.dtype(dtype).itemsize
            raw = fh.read(size)
            if len(raw) != size:
                raise ConfigurationError(
                    f"{path}: truncated: array {name!r} needs {size} bytes, "
                    f"{len(raw)} remain")
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return meta, arrays


# --- one writer and one reader for every array product ---


def _write(path, fmt, head, axes, provenance, arrays):
    """Write the head fields, each (name, axis) as start/step/count, the
    provenance, then the named arrays, in that header order; a symmetric
    kind's arrays as their fundamental domain, where that gives every bit
    back, declared by a last `fold` field."""
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown output format {fmt!r}; "
                                 f"choose one of {tuple(FORMATS)}")
    header = dict(head)
    for name, axis in axes:
        header.update(_axis_spec(name, axis))
    header.update(_clean(provenance))
    folds = _FOLDS.get(head["kind"])
    if folds:
        fold, symmetry = next(iter(folds.items()))
        parts = [(name, *symmetry(np.atleast_2d(arr))) for name, arr in arrays]
        if all(_mirrored(pairs) for _, _, pairs in parts):
            header["fold"] = fold
            arrays = [(name, domain) for name, domain, _ in parts]
    (_write_csv if fmt == "csv" else _write_binary)(path, header, arrays)


def _mirrored(pairs):
    """Whether mirror(pairs) would leave every bit as it is, compared 64
    rows at a time so that no temporary of the array's size is made."""
    return all(op(source[i:i + 64]).tobytes() == image[i:i + 64].tobytes()
               for image, source, op in pairs for i in range(0, len(image), 64))


def _unfold(path, kind, fold, name, stored, shape):
    """The array of `shape` whose fundamental domain a folded file stored."""
    symmetry = _FOLDS.get(kind, {}).get(fold)
    if symmetry is None:
        raise ConfigurationError(f"{path}: {kind} files have no fold {fold!r}")
    # the domain's shape, from a view of the shape that holds no memory
    domain, _ = symmetry(np.broadcast_to(stored.dtype.type(0), shape))
    if domain.shape != stored.shape:
        raise ConfigurationError(f"{path}: folded array {name!r} has shape "
                                 f"{stored.shape}, its axes give {domain.shape}")
    full = np.empty(shape, stored.dtype)
    domain, pairs = symmetry(full)
    domain[...] = stored
    mirror(pairs)
    return full


def _read(path, kind, axes=()):
    """(provenance, axes, arrays) of a product of this kind.

    The encoding is sniffed from the magic. With axes named, each axis
    must hold an integer count and a finite start and step (_axis), and
    every array, rebuilt from its fundamental domain in a folded file, must
    have one row per value of the first and one column per value of the
    second.
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
        for name, arr in arrays.items() if axes else ():
            if fold is not None:
                arrays[name] = arr = _unfold(path, kind, fold, name, arr, shape)
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
           [("density", sg.values)])


def read_spectral_grid(path):
    header, (omega, k), arrays = _read(path, "spectral-density", ("omega", "k"))
    spec = {key: _require(header, key, path) for key in _SPEC_KEYS}
    try:
        spec = GridSpec(n_omega=omega.size, n_k=k.size, **spec)
        for name, ours, read, step in (
                ("omega", spec.omega_axis(), omega, spec.omega_step),
                ("k", spec.k_axis(), k, spec.k_step)):
            if not np.allclose(ours, read, rtol=0, atol=1e-6 * step):
                raise ConfigurationError(f"the grid spec disagrees with the {name} axis")
    except (ConfigurationError, TypeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return SpectralGrid(spec, _require(arrays, "density", path), provenance=header)


def write_wavelength_angle_grid(path, wag, fmt="csv"):
    _write(path, fmt, {"kind": "wavelength-angle-density"},
           [("wavelength", wag.wavelength_axis_m), ("angle", wag.angle_axis_rad)],
           wag.provenance, [("density", wag.values)])


def read_wavelength_angle_grid(path):
    header, (wavelength, angle), arrays = _read(
        path, "wavelength-angle-density", ("wavelength", "angle"))
    return WavelengthAngleGrid(wavelength_axis_m=wavelength,
                               angle_axis_rad=angle,
                               values=_require(arrays, "density", path),
                               provenance=header)


def write_coherence_map(path, cmap, fmt="csv"):
    _write(path, fmt, {"kind": "coherence-map",
                       "carrier_omega": float(cmap.carrier_omega),
                       "intensity": float(cmap.intensity)},
           [("tau", cmap.tau_axis), ("xi", cmap.xi_axis)], cmap.provenance,
           [("g", cmap.g)])


def read_coherence_map(path):
    """A coherence map; g is real, or complex in older files."""
    header, (tau, xi), arrays = _read(path, "coherence-map", ("tau", "xi"))
    return CoherenceMap(tau_axis=tau, xi_axis=xi,
                        g=_require(arrays, "g", path),
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
    """One-dimensional cuts: equal-length named columns side by side."""
    sizes = {np.asarray(arr).size for _, arr in columns}
    if len(sizes) != 1:
        raise ConfigurationError("profile columns differ in length")
    _write(path, fmt, {"kind": kind}, [], header,
           [(name, np.asarray(arr).reshape(1, -1)) for name, arr in columns])


def read_profile(path, kind):
    header, _, arrays = _read(path, kind)
    return header, {name: arr.ravel() for name, arr in arrays.items()}


def write_trace(path, trace):
    """A fringe trace as CSV: its stage sweep as the uniform `position`
    axis (a sweep that is not uniform is refused), its intensities as the
    one row of the `intensity` array."""
    _write(path, "csv", {"kind": "fringe-trace"},
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
    """A fringe trace. Older files held the stage positions as a
    `position_m` array beside `intensity` and still read; header keys
    that a trace does not use (older files carried tau_offset_s and
    source) are ignored."""
    header, _, arrays = _read(path, "fringe-trace")
    intensities = _require(arrays, "intensity", path)
    if "position_m" in arrays:
        positions = arrays["position_m"]
    else:
        positions = _stage_axis(header, intensities.shape, path)
    bs2, carrier = (_require(header, key, path)
                    for key in ("bs2_position_m", "carrier_omega"))
    try:
        return FringeTrace(positions_m=positions.ravel(),
                           intensities=intensities.ravel(),
                           bs2_position_m=bs2, carrier_omega=carrier,
                           orientation=header.get("orientation", ""),
                           icfg_hash=header.get("icfg_hash", ""))
    except ConfigurationError as exc:
        # a sweep that does not advance, or a negative or non-finite sample
        raise ConfigurationError(f"{path}: {exc}") from exc


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
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read trace manifest {path}: {exc}") from exc
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
