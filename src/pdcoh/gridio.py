"""Deterministic on-disk formats for grids, maps, traces, and metrics.

Two encodings share one header model. CSV files open with `# key: value`
lines (values JSON-encoded, so strings and numbers survive the round
trip) followed by comma-separated rows; complex grids store re/im column
pairs. Binary files carry a JSON header after an 8-byte magic and then
raw little-endian arrays in C order. Every array product (grids, maps,
cuts, tables and fringe traces) goes through one writer, `_write`, and
one reader, `_read`. Uniform axes persist as start/step/count, and an
array read back must have one sample per axis value. Headers carry no
timestamp: the same inputs must produce the same bytes.

The CSV writer formats a mirror image once. A row that is even after its
first value (every row of S, whose k axis is symmetric) formats its first
half and mirrors those strings. A complex row that is bit for bit the
conjugate mirror of an earlier row (each tau > 0 row of a correlation
map, mirrored from a tau < 0 row) is written from that row's line, read
back from the file. Both are proven per row on the bits, so the bytes
are those of repr on every value.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import struct
from pathlib import Path

import numpy as np

from .coherence import CoherenceMap
from .errors import ConfigurationError
from .interferometer import AssembledMap, FringeTrace
from .spectrum import GridSpec, SpectralGrid, WavelengthAngleGrid

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


# Rows are formatted in blocks of this many. A file of at least
# _POOL_CELLS values is formatted on every usable core: repr(float) costs
# about 1.4 us a value: 0.7 s on one core for a 1025 x 257 complex map (half
# of it reused from mirror rows), but milliseconds for the largest trace or
# profile (~13k values).
_BLOCK_ROWS = 32
_POOL_CELLS = 1 << 18
_SIGN = np.uint64(1 << 63)


def _float_rows(arr):
    # complex values become adjacent re/im floats, as the header declares
    arr = np.atleast_2d(arr)
    if np.iscomplexobj(arr):
        return np.ascontiguousarray(arr, dtype=complex).view(float)
    return np.asarray(arr, dtype=float)


def _format_block(block):
    """The lines of a block of float rows. A row whose value j equals value
    n - j bit for bit formats its first n // 2 + 1 values and takes the
    rest from those strings."""
    n = block.shape[1]
    half = n // 2 + 1
    bits = block.view(np.uint64)
    even = (bits[:, 1:] == bits[:, :0:-1]).all(axis=1).tolist()
    lines = []
    for row, mirrored in zip(block.tolist(), even):
        if mirrored:
            cells = list(map(repr, row[:half]))
            cells += cells[n - half:0:-1]
        else:
            cells = map(repr, row)
        lines.append(",".join(cells) + "\n")
    return lines


def _conjugate_twins(arr, rows):
    """Mask of the rows of a complex array written from an earlier line:
    row k past the middle whose re/im bits are those of conj(row n - 1 - k)
    reversed. A row holding a NaN is formatted, since repr drops its sign."""
    n = len(rows)
    twins = np.zeros(n, bool)
    half = n // 2
    if np.iscomplexobj(arr) and half and rows.shape[1]:
        bits = rows.view(np.uint64).reshape(n, -1, 2)
        later, mirror = bits[n - half:], bits[half - 1::-1, ::-1]
        twins[n - half:] = (((later[..., 0] == mirror[..., 0])
                             & (later[..., 1] == (mirror[..., 1] ^ _SIGN))).all(axis=1)
                            & ~np.isnan(rows[n - half:]).any(axis=1))
    return twins


def _conjugate_mirror(line):
    """The line of conj(row[::-1]) from the line of row: the real strings
    reversed, the imaginary strings reversed with their sign flipped."""
    cells = line[:-1].split(",")[::-1]
    cells[0::2], cells[1::2] = cells[1::2], [
        s[1:] if s[0] == "-" else "-" + s for s in cells[0::2]]
    return ",".join(cells) + "\n"


def _write_rows(fh, rows, twins, lines):
    """Write every row's line in file order. A twin row's line is made from
    its mirror's line, read back from the file, so that no earlier line is
    held in memory; every other row's is the next of the formatted lines."""
    for r, twin in zip(rows, twins):
        n, flags, spans = len(r), twin.tolist(), {}
        for k, is_twin in enumerate(flags):
            if is_twin:
                start, size = spans.pop(n - 1 - k)
                end = fh.tell()
                fh.seek(start)
                line = _conjugate_mirror(fh.read(size).decode())
                fh.seek(end)
            else:
                line = next(lines)
                if flags[n - 1 - k]:
                    # lines are ASCII: one byte a character
                    spans[k] = fh.tell(), len(line)
            fh.write(line.encode())


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _block_map(cells, n_blocks):
    """Yield an ordered map: a fork pool's imap for large files, else map.

    Fork, not spawn: a spawned worker re-imports numpy and pdcoh for every
    file written, and these workers only run repr on floats, so they touch
    no lock or BLAS state that a thread of the parent could hold.
    """
    workers = min(_usable_cpus(), n_blocks)
    if cells >= _POOL_CELLS and workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                yield pool.imap
            return
    yield map


def _write_csv(path, header, arrays):
    lines = [f"# pdcoh_file: {_VERSION}"]
    for key, value in header.items():
        lines.append(f"# {key}: {json.dumps(value)}")
    lines.append("# columns: " + json.dumps(
        [[name, "complex" if np.iscomplexobj(arr) else "real"]
         for name, arr in arrays]))
    rows = [_float_rows(arr) for _, arr in arrays]
    twins = [_conjugate_twins(arr, r) for (_, arr), r in zip(arrays, rows)]
    # only rows that are not twins are formatted
    sources = [r[~twin] if twin.any() else r for r, twin in zip(rows, twins)]
    blocks = [r[i:i + _BLOCK_ROWS] for r in sources
              for i in range(0, len(r), _BLOCK_ROWS)]
    # the pool forks before the file opens, so no worker holds its buffer;
    # the serial/pool choice counts every value, twins included
    with _block_map(sum(r.size for r in rows), len(blocks)) as fmap:
        with open(path, "w+b") as fh:
            fh.write("".join(line + "\n" for line in lines).encode())
            _write_rows(fh, rows, twins, itertools.chain.from_iterable(
                fmap(_format_block, blocks)))


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
    provenance, then the named arrays, in that header order."""
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown output format {fmt!r}; "
                                 f"choose one of {tuple(FORMATS)}")
    header = dict(head)
    for name, axis in axes:
        header.update(_axis_spec(name, axis))
    header.update(_clean(provenance))
    (_write_csv if fmt == "csv" else _write_binary)(path, header, arrays)


def _read(path, kind, axes=()):
    """(provenance, axes, arrays) of a product of this kind.

    The encoding is sniffed from the magic. With axes named, every array
    must have one row per value of the first and one column per value
    of the second.
    """
    with open(path, "rb") as fh:
        binary = fh.read(len(_MAGIC)) == _MAGIC
    with _decoding(path):
        header, arrays = (_read_binary if binary else _read_csv)(path)
        found = _require(header, "kind", path)
        if found != kind:
            raise ConfigurationError(
                f"{path}: expected a {kind} file, found {found!r}")
        shape = tuple(_require(header, f"n_{name}", path) for name in axes)
        for name, arr in arrays.items() if axes else ():
            if arr.shape != shape:
                raise ConfigurationError(f"{path}: array {name!r} has shape "
                                         f"{arr.shape}, its axes give {shape}")
        grid = [_require(header, f"{name}_start", path)
                + np.arange(int(count)) * _require(header, f"{name}_step", path)
                for name, count in zip(axes, shape)]
    return header, grid, arrays


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
    header, (tau, xi), arrays = _read(path, "coherence-map", ("tau", "xi"))
    return CoherenceMap(tau_axis=tau, xi_axis=xi,
                        g=np.asarray(_require(arrays, "g", path), dtype=complex),
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
    write_profile(path, "fringe-trace", {
        "bs2_position_m": float(trace.bs2_position_m),
        "carrier_omega": float(trace.carrier_omega),
        "orientation": trace.orientation,
        "icfg_hash": trace.icfg_hash,
    }, [("position_m", trace.positions_m), ("intensity", trace.intensities)])


def read_trace(path):
    """A fringe trace; header keys it does not use (older files carried
    tau_offset_s and source) are ignored."""
    header, cols = read_profile(path, "fringe-trace")
    return FringeTrace(positions_m=_require(cols, "position_m", path),
                       intensities=_require(cols, "intensity", path),
                       bs2_position_m=_require(header, "bs2_position_m", path),
                       carrier_omega=_require(header, "carrier_omega", path),
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
