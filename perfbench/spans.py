"""In-memory spans around calls into pdcoh's public functions.

A span records its name, start, end, parent and command id. Wrapping is
done from outside the program: `Tracer.wrap` replaces a name in the
module that binds it (for example `pdcoh.cli.correlation_map`), so the
program's own code is untouched. Spans stay in memory and are written
out once, when the traced command ends.

This module also turns the spans of one iteration into the per-layer
metrics that BENCHMARK.json lists, so span names and metric definitions
live in one place.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

# Names each consumer module binds, wrapped in the traced launcher:
# (module, attribute, span name). Span names are "<layer>.<function>".
WRAPS = (
    ("pdcoh.cli", "load_run_config", "config.load_run_config"),
    ("pdcoh.cli", "index", "dispersion.index"),
    ("pdcoh.cli", "gvd", "dispersion.gvd"),
    ("pdcoh.cli", "zero_dispersion_wavelength",
     "dispersion.zero_dispersion_wavelength"),
    ("pdcoh.phasematch", "wavenumber", "dispersion.wavenumber"),
    ("pdcoh.spectrum", "wavenumber", "dispersion.wavenumber"),
    ("pdcoh.phasematch", "delta_k", "phasematch.delta_k"),
    ("pdcoh.cli", "collinear_degenerate_angle",
     "phasematch.collinear_degenerate_angle"),
    ("pdcoh.cli", "phase_matched_locus", "phasematch.phase_matched_locus"),
    ("pdcoh.cli", "auto_grid", "spectrum.auto_grid"),
    ("pdcoh.cli", "build_spectrum", "spectrum.build_spectrum"),
    ("pdcoh.cli", "to_wavelength_angle", "spectrum.to_wavelength_angle"),
    ("pdcoh.cli", "correlation_map", "coherence.correlation_map"),
    ("pdcoh.cli", "instrument_blur", "coherence.instrument_blur"),
    ("pdcoh.cli", "metrics", "coherence.metrics"),
    ("pdcoh.cli", "factorability_defect", "coherence.factorability_defect"),
    ("pdcoh.cli", "_fwhm", "coherence.fwhm"),  # analyze's map widths
    ("pdcoh.cli", "synthesize_trace", "interferometer.synthesize_trace"),
    ("pdcoh.cli", "assemble_map", "interferometer.assemble_map"),
    ("pdcoh.interferometer", "extract_visibility",
     "interferometer.extract_visibility"),
    ("pdcoh.cli", "write_spectral_grid", "gridio.write_spectral_grid"),
    ("pdcoh.cli", "write_wavelength_angle_grid",
     "gridio.write_wavelength_angle_grid"),
    ("pdcoh.cli", "write_coherence_map", "gridio.write_coherence_map"),
    ("pdcoh.cli", "write_assembled_map", "gridio.write_assembled_map"),
    ("pdcoh.cli", "write_profile", "gridio.write_profile"),
    ("pdcoh.cli", "write_metrics", "gridio.write_metrics"),
    ("pdcoh.cli", "write_trace", "gridio.write_trace"),
    ("pdcoh.cli", "write_manifest", "gridio.write_manifest"),
    ("pdcoh.cli", "read_trace", "gridio.read_trace"),
    ("pdcoh.cli", "read_manifest", "gridio.read_manifest"),
)

def _path_facts(args, kwargs, result):
    """Bytes and encoding of the file a gridio call wrote or read."""
    path = kwargs.get("path", args[0] if args else None)
    try:
        size = os.path.getsize(path)
    except (OSError, TypeError):
        return {}
    return {"bytes": size,
            "binary": str(path).endswith(".bin")}


def _locus_facts(args, kwargs, result):
    return {"points": len(result)}


def _spectrum_facts(args, kwargs, result):
    return {"cells": int(result.values.size),
            "edge_ratio": float(result.edge_ratio)}


def _map_facts(args, kwargs, result):
    sg = args[0] if args else kwargs["sg"]
    n_omega, n_k = sg.values.shape
    return {"n_tau": int(result.tau_axis.size),
            "n_xi": int(result.xi_axis.size),
            "n_omega": int(n_omega), "n_k": int(n_k)}


def _metrics_facts(args, kwargs, result):
    cmap = args[0] if args else kwargs["cmap"]
    return {"samples_per_fwhm": float(min(result.tau_c / cmap.tau_step,
                                          result.xi_c / cmap.xi_step))}


def _trace_facts(args, kwargs, result):
    return {"samples": int(result.positions_m.size)}


def _visibility_facts(args, kwargs, result):
    return {"windows": int(result[1].size)}


FACTS = {
    "phasematch.phase_matched_locus": _locus_facts,
    "spectrum.build_spectrum": _spectrum_facts,
    "coherence.correlation_map": _map_facts,
    "coherence.metrics": _metrics_facts,
    "interferometer.synthesize_trace": _trace_facts,
    "interferometer.extract_visibility": _visibility_facts,
}


def facts_for(name):
    if name.startswith("gridio."):
        return _path_facts
    return FACTS.get(name)


class Tracer:
    """Records spans of one command; parents come from a call stack."""

    def __init__(self, cmd):
        self.cmd = cmd
        self.spans = []
        self._stack = []
        self._raised = []  # keeps exceptions alive so their ids stay unique

    def _open(self, name):
        span = {"name": name, "cmd": self.cmd,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span, exc=None):
        span["end"] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self._raised.append(exc)
            span["error"] = type(exc).__name__
            span["exc_id"] = id(exc)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span, recording the facts its layer defines."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span)
        facts = facts_for(name)
        if facts is not None:
            span.update(facts(args, kwargs, result))
        return result

    def wrap(self, module, attr, name):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(module, attr, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def scipy_import_s(importtime_lines):
    """Cumulative `-X importtime` seconds of outermost scipy imports.

    Lines are in post-order: an entry's parent is the next line with a
    shallower name column. An entry counts when its name is scipy or
    scipy.* and no entry it is nested in is.
    """
    entries = []
    for line in importtime_lines:
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the column title line
        name = parts[2].rstrip("\n")
        stripped = name.lstrip(" ")
        entries.append((len(name) - len(stripped), stripped, cumulative))
    total_us = 0
    ancestors = []  # (depth, inside scipy) of open entries, scanning backwards
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = bool(ancestors) and ancestors[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        ancestors.append((depth, inside or is_scipy))
    return total_us / 1e6


def _self_times(spans):
    """Duration of each span minus the time its child spans cover.

    Children of one span run one after another in a single thread, so
    the covered time is the sum of their durations.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - child_time[i] for i, s in enumerate(spans)]


def span_table(commands):
    """Calls, total and self seconds per span name over all commands."""
    table = {}
    for spans in commands:
        for span, self_s in zip(spans, _self_times(spans)):
            row = table.setdefault(span["name"],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span["end"] - span["start"]
            row["self_s"] += self_s
    return table


def _origin_layer(spans):
    """Layer where the failure that ended a command was raised.

    A failure that escaped a wrapped call is raised by cli.main's last
    child; it belongs to the innermost span that raised the same
    exception object. A failure raised by no wrapped call belongs to the
    cli layer. Exceptions that the program caught and handled inside a
    call do not escape its span, so they do not count.
    """
    main = next((i for i, s in enumerate(spans) if s["name"] == "cli.main"),
                None)
    children = [i for i, s in enumerate(spans) if s["parent"] == main]
    if main is None or not children:
        return "cli"
    exc_id = spans[children[-1]].get("exc_id")
    if exc_id is None:
        return "cli"
    deepest = min((i for i, s in enumerate(spans) if s.get("exc_id") == exc_id),
                  key=lambda i: spans[i]["end"])
    return spans[deepest]["name"].split(".", 1)[0]


# How each per-layer metric of BENCHMARK.json is obtained: measured (a
# clock or a file size), counted (calls or elements) or computed (from
# counts by a formula).
SOURCES = {
    "cli.import_s": "measured",
    "cli.import_scipy_s": "measured",
    "cli.self_s": "measured",
    "cli.commands": "counted",
    "cli.errors": "counted",
    "config.load_s": "measured",
    "config.errors": "counted",
    "dispersion.table_s": "measured",
    "dispersion.wavenumber_calls": "counted",
    "dispersion.errors": "counted",
    "phasematch.angle_s": "measured",
    "phasematch.locus_s": "measured",
    "phasematch.delta_k_calls": "counted",
    "phasematch.locus_points": "counted",
    "phasematch.errors": "counted",
    "spectrum.auto_grid_s": "measured",
    "spectrum.build_s": "measured",
    "spectrum.wavelength_angle_s": "measured",
    "spectrum.cells": "counted",
    "spectrum.edge_ratio_max": "measured",
    "spectrum.errors": "counted",
    "coherence.correlation_map_s": "measured",
    "coherence.map_cells": "counted",
    "coherence.transform_gflop": "computed",
    "coherence.transform_gflop_per_s": "computed",
    "coherence.kernel_mb": "computed",
    "coherence.blur_s": "measured",
    "coherence.coupling_s": "measured",
    "coherence.metrics_s": "measured",
    "coherence.samples_per_fwhm_min": "measured",
    "coherence.errors": "counted",
    "interferometer.synthesize_s": "measured",
    "interferometer.trace_samples": "counted",
    "interferometer.visibility_s": "measured",
    "interferometer.windows": "counted",
    "interferometer.assemble_s": "measured",
    "interferometer.errors": "counted",
    "gridio.write_csv_s": "measured",
    "gridio.write_csv_mb": "measured",
    "gridio.write_csv_mb_per_s": "measured",
    "gridio.read_csv_s": "measured",
    "gridio.read_csv_mb_per_s": "measured",
    "gridio.write_binary_s": "measured",
    "gridio.write_binary_mb": "measured",
    "gridio.read_binary_s": "measured",
    "gridio.files": "counted",
    "gridio.errors": "counted",
    "trace.overhead_s": "measured",
}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(commands, readback_spans):
    """Per-layer metrics of one traced iteration.

    `commands` holds one dict per CLI command: its spans, exit code and
    `-X importtime` lines. `readback_spans` are the gridio reads the
    benchmark made of the products. Times are inclusive span durations
    summed over the iteration, except cli.self_s, which is cli.main minus
    the wrapped calls it made. trace.overhead_s is filled in by the
    caller, which has the untraced iterations.
    """
    m = dict.fromkeys(SOURCES, 0)
    m["_read_csv_mb"] = 0.0
    m["coherence.samples_per_fwhm_min"] = math.inf
    m["spectrum.edge_ratio_max"] = 0.0
    all_spans = [c["spans"] for c in commands] + [readback_spans]
    for cmd in commands:
        spans = cmd["spans"]
        m["cli.commands"] += 1
        m["cli.import_scipy_s"] += scipy_import_s(cmd["importtime"])
        if cmd["exit"] != 0:
            m[f"{_origin_layer(spans)}.errors"] += 1
        selfs = _self_times(spans)
        for span, self_s in zip(spans, selfs):
            if span["name"] == "cli.main":
                m["cli.self_s"] += self_s
    for spans in all_spans:
        for span in spans:
            _add_span(m, span)
    if m["coherence.samples_per_fwhm_min"] == math.inf:
        m["coherence.samples_per_fwhm_min"] = 0.0
    m["coherence.transform_gflop_per_s"] = _ratio(
        m["coherence.transform_gflop"], m["coherence.correlation_map_s"])
    m["gridio.write_csv_mb_per_s"] = _ratio(
        m["gridio.write_csv_mb"], m["gridio.write_csv_s"])
    m["gridio.read_csv_mb_per_s"] = _ratio(
        m.pop("_read_csv_mb"), m["gridio.read_csv_s"])
    return m


_TIMED = {
    "cli.import": "cli.import_s",
    "config.load_run_config": "config.load_s",
    "dispersion.index": "dispersion.table_s",
    "dispersion.gvd": "dispersion.table_s",
    "dispersion.zero_dispersion_wavelength": "dispersion.table_s",
    "phasematch.collinear_degenerate_angle": "phasematch.angle_s",
    "phasematch.phase_matched_locus": "phasematch.locus_s",
    "spectrum.auto_grid": "spectrum.auto_grid_s",
    "spectrum.build_spectrum": "spectrum.build_s",
    "spectrum.to_wavelength_angle": "spectrum.wavelength_angle_s",
    "coherence.correlation_map": "coherence.correlation_map_s",
    "coherence.instrument_blur": "coherence.blur_s",
    "coherence.factorability_defect": "coherence.coupling_s",
    "coherence.metrics": "coherence.metrics_s",
    "coherence.fwhm": "coherence.metrics_s",
    "interferometer.synthesize_trace": "interferometer.synthesize_s",
    "interferometer.extract_visibility": "interferometer.visibility_s",
    "interferometer.assemble_map": "interferometer.assemble_s",
}


def _add_span(m, span):
    name = span["name"]
    dt = span["end"] - span["start"]
    if name in _TIMED:
        m[_TIMED[name]] += dt
    if name == "dispersion.wavenumber":
        m["dispersion.wavenumber_calls"] += 1
    elif name == "phasematch.delta_k":
        m["phasematch.delta_k_calls"] += 1
    elif name == "phasematch.phase_matched_locus" and "points" in span:
        m["phasematch.locus_points"] += span["points"]
    elif name == "spectrum.build_spectrum" and "cells" in span:
        m["spectrum.cells"] += span["cells"]
        m["spectrum.edge_ratio_max"] = max(m["spectrum.edge_ratio_max"],
                                           span["edge_ratio"])
    elif name == "coherence.correlation_map" and "n_tau" in span:
        n_tau, n_xi = span["n_tau"], span["n_xi"]
        n_omega, n_k = span["n_omega"], span["n_k"]
        m["coherence.map_cells"] += n_tau * n_xi
        # dense matrix DFT: (tau x omega) @ (omega x k), then @ (k x xi),
        # 8 real flops per complex multiply-add; complex128 kernels
        m["coherence.transform_gflop"] += 8 * (n_tau * n_omega * n_k
                                               + n_tau * n_k * n_xi) / 1e9
        kernel_mb = 16 * (n_tau * n_omega + n_xi * n_k) / 1e6
        m["coherence.kernel_mb"] = max(m["coherence.kernel_mb"], kernel_mb)
    elif name == "coherence.metrics" and "samples_per_fwhm" in span:
        m["coherence.samples_per_fwhm_min"] = min(
            m["coherence.samples_per_fwhm_min"], span["samples_per_fwhm"])
    elif name == "interferometer.synthesize_trace" and "samples" in span:
        m["interferometer.trace_samples"] += span["samples"]
    elif name == "interferometer.extract_visibility" and "windows" in span:
        m["interferometer.windows"] += span["windows"]
    elif name.startswith("gridio.") and "bytes" in span:
        mb = span["bytes"] / 1e6
        kind = "binary" if span["binary"] else "csv"
        if ".write_" in name:
            m["gridio.files"] += 1
            m[f"gridio.write_{kind}_s"] += dt
            m[f"gridio.write_{kind}_mb"] += mb
        else:
            m[f"gridio.read_{kind}_s"] += dt
            if kind == "csv":
                m["_read_csv_mb"] += mb
    if (name.startswith("gridio.") and span.get("error")
            and span["cmd"] == "readback"):
        m["gridio.errors"] += 1
