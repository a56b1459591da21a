"""Read products back through pdcoh.gridio and check them.

Every product is loaded with the public gridio reader for its kind, in
the benchmark's own process, as a plotting script would load it; in a
traced run these reads are spans of the gridio layer. Each check is one
operation: it passes or fails with a name that says which check and
which file.
"""

from __future__ import annotations

import fnmatch
import math

import numpy as np

from pdcoh import gridio
from workloads import analyze_dir, theta_tag

# File name pattern -> (gridio reader, extra arguments). First match wins.
READERS = (
    ("spectrum_*_omega_k.*", "read_spectral_grid", ()),
    ("spectrum_*_wavelength_angle.*", "read_wavelength_angle_grid", ()),
    ("coherence_*_map.*", "read_coherence_map", ()),
    ("coherence_*_cut.*", "read_profile", ("coherence-cut",)),
    ("*metrics.txt", "read_metrics", ()),
    ("phasematch.txt", "read_metrics", ()),
    ("dispersion_*", "read_profile", ("dispersion-table",)),
    ("phasematch_*_locus.*", "read_profile", ("phase-matched-locus",)),
    ("interferogram_*_trace*.csv", "read_trace", ()),
    ("*_manifest.txt", "read_manifest", ()),
    ("analyze_map.*", "read_assembled_map", ()),
)

MAX_ABS_G = 1.0 + 1e-12
MAX_EDGE_RATIO = 1e-3
MIN_SAMPLES_PER_FWHM = 8.0
BS2_COUNT = 11


def op(name, ok, detail=""):
    return {"op": name, "ok": bool(ok), "detail": detail}


def _reader(filename):
    for pattern, name, extra in READERS:
        if fnmatch.fnmatch(filename, pattern):
            return name, extra
    return None, ()


def _fwhm_samples(position, magnitude):
    """Central-peak FWHM of a cut in samples, 0 if a crossing is missing."""
    ipk = int(np.argmax(magnitude))
    half = magnitude[ipk] / 2.0

    def crossing(step):
        i = ipk
        while 0 <= i + step < magnitude.size:
            if magnitude[i + step] < half:
                drop = magnitude[i] - magnitude[i + step]
                return i + (magnitude[i] - half) / drop * step
            i += step
        return None

    right, left = crossing(+1), crossing(-1)
    if right is None or left is None:
        return 0.0
    return right - left


def _content_checks(rel, obj):
    name = rel.rsplit("/", 1)[-1]
    if fnmatch.fnmatch(name, "coherence_*_map.*"):
        mag = np.abs(obj.g)
        ops = [op(f"max-abs-g<=1+1e-12:{rel}", mag.max() <= MAX_ABS_G,
                  f"max|g| = {mag.max()!r}")]
        if "_blur_" not in name:  # the blur lowers g(0,0) by design
            i0 = int(np.argmin(np.abs(obj.tau_axis)))
            j0 = int(np.argmin(np.abs(obj.xi_axis)))
            g00 = complex(obj.g[i0, j0])
            ops.append(op(f"g00==1:{rel}", g00 == 1.0, f"g(0,0) = {g00!r}"))
        return ops
    if fnmatch.fnmatch(name, "spectrum_*_omega_k.*"):
        edge = obj.edge_ratio
        return [op(f"edge-ratio<1e-3:{rel}", edge < MAX_EDGE_RATIO,
                   f"edge_ratio = {edge!r}")]
    if fnmatch.fnmatch(name, "coherence_*_cut.*"):
        _, cols = obj
        samples = _fwhm_samples(cols["position"], cols["magnitude"])
        return [op(f"fwhm>=8-samples:{rel}", samples >= MIN_SAMPLES_PER_FWHM,
                   f"{samples:.2f} samples per FWHM")]
    if fnmatch.fnmatch(name, "*_metrics.txt"):
        bad = [k for k, v in obj.items()
               if isinstance(v, (int, float)) and not math.isfinite(v)]
        return [op(f"metrics-finite:{rel}", not bad, f"non-finite: {bad}")]
    return []


def readback(out, rels, tracer=None):
    """Read every product back; returns the check operations."""
    ops = []
    for rel in rels:
        name, extra = _reader(rel.rsplit("/", 1)[-1])
        if name is None:
            ops.append(op(f"readback:{rel}", False, "no gridio reader for it"))
            continue
        fn = getattr(gridio, name)
        path = out / rel
        try:
            if tracer is None:
                obj = fn(path, *extra)
            else:
                obj = tracer.call(f"gridio.{name}", fn, path, *extra)
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            ops.append(op(f"readback:{rel}", False,
                          f"{type(exc).__name__}: {exc}"))
            continue
        ops.append(op(f"readback:{rel}", True))
        ops.extend(_content_checks(rel, obj))
    return ops


def _theta_pm_deg(out):
    try:
        record = gridio.read_metrics(out / "phasematch.txt")
        return float(record["theta_pm_deg"])
    except Exception:  # noqa: BLE001 - the readback check names the problem
        return None


def expected_products(workload, thetas, results, out):
    """(required, allowed) product paths of one iteration.

    Products of a command that exited 0 are required. A failed command
    may have written some of its products before failing, so its
    products are allowed; the failure itself counts in its exit check.
    A slot at or below the collinear angle theta_pm has no phase-matched
    ring, so its locus file is allowed but not required.
    """
    ext = "csv" if workload.out_format == "csv" else "bin"
    tags = [theta_tag(t) for t in thetas]
    products = {}
    optional = set()
    if not workload.measure:
        products["spectrum"] = {
            f"spectrum_{tag}_{kind}.{ext}"
            for tag in tags for kind in ("omega_k", "wavelength_angle")}
        products["coherence"] = {
            f"coherence_{tag}_{suffix}{kind}"
            for tag in tags for suffix in ("", "blur_")
            for kind in (f"map.{ext}", f"tau_cut.{ext}", f"xi_cut.{ext}",
                         "metrics.txt")}
    else:
        products["dispersion"] = {f"dispersion_bbo_kato1986.{ext}"}
        products["phasematch"] = {"phasematch.txt"}
        theta_pm = _theta_pm_deg(out)
        for theta, tag in zip(thetas, tags):
            locus = f"phasematch_{tag}_locus.{ext}"
            products["phasematch"].add(locus)
            if theta_pm is None or float(theta) <= theta_pm:
                optional.add(locus)
        products["interferogram"] = {
            f"interferogram_{tag}_{kind}"
            for tag in tags for kind in ["manifest.txt"] + [
                f"trace{j:02d}.csv" for j in range(BS2_COUNT)]}
        for r in results:
            if r["label"].startswith("analyze@"):
                d = analyze_dir(r["label"])
                products[r["label"]] = {f"{d}/analyze_map.{ext}",
                                        f"{d}/analyze_metrics.txt"}
    required, allowed = set(), set(optional)
    for r in results:
        paths = products.get(r["label"], set())
        if r["exit"] == 0:
            required |= paths - optional
        else:
            allowed |= paths
    return required, allowed


def presence_check(workload, thetas, results, out, rels):
    required, allowed = expected_products(workload, thetas, results, out)
    found = set(rels)
    missing = sorted(required - found)
    extra = sorted(found - required - allowed)
    return op("products-present", not missing and not extra,
              f"missing {missing[:5]} unexpected {extra[:5]}")
