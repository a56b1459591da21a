"""Command-line front end.

Subcommands wire a configuration file to the computation pipeline and
emit plot-ready data files. Outputs are deterministic: the same config
and inputs produce byte-identical files on one numpy and BLAS build at one
BLAS thread count. Exit codes: 0 success, 1 configuration or validation
problem, 2 runtime failure. A command that builds S hands each orientation's
S, unnamed, to that orientation's product writer, so nothing of one
orientation is held while the next S is built.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .coherence import _fwhm, check_blur, correlation_columns, \
    correlation_map, factorability_defect, instrument_blur, metrics
from .config import default, load_run_config, parse_angle, parse_length, \
    parse_time
from .dispersion import ORDINARY, ExtraordinaryAtAngle, c, gvd, index, \
    zero_dispersion_wavelength
from .errors import ConfigurationError, DensityPeakError, MapExtentError, \
    PdcohError, ResolutionError, RootNotFoundError, SamplingError, blamed
from .gridio import FORMATS, write_assembled_map, write_coherence_map, \
    write_manifest, write_metrics, write_profile, write_spectral_grid, \
    write_trace, write_wavelength_angle_grid, read_manifest, read_trace
from .interferometer import InterferometerConfig, assemble_map, \
    synthesize_trace, trace_check
from .phasematch import collinear_degenerate_angle, external_angle, \
    phase_matched_locus
from .spectrum import auto_grid, build_spectrum, to_wavelength_angle

ENV_CONFIG = "PDCOH_CONFIG"


def _theta_tag(theta_rad):
    return f"{math.degrees(theta_rad):g}".replace(".", "p")


def _load(args):
    """The run config, and its output directory, created."""
    rc = load_run_config(_config_path(args))
    return rc, _out_dir(args, rc.out_dir)


def _out_dir(args, configured):
    if args.out == "":
        raise ConfigurationError("--out: empty; name an output directory")
    out = Path(configured if args.out is None else args.out)
    with _writing(args, out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _writing(args, path):
    """Report a path that cannot be written as a ConfigurationError naming
    it and the setting that placed it."""
    where = "[output] directory" if args.out is None else "--out"
    return blamed(f"{where}: cannot write {path}", OSError)


def _config_path(args):
    path = args.config or os.environ.get(ENV_CONFIG)
    if not path:
        raise ConfigurationError(
            f"no config file given; pass a path or set {ENV_CONFIG}")
    return path


def _theta_field(args):
    return "--theta" if args.theta else "[crystal] theta"


def _select_thetas(rc, args):
    """The orientations to run, checked before any work, each with a product
    tag of its own."""
    field, thetas = _theta_field(args), list(rc.thetas_rad)
    if args.theta:
        thetas = [parse_angle(t, field=field) for t in args.theta]
        with blamed(field, ConfigurationError):
            for theta in thetas:
                rc.crystal_config(theta)
    tags = [_theta_tag(theta) for theta in thetas]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigurationError(
                f"{field}: {math.degrees(thetas[tags.index(tag)]):.10g} and "
                f"{math.degrees(thetas[i]):.10g} deg share the product tag {tag}")
    return thetas


def _write(args, write, path, *data, **kwargs):
    """Write one product in this process; report its path once the file is
    complete."""
    with _writing(args, path):
        write(path, *data, **kwargs)
    print(f"wrote {path}")


def cmd_dispersion(args):
    rc, out = _load(args)
    s = rc.sellmeier
    lam_um = np.linspace(*s.valid_range_um, args.points)
    header = {"material": rc.material}
    # a set whose ordinary gvd has no zero in range still has its table
    with contextlib.suppress(RootNotFoundError):
        header["zero_dispersion_wavelength_um"] = zero_dispersion_wavelength(s)
    header["config_hash"] = rc.config_hash()
    path = out / f"dispersion_{Path(rc.material).stem}.{FORMATS[rc.out_format]}"
    _write(args, write_profile, path, "dispersion-table", header, [
        ("wavelength_um", lam_um),
        ("n_ordinary", index(lam_um, ORDINARY, s)),
        ("n_extraordinary_principal",
         index(lam_um, ExtraordinaryAtAngle(math.pi / 2), s)),
        ("gvd_ordinary_fs2_per_mm", gvd(lam_um, ORDINARY, s)),
    ], fmt=rc.out_format)
    return 0


def cmd_phasematch(args):
    rc, out = _load(args)
    ext = FORMATS[rc.out_format]
    thetas = _select_thetas(rc, args)
    theta_pm = collinear_degenerate_angle(rc.pump_wavelength_m, rc.sellmeier)
    _write(args, write_metrics, out / "phasematch.txt", {
        "material": rc.material,
        "pump_wavelength_m": rc.pump_wavelength_m,
        "degenerate_wavelength_m": 2.0 * rc.pump_wavelength_m,
        "theta_pm_rad": theta_pm,
        "theta_pm_deg": math.degrees(theta_pm),
        "config_hash": rc.config_hash(),
    })
    for theta in thetas:
        cfg = rc.crystal_config(theta)
        omega = cfg.degenerate_omega * np.linspace(0.55, 1.45, 181)
        locus = phase_matched_locus(cfg, omega)
        if not len(locus):
            print(f"theta {math.degrees(theta):g} deg: no phase-matched "
                  "ring in range, nothing written")
            continue
        w, k = locus.T
        lam = 2.0 * math.pi * c / w
        lpath = out / f"phasematch_{_theta_tag(theta)}_locus.{ext}"
        _write(args, write_profile, lpath, "phase-matched-locus", {
            "theta_rad": theta,
            "theta_deg": math.degrees(theta),
            "config_hash": rc.config_hash(),
        }, [
            ("omega_rad_per_s", w),
            ("k_ring_rad_per_m", k),
            ("wavelength_m", lam),
            ("external_angle_rad", external_angle(k, lam)),
        ], fmt=rc.out_format)
    return 0


def _build_spectrum(rc, theta, args):
    """S at one orientation, on the grid auto_grid sizes from rc's counts,
    refused naming the field behind the refusal."""
    cfg = rc.crystal_config(theta)
    try:
        return build_spectrum(cfg, auto_grid(cfg, rc.n_omega, rc.n_k))
    except DensityPeakError as exc:
        raise ConfigurationError(f"[crystal] gain and length: {exc}") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"{_theta_field(args)}: {exc}") from exc


def _per_orientation(products, args, *extra):
    """Run products(args, out, rc, theta, S, *extra) at each orientation,
    handing it S unnamed, so no orientation's S outlives the next build."""
    rc, out = _load(args)
    for theta in _select_thetas(rc, args):
        products(args, out, rc, theta, _build_spectrum(rc, theta, args), *extra)
    return 0


def _spectrum_products(args, out, rc, theta, sg):
    """S at one orientation and its wavelength-angle grid."""
    ext, tag = FORMATS[rc.out_format], _theta_tag(theta)
    _write(args, write_spectral_grid, out / f"spectrum_{tag}_omega_k.{ext}",
           sg, fmt=rc.out_format)
    _write(args, write_wavelength_angle_grid,
           out / f"spectrum_{tag}_wavelength_angle.{ext}",
           to_wavelength_angle(rc.crystal_config(theta), sg.spec), fmt=rc.out_format)


def _map_products(args, out, rc, tag, cmap, m, suffix=""):
    """cmap with its metrics m: the map, its two cuts and the metrics file."""
    ext = FORMATS[rc.out_format]
    _write(args, write_coherence_map, out / f"coherence_{tag}_{suffix}map.{ext}",
           cmap, fmt=rc.out_format)
    for axis, cut, name in ((m.tau_axis, m.tau_cut, "tau_cut"),
                            (m.xi_axis, m.xi_cut, "xi_cut")):
        _write(args, write_profile, out / f"coherence_{tag}_{suffix}{name}.{ext}",
               "coherence-cut", {"theta_tag": tag, "config_hash": rc.config_hash()},
               [("position", axis), ("magnitude", cut)], fmt=rc.out_format)
    _write(args, write_metrics, out / f"coherence_{tag}_{suffix}metrics.txt", {
        "theta_tag": tag,
        "tau_c_s": m.tau_c,
        "xi_c_m": m.xi_c,
        "first_ring_height": m.first_ring_height,
        "coupling": factorability_defect(cmap),
        "config_hash": rc.config_hash(),
    })


def cmd_coherence(args):
    blur = None
    if args.blur:
        parts = args.blur.split(",")
        if len(parts) != 2:
            raise ConfigurationError(
                "--blur: expected a time,length pair such as 1fs,6um")
        blur = (parse_time(parts[0], field="--blur"),
                parse_length(parts[1], field="--blur"))
        with blamed("--blur", ConfigurationError):
            check_blur(*blur)
    return _per_orientation(_coherence_products, args, blur)


def _coherence_products(args, out, rc, theta, sg, blur):
    """The map of S at one orientation, and its blurred map if blur is a
    (time, length) pair, each with its cuts and metrics."""
    tag = _theta_tag(theta)
    cmap = correlation_map(sg)
    # each refusal comes before this orientation writes anything
    if blur:
        with blamed("--blur", MapExtentError, ResolutionError):
            blurred = instrument_blur(cmap, *blur)
    # an angle whose central peak the auto-sized grid resolves too coarsely
    with blamed(_theta_field(args), ResolutionError):
        m = metrics(cmap)
    if blur:
        # a blur that widens the peak past the map's edge
        with blamed("--blur", MapExtentError):
            blurred_metrics = metrics(blurred)
    _map_products(args, out, rc, tag, cmap, m)
    if blur:
        _map_products(args, out, rc, tag, blurred, blurred_metrics, suffix="blur_")


def _interferogram_products(args, out, rc, theta, sg):
    """The fringe traces of S at one orientation's BS2 steps, and their
    manifest."""
    icfg, tag, ext = rc.interferometer, _theta_tag(theta), FORMATS[rc.out_format]
    column = correlation_columns(sg)
    paths = []
    for j in range(rc.bs2_count):
        bs2 = (j - (rc.bs2_count - 1) / 2.0) * rc.bs2_step_m
        # the fields that place the sweep in tau and xi
        with blamed("[interferometer] stage_span, bs2_step, bs2_count and "
                    f"magnification: BS2 at {bs2 * 1e6:g} um",
                    SamplingError, MapExtentError):
            trace = synthesize_trace(column(bs2 * icfg.shift_to_xi), icfg,
                                     bs2_position_m=bs2,
                                     stage_span_m=rc.stage_span_m,
                                     orientation=tag)
        tpath = out / f"interferogram_{tag}_trace{j:02d}.{ext}"
        _write(args, write_trace, tpath, trace, fmt=rc.out_format)
        paths.append(tpath)
    _write(args, write_manifest, out / f"interferogram_{tag}_manifest.txt", paths)


def cmd_analyze(args):
    if args.config or os.environ.get(ENV_CONFIG):
        rc = load_run_config(_config_path(args))
        icfg, window, fmt, out_dir = (rc.interferometer, rc.window_fringes,
                                      rc.out_format, rc.out_dir)
    else:
        icfg = InterferometerConfig()
        window, fmt, out_dir = map(default, ("window_fringes", "out_format",
                                             "out_dir"))
    paths = read_manifest(args.manifest)
    traces = [read_trace(tpath) for tpath in paths]
    with blamed(f"[interferometer] on {args.manifest}", ConfigurationError,
                SamplingError):
        check = trace_check(traces, icfg)
        for tpath, trace in zip(paths, traces):
            with blamed(tpath, ConfigurationError):
                check(trace)
        amap = assemble_map(traces, icfg, window_fringes=window)

    out = _out_dir(args, out_dir)
    _write(args, write_assembled_map, out / f"analyze_map.{FORMATS[fmt]}",
           amap, fmt=fmt)
    jc = int(np.argmin(np.abs(amap.xi_axis)))
    record = {"n_traces": len(traces), "icfg_hash": icfg.config_hash(),
              "tau_c_s": _fwhm(amap.tau_axis, amap.domain[:, jc])}
    if amap.xi_axis.size > 1:
        ic = int(np.argmax(amap.domain[:, jc]))
        record["xi_c_m"] = _fwhm(amap.xi_axis, amap.domain[ic, :])
    _write(args, write_metrics, out / "analyze_metrics.txt", record)
    return 0


def _positive_int(text):
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pdcoh",
        description="Spectra, coherence maps, and interferogram emulation "
                    "for high-gain parametric down-conversion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta=True):
        p.add_argument("config", nargs="?", default=None,
                       help=f"config file (default: ${ENV_CONFIG})")
        p.add_argument("--out", default=None, help="output directory")
        if theta:
            p.add_argument("--theta", action="append", default=None,
                           metavar="ANGLE",
                           help="run this orientation (e.g. 19.94deg); "
                                "repeatable; default: every theta in config")

    p = sub.add_parser("dispersion", help="refractive index and GVD tables")
    common(p, theta=False)
    p.add_argument("--points", type=_positive_int, default=257)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("phasematch",
                       help="collinear angle and phase-matched ring loci")
    common(p)
    p.set_defaults(func=cmd_phasematch)

    p = sub.add_parser("spectrum", help="S(omega,k) and S(lambda,angle) grids")
    common(p)
    p.set_defaults(func=functools.partial(_per_orientation, _spectrum_products))

    p = sub.add_parser("coherence",
                       help="correlation maps, cuts, and width metrics")
    common(p)
    p.add_argument("--blur", default=None, metavar="TIME,LENGTH",
                   help="also emit maps blurred by instrument resolution, "
                        "e.g. 1fs,6um")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("interferogram",
                       help="synthesize fringe traces at stepped BS2 positions")
    common(p)
    p.set_defaults(func=functools.partial(_per_orientation, _interferogram_products))

    p = sub.add_parser("analyze",
                       help="rebuild |g1| from a manifest of fringe traces")
    p.add_argument("manifest", help="trace manifest file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="config file for the interferometer geometry "
                        f"(default: ${ENV_CONFIG} or built-in defaults)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PdcohError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
