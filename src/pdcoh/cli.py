"""Command-line front end.

Subcommands wire a configuration file to the computation pipeline and
emit plot-ready data files. Outputs are deterministic: the same config
and inputs produce byte-identical files. Exit codes: 0 success, 1
configuration or validation problem, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from .coherence import _fwhm, correlation_map, factorability_defect, \
    instrument_blur, metrics
from .config import default, load_run_config, parse_angle, parse_length, \
    parse_time
from .dispersion import ORDINARY, ExtraordinaryAtAngle, c, gvd, index, \
    zero_dispersion_wavelength
from .errors import ConfigurationError, MapExtentError, PdcohError, \
    RootNotFoundError, SamplingError, blamed
from .gridio import FORMATS, write_assembled_map, write_coherence_map, \
    write_manifest, write_metrics, write_profile, write_spectral_grid, \
    write_trace, write_wavelength_angle_grid, read_manifest, read_trace
from .interferometer import InterferometerConfig, assemble_map, \
    synthesize_trace
from .phasematch import collinear_degenerate_angle, external_angle, \
    phase_matched_locus
from .spectrum import auto_grid, build_spectrum, to_wavelength_angle

ENV_CONFIG = "PDCOH_CONFIG"


def _theta_tag(theta_rad):
    return f"{math.degrees(theta_rad):g}".replace(".", "p")


def _load(args):
    """The run config, and its output directory, created."""
    rc = load_run_config(_config_path(args))
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return rc, out


def _config_path(args):
    path = args.config or os.environ.get(ENV_CONFIG)
    if not path:
        raise ConfigurationError(
            f"no config file given; pass a path or set {ENV_CONFIG}")
    return path


def _select_thetas(rc, args):
    if not getattr(args, "theta", None):
        return list(rc.thetas_rad)
    return [parse_angle(t, field="--theta") for t in args.theta]


def _emit(path):
    print(f"wrote {path}")


def cmd_dispersion(args):
    rc, out = _load(args)
    s = rc.sellmeier
    lo, hi = s.valid_range_um
    # stay clear of the range ends: the gvd stencil probes +-0.1%
    lam_um = np.linspace(lo * 1.02, hi * 0.98, args.points)
    header = {"material": rc.material}
    # a set whose ordinary gvd has no zero in range still has its table
    with contextlib.suppress(RootNotFoundError):
        header["zero_dispersion_wavelength_um"] = zero_dispersion_wavelength(s)
    header["config_hash"] = rc.config_hash()
    path = out / f"dispersion_{Path(rc.material).stem}.{FORMATS[rc.out_format]}"
    write_profile(path, "dispersion-table", header, [
        ("wavelength_um", lam_um),
        ("n_ordinary", index(lam_um, ORDINARY, s)),
        ("n_extraordinary_principal",
         index(lam_um, ExtraordinaryAtAngle(math.pi / 2), s)),
        ("gvd_ordinary_fs2_per_mm", gvd(lam_um, ORDINARY, s)),
    ], fmt=rc.out_format)
    _emit(path)
    return 0


def cmd_phasematch(args):
    rc, out = _load(args)
    ext = FORMATS[rc.out_format]
    theta_pm = collinear_degenerate_angle(rc.pump_wavelength_m, rc.sellmeier)
    path = out / "phasematch.txt"
    write_metrics(path, {
        "material": rc.material,
        "pump_wavelength_m": rc.pump_wavelength_m,
        "degenerate_wavelength_m": 2.0 * rc.pump_wavelength_m,
        "theta_pm_rad": theta_pm,
        "theta_pm_deg": math.degrees(theta_pm),
        "config_hash": rc.config_hash(),
    })
    _emit(path)
    for theta in _select_thetas(rc, args):
        cfg = rc.crystal_config(theta)
        omega = cfg.degenerate_omega * np.linspace(0.55, 1.45, 181)
        locus = phase_matched_locus(cfg, omega)
        if not locus:
            print(f"theta {math.degrees(theta):g} deg: no phase-matched "
                  "ring in range, nothing written")
            continue
        w = np.array([p[0] for p in locus])
        k = np.array([p[1] for p in locus])
        lam = 2.0 * math.pi * c / w
        lpath = out / f"phasematch_{_theta_tag(theta)}_locus.{ext}"
        write_profile(lpath, "phase-matched-locus", {
            "theta_rad": theta,
            "theta_deg": math.degrees(theta),
            "config_hash": rc.config_hash(),
        }, [
            ("omega_rad_per_s", w),
            ("k_ring_rad_per_m", k),
            ("wavelength_m", lam),
            ("external_angle_rad", external_angle(k, lam)),
        ], fmt=rc.out_format)
        _emit(lpath)
    return 0


def _build_spectrum(rc, theta):
    cfg = rc.crystal_config(theta)
    with blamed("[crystal]", ConfigurationError):
        return build_spectrum(cfg, auto_grid(cfg, rc.n_omega, rc.n_k))


def cmd_spectrum(args):
    rc, out = _load(args)
    ext = FORMATS[rc.out_format]
    for theta in _select_thetas(rc, args):
        sg = _build_spectrum(rc, theta)
        tag = _theta_tag(theta)
        gpath = out / f"spectrum_{tag}_omega_k.{ext}"
        write_spectral_grid(gpath, sg, fmt=rc.out_format)
        _emit(gpath)
        wpath = out / f"spectrum_{tag}_wavelength_angle.{ext}"
        write_wavelength_angle_grid(wpath, to_wavelength_angle(sg),
                                    fmt=rc.out_format)
        _emit(wpath)
    return 0


def _coherence_products(out, rc, tag, cmap, suffix=""):
    ext = FORMATS[rc.out_format]
    mpath = out / f"coherence_{tag}_{suffix}map.{ext}"
    write_coherence_map(mpath, cmap, fmt=rc.out_format)
    _emit(mpath)
    m = metrics(cmap)
    for axis, cut, name in ((m.tau_axis, m.tau_cut, "tau_cut"),
                            (m.xi_axis, m.xi_cut, "xi_cut")):
        cpath = out / f"coherence_{tag}_{suffix}{name}.{ext}"
        write_profile(cpath, "coherence-cut",
                      {"theta_tag": tag, "config_hash": rc.config_hash()},
                      [("position", axis), ("magnitude", cut)],
                      fmt=rc.out_format)
        _emit(cpath)
    path = out / f"coherence_{tag}_{suffix}metrics.txt"
    write_metrics(path, {
        "theta_tag": tag,
        "tau_c_s": m.tau_c,
        "xi_c_m": m.xi_c,
        "first_ring_height": m.first_ring_height,
        "coupling": factorability_defect(cmap),
        "config_hash": rc.config_hash(),
    })
    _emit(path)


def cmd_coherence(args):
    blur = None
    if args.blur:
        parts = args.blur.split(",")
        if len(parts) != 2:
            raise ConfigurationError(
                "--blur: expected a time,length pair such as 1fs,6um")
        blur = (parse_time(parts[0], field="--blur"),
                parse_length(parts[1], field="--blur"))
        if min(blur) < 0:
            raise ConfigurationError(f"--blur: widths must be >= 0, got {args.blur}")
    rc, out = _load(args)
    for theta in _select_thetas(rc, args):
        tag = _theta_tag(theta)
        cmap = correlation_map(_build_spectrum(rc, theta))
        _coherence_products(out, rc, tag, cmap)
        if blur:
            blurred = instrument_blur(cmap, blur[0], blur[1])
            _coherence_products(out, rc, tag, blurred, suffix="blur_")
    return 0


def cmd_interferogram(args):
    rc, out = _load(args)
    icfg = rc.interferometer
    count = args.bs2_steps or rc.bs2_count
    for theta in _select_thetas(rc, args):
        tag = _theta_tag(theta)
        cmap = correlation_map(_build_spectrum(rc, theta))
        paths = []
        for j in range(count):
            bs2 = (j - (count - 1) / 2.0) * rc.bs2_step_m
            # the fields that place the sweep on the map
            with blamed("[interferometer] stage_span, bs2_step, bs2_count and "
                        f"magnification: BS2 at {bs2 * 1e6:g} um",
                        SamplingError, MapExtentError):
                trace = synthesize_trace(cmap, icfg, bs2_position_m=bs2,
                                         stage_span_m=rc.stage_span_m,
                                         orientation=tag)
            tpath = out / f"interferogram_{tag}_trace{j:02d}.csv"
            write_trace(tpath, trace)
            _emit(tpath)
            paths.append(tpath)
        mpath = out / f"interferogram_{tag}_manifest.txt"
        write_manifest(mpath, paths)
        _emit(mpath)
    return 0


def cmd_analyze(args):
    if args.config or os.environ.get(ENV_CONFIG):
        rc = load_run_config(_config_path(args))
        icfg, window, fmt, out_dir = (rc.interferometer, rc.window_fringes,
                                      rc.out_format, rc.out_dir)
    else:
        icfg = InterferometerConfig()
        window, fmt, out_dir = map(default, ("window_fringes", "out_format",
                                             "out_dir"))
    out = Path(args.out or out_dir)

    traces = []
    for tpath in read_manifest(args.manifest):
        try:
            traces.append(read_trace(tpath))
        except (OSError, ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"unreadable trace file {tpath}: {exc}") from exc
    with blamed(f"[interferometer] on {args.manifest}", ConfigurationError,
                SamplingError):
        amap = assemble_map(traces, icfg, window_fringes=window)

    out.mkdir(parents=True, exist_ok=True)
    ext = FORMATS[fmt]
    record = {"n_traces": len(traces), "icfg_hash": icfg.config_hash()}
    if len(traces) == 1:
        path = out / f"analyze_envelope.{ext}"
        write_profile(path, "coherence-cut", {"icfg_hash": icfg.config_hash()},
                      [("position", amap.tau_axis),
                       ("magnitude", amap.magnitude[:, 0])], fmt=fmt)
    else:
        path = out / f"analyze_map.{ext}"
        write_assembled_map(path, amap, fmt=fmt)
    _emit(path)
    jc = int(np.argmin(np.abs(amap.xi_axis)))
    record["tau_c_s"] = _fwhm(amap.tau_axis, amap.magnitude[:, jc])
    if len(traces) > 1:
        ic = int(np.argmax(amap.magnitude[:, jc]))
        record["xi_c_m"] = _fwhm(amap.xi_axis, amap.magnitude[ic, :])
    path = out / "analyze_metrics.txt"
    write_metrics(path, record)
    _emit(path)
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
    p.set_defaults(func=cmd_spectrum)

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
    p.add_argument("--bs2-steps", type=_positive_int, default=None, metavar="N",
                   help="number of BS2 positions (default from config)")
    p.set_defaults(func=cmd_interferogram)

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
