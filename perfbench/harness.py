"""Run one workload as a closed loop of fresh-interpreter CLI commands.

One iteration runs the workload's commands one after another, each in
a new interpreter as a user's shell would, then reads every product back
through gridio and checks it. The number of iterations follows from
`--seconds` and the workload's nominal iteration time alone, never from
the clock, so a seed always gives the same operations. End-to-end
metrics are medians over untraced iterations. Set-up launches are spread
evenly over the run between commands, so that their median covers the
same stretch of the run as the commands' wall times do. With
tracing on, each command runs untraced and then traced, back to back:
the traced launches supply the per-layer metrics, and the paired
differences of their wall times give the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from spans import SOURCES, Tracer, layer_metrics, span_table
from workloads import GRID, commands, config_text, jittered_thetas, \
    known_defect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SHARE = 0.25  # share of the run's time planned for set-up launches
SETUP_LAUNCHES = 7
MIN_ITERATIONS = 2  # untraced: the second repeats the products
HARD_LIMIT_S = 170.0  # the whole run must end well inside 180 s
# One BLAS thread per child: idle OpenBLAS threads spin on the second
# core, which adds CPU time and run-to-run noise on a 2-core machine.
BLAS_THREADS = 1

# What a user's `pdcoh` console script does.
ENTRY = "import sys; from pdcoh.cli import main; sys.exit(main())"
SETUP = ("import sys; import pdcoh.cli; "
         "from pdcoh.config import load_run_config; "
         "load_run_config(sys.argv[1])")


class MissingProgram(RuntimeError):
    """The checkout holds no pdcoh sources to benchmark."""


def import_program():
    """Import pdcoh from this checkout's src/, never from elsewhere."""
    if not (SRC / "pdcoh" / "cli.py").is_file():
        raise MissingProgram(f"no pdcoh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdcoh
    if Path(pdcoh.__file__).resolve().parent != (SRC / "pdcoh").resolve():
        raise MissingProgram(f"pdcoh imported from {pdcoh.__file__}, "
                             f"not from {SRC}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PDCOH_CONFIG", None)
    return env


def environment(seed):
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "loadavg_start": list(os.getloadavg()), "seed": seed}


def run_child(argv, env, deadline, log_dir, label):
    """Run argv to completion; wall, CPU and peak RSS from os.wait4."""
    out_path = log_dir / f"{label}.out"
    err_path = log_dir / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    return {"label": label, "exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6, "stderr": stderr}


def _hash_tree(out):
    hashes, total = {}, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        hashes[path.relative_to(out).as_posix()] = hashlib.sha256(
            data).hexdigest()
        total += len(data)
    return hashes, total


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed, seconds, trace, grid=GRID,
                 slots=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.slots = workload.slots if slots is None else slots
        self.thetas = jittered_thetas(seed, self.slots)
        self.started = time.perf_counter()
        self.deadline = self.started + HARD_LIMIT_S
        self.env = child_env()
        self.record = {"workload": workload.name, "seed": seed,
                       "seconds": seconds, "trace": int(trace),
                       "thetas_deg": self.thetas,
                       "env": environment(seed)}
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=WORK))
        self.config = self.tmp / f"{workload.name}.ini"
        self.config.write_text(config_text(self.thetas, workload.out_format,
                                           grid))
        self.ops = []
        self.reference = None
        self.setup_times = []
        self.iterations = planned_iterations(workload, seconds, trace)
        self.slots_total = self.iterations * len(
            commands(workload, self.config, self.tmp, self.thetas))
        self.slot = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    def _op(self, name, ok, detail=""):
        known = None if ok else known_defect(self.workload, name, detail)
        self.ops.append({"op": name, "ok": bool(ok), "detail": detail,
                         "known": known})

    def setup_launch(self, timed=True):
        """Fresh interpreter: import pdcoh.cli and load the config."""
        argv = [sys.executable, "-c", SETUP, str(self.config)]
        r = run_child(argv, self.env, self.deadline, self.tmp, "setup")
        self._op("exit0:setup", r["exit"] == 0, r["stderr"][-300:])
        if timed:
            self.setup_times.append(r["wall_s"])

    def setup_due(self):
        """Set-up launches due before the next command slot.

        SETUP_LAUNCHES are spread evenly over the run's command slots.
        """
        n, total, s = SETUP_LAUNCHES, self.slots_total, self.slot
        for _ in range((s + 1) * n // total - s * n // total):
            self.setup_launch()
        self.slot += 1

    def _command(self, label, argv, traced, log_dir):
        if not traced:
            full = [sys.executable, "-c", ENTRY, *argv]
            r = run_child(full, self.env, self.deadline, log_dir, label)
            return r, None
        spans_path = log_dir / f"{label}.spans.json"
        full = [sys.executable, "-X", "importtime", str(HERE / "launch.py"),
                str(spans_path), label, "--", *argv]
        r = run_child(full, self.env, self.deadline, log_dir, label)
        spans = []
        if spans_path.is_file():
            spans = json.loads(spans_path.read_text())
        lines = r["stderr"].splitlines()
        r["stderr"] = "\n".join(l for l in lines
                                if not l.startswith("import time:"))
        return r, {"spans": spans, "exit": r["exit"], "importtime": lines}

    def _exit_op(self, label, r):
        self._op(f"exit0:{label}", r["exit"] == 0,
                 f"exit {r['exit']}: {r['stderr'].strip()[-300:]}")

    def iteration(self, traced):
        # checks imports pdcoh, which is importable only after
        # import_program() has put this checkout's src/ on the path
        from checks import presence_check, readback
        it_dir = Path(tempfile.mkdtemp(dir=self.tmp))
        out = it_dir / "out"
        plain_out = it_dir / "plain"
        results, plain, traced_cmds = [], [], []
        pairs = zip(commands(self.workload, self.config, out, self.thetas),
                    commands(self.workload, self.config, plain_out,
                             self.thetas))
        for (label, argv), (_, plain_argv) in pairs:
            if traced:
                # the same command untraced, just before the traced one:
                # their paired difference is the tracing overhead
                p, _ = self._command(label, plain_argv, False, it_dir)
                plain.append(p)
                self._exit_op(label, p)
            else:
                self.setup_due()
            r, tr = self._command(label, argv, traced, it_dir)
            results.append(r)
            if tr is not None:
                traced_cmds.append(tr)
            self._exit_op(label, r)
        hashes, total = _hash_tree(out) if out.is_dir() else ({}, 0)
        if traced:
            plain_hashes = (_hash_tree(plain_out)[0] if plain_out.is_dir()
                            else {})
            diff = sorted(k for k in set(hashes) | set(plain_hashes)
                          if hashes.get(k) != plain_hashes.get(k))
            self._op("traced-identical", not diff,
                     f"differing sha256: {diff[:5]}")
        rels = sorted(hashes)
        same = None
        if self.reference is None:
            self.reference = hashes
        else:
            diff = sorted(k for k in set(hashes) | set(self.reference)
                          if hashes.get(k) != self.reference.get(k))
            same = not diff
            self._op("repeat-identical", same,
                     f"differing sha256: {diff[:5]}")
        ops = [presence_check(self.workload, self.thetas, results, out, rels)]
        tracer = Tracer("readback") if traced else None
        # products byte-identical to checked ones pass the same checks
        if traced or not same:
            ops += readback(out, rels, tracer)
        for o in ops:
            self._op(o["op"], o["ok"], o["detail"])
        shutil.rmtree(it_dir, ignore_errors=True)
        wall = sum(r["wall_s"] for r in results)
        if traced:
            return {"overhead_s": wall - sum(p["wall_s"] for p in plain),
                    "layers": layer_metrics(traced_cmds, tracer.spans),
                    "spans": [c["spans"] for c in traced_cmds]
                    + [tracer.spans]}
        return {"wall_s": wall,
                "cpu_s": sum(r["cpu_s"] for r in results),
                "peak_rss_mb": max(r["rss_mb"] for r in results),
                "output_mb": total / 1e6}

    def loop(self):
        """The planned iterations, unless the hard limit comes first."""
        iterations = []
        start = time.perf_counter()
        while len(iterations) < self.iterations:
            iterations.append(self.iteration(self.trace))
            now = time.perf_counter()
            if now + (now - start) / len(iterations) > self.deadline:
                break
        return iterations


def planned_iterations(workload, seconds, trace):
    """Iterations of a run: a function of its arguments, not of the clock.

    An untraced run spends about SETUP_SHARE of `seconds` on set-up
    launches and the rest on as many whole iterations of the workload's
    nominal length as fit. A traced iteration already compares its
    products with those of its untraced launches, so one is enough.
    """
    if trace:
        return 1
    return max(MIN_ITERATIONS,
               int(seconds * (1.0 - SETUP_SHARE) / workload.iteration_s))


def load_benchmark():
    """BENCHMARK.json: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def across_runs(records, section, name):
    """(median, q1, q3, n) of a metric over run records, or None.

    With one record these come from its own samples; with several, from
    the run medians.
    """
    entries = [r[section][name] for r in records
               if name in r.get(section, {})]
    if not entries:
        return None
    if len(entries) > 1:
        entries = [summary([e["median"] for e in entries])]
    e = entries[0]
    return e["median"], e["q1"], e["q3"], e["n"]


def summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def execute(workload, seed, seconds, trace, **kw):
    """Run the workload; returns (record, final result object).

    Metric names and units come from BENCHMARK.json: the end-to-end ones
    untraced, the per-layer ones traced.
    """
    spec = load_benchmark()
    run = Run(workload, seed, seconds, trace, **kw)
    try:
        if not trace:
            run.setup_launch(timed=False)  # writes the bytecode caches
        iterations = run.loop()
    finally:
        run.close()
    record = run.record
    record["env"]["loadavg_end"] = list(os.getloadavg())
    record["iterations"] = len(iterations)
    if trace:
        values = {m["name"]: [it["layers"][m["name"]] for it in iterations]
                  for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = [it["overhead_s"] for it in iterations]
        record["per_layer"] = {
            m["name"]: dict(summary(values[m["name"]]), unit=m["unit"],
                            source=SOURCES[m["name"]])
            for m in spec["per_layer"]}
        record["spans"] = span_table(
            [s for it in iterations for s in it["spans"]])
        for row in record["spans"].values():
            row["total_s"] /= len(iterations)
            row["self_s"] /= len(iterations)
            row["calls"] /= len(iterations)
    else:
        values = {k: [it[k] for it in iterations]
                  for k in ("wall_s", "cpu_s", "peak_rss_mb", "output_mb")}
        values["setup_s"] = run.setup_times
        record["end_to_end"] = {
            m["name"]: dict(summary(values[m["name"]]), unit=m["unit"])
            for m in spec["end_to_end"]}
    failures = [o for o in run.ops if not o["ok"]]
    record["attempted"] = len(run.ops)
    record["failed"] = len(failures)
    record["failures"] = failures
    chosen = record["per_layer"] if trace else record["end_to_end"]
    result = {"correct": all(o["known"] for o in failures),
              "attempted": len(run.ops), "failed": len(failures),
              "metrics": {k: {"value": v["median"], "unit": v["unit"]}
                          for k, v in chosen.items()}}
    return record, result
