"""Smoke check of the benchmark harness on small inputs.

    python3 perfbench/smoke.py

Runs every workload on 64 x 64 spectral grids at one orientation, with
tracing off and on, and checks the harness itself: the result object's
shape and metric names against BENCHMARK.json, the correctness gate,
the layer counters, compare mode, and that the benchmark refuses to
report from a directory with no pdcoh sources. Not collected by pytest:
it runs the real CLI and takes about a minute.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile

import harness
from compare import compare
from spans import SOURCES
from workloads import WORKLOADS

MAP_CELLS = 1025 * 1025  # correlation_map's fixed 2 * 16 * 32 + 1 side


def check(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def check_result(result, names, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{label}: correctness gate passes")
    check(list(result["metrics"]) == names, f"{label}: metric names")
    check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              for m in result["metrics"].values()), f"{label}: finite values")


def isolated_run_refuses():
    """run.py beside only BENCHMARK.json and perfbench/ must exit non-zero."""
    harness.WORK.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(dir=harness.WORK)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", root)
        shutil.copytree(harness.HERE, f"{root}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "maps-csv",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            harness.WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return proc.returncode != 0 and "{" not in proc.stdout


def main():
    harness.import_program()
    spec = harness.load_benchmark()
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names every workload")
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    check(sorted(SOURCES) == sorted(per_layer),
          "every per-layer metric is labelled measured, counted or computed")
    records = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            record, result = harness.execute(
                workload, seed=7, seconds=1, trace=trace, grid=(64, 64),
                slots=(2,))
            label = f"{name} trace={int(trace)}"
            check_result(result, per_layer if trace else e2e, label)
            # a traced iteration repeats the products of its untraced
            # launches, an untraced run needs a second iteration
            check(record["iterations"] >= (1 if trace else 2),
                  f"{label}: repeats the products")
            if trace:
                layers = result["metrics"]
                check(layers["coherence.map_cells"]["value"] == MAP_CELLS,
                      f"{label}: one 1025^2 map per orientation")
                # measure at one orientation: dispersion, phasematch,
                # interferogram and one analyze
                check(layers["cli.commands"]["value"]
                      == (4 if workload.measure else 2),
                      f"{label}: commands counted")
                if workload.measure:
                    check(layers["phasematch.delta_k_calls"]["value"] > 0
                          and layers["interferometer.windows"]["value"] > 0,
                          f"{label}: locus and visibility counted")
            else:
                records[name] = [record]
    rows = compare(spec, records, records)
    check(len(rows) == len(WORKLOADS)
          and all(r.count("x1.000") == len(e2e) for r in rows),
          "compare mode: one row per workload, ratio 1 against itself")
    check(isolated_run_refuses(),
          "no result without pdcoh sources, non-zero exit")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
