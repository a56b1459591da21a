"""Run every workload untraced and traced and print all metrics.

    python3 perfbench/report.py [--seeds 1 2 3] [--save runs.jsonl]

Runs every workload of BENCHMARK.json for its run_seconds. Prints, per
workload, every end-to-end metric by name and unit (median, quartiles
and sample count), fail_ratio with its base and the failures; then the
per-layer metrics of the traced run, each labelled measured, counted or
computed, the span table with self times, and the tracing overhead
(paired traced minus untraced launches). --save appends every run's
record, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import harness
from workloads import WORKLOADS


def _fmt(x):
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def print_end_to_end(spec, name, plain):
    of = "runs" if len(plain) > 1 else "samples"
    print(f"\n== {name}: end-to-end (untraced) ==")
    for metric in spec["end_to_end"]:
        got = harness.across_runs(plain, "end_to_end", metric["name"])
        if got is None:
            continue
        med, q1, q3, n = got
        print(f"  {metric['name']:<13} {_fmt(med):>10} {metric['unit']:<3}"
              f"  [q1 {_fmt(q1)}, q3 {_fmt(q3)}]  n={n} {of}")
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    print(f"  fail_ratio    {failed / attempted:.4g}  "
          f"({failed} failed of {attempted} operations)")
    seen = set()
    for r in plain:
        for f in r["failures"]:
            if f["op"] not in seen:
                seen.add(f["op"])
                tag = f"known defect: {f['known']}" if f["known"] else "NEW"
                print(f"    failed {f['op']} ({tag})")


def print_layers(spec, name, traced, plain):
    print(f"\n== {name}: per layer (traced run) ==")
    for metric in spec["per_layer"]:
        got = harness.across_runs(traced, "per_layer", metric["name"])
        if got is None:
            continue
        source = traced[0]["per_layer"][metric["name"]]["source"]
        print(f"  {metric['name']:<34} {_fmt(got[0]):>12} "
              f"{metric['unit']:<8} {source}")
    print(f"  {'span':<40} {'calls':>8} {'total_s':>9} {'self_s':>9}")
    for span, row in traced[0]["spans"].items():
        print(f"  {span:<40} {row['calls']:>8.0f} {row['total_s']:>9.4f} "
              f"{row['self_s']:>9.4f}")
    over = statistics.median(r["per_layer"]["trace.overhead_s"]["median"]
                             for r in traced)
    wall = statistics.median(r["end_to_end"]["wall_s"]["median"]
                             for r in plain)
    print(f"  tracing overhead: {over:+.3f} s on {wall:.3f} s untraced wall "
          f"({over / wall:+.1%})")


def main(argv=None):
    spec = harness.load_benchmark()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        harness.import_program()
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for name in why:
        plain, traced = [], []
        for seed in args.seeds:
            for trace, runs in ((False, plain), (True, traced)):
                record, result = harness.execute(
                    WORKLOADS[name], seed, spec["run_seconds"], trace)
                runs.append(record)
                status |= 0 if result["correct"] else 1
                if args.save:
                    with open(args.save, "a") as fh:
                        fh.write(json.dumps({"record": record}) + "\n")
        print(f"\n# {name}: {why[name]}")
        print(f"# env: {json.dumps(plain[0]['env'])}")
        print_end_to_end(spec, name, plain)
        print_layers(spec, name, traced, plain)
    return status


if __name__ == "__main__":
    sys.exit(main())
