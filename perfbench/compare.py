"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT CHANGE

Each file holds run records: the `{"record": ...}` lines that run.py
prints or report.py --save writes (other lines are ignored). Only
untraced records count. One row per workload; for each end-to-end
metric, the parent and change medians with quartiles and the ratio
change/parent. Values are run medians when a side has several runs, or
a single run's own samples otherwise. A metric is "unresolved" when
either side's spread (q3 - q1 over the median) exceeds the metric's
bound in BENCHMARK.json, "worse" when the change is worse by more than
the bound, and "ok" otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from harness import across_runs, load_benchmark


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.startswith('{"record"'):
            continue
        record = json.loads(line)["record"]
        if not record["trace"]:
            runs[record["workload"]].append(record)
    return runs


def verdict(metric, parent, change):
    bound = metric["bound"]
    spread = max((q3 - q1) / med for med, q1, q3 in (parent, change))
    if spread > bound:
        return "unresolved"
    ratio = change[0] / parent[0]
    worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
    return "worse" if worse > bound else "ok"


def compare(spec, parent_runs, change_runs):
    lines = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p, c = parent_runs.get(workload), change_runs.get(workload)
        if not p or not c:
            lines.append(f"{workload}: missing on "
                         f"{'parent' if not p else 'change'} side")
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not all(name in r["end_to_end"] for r in p + c):
                continue
            ps = across_runs(p, "end_to_end", name)[:3]
            cs = across_runs(c, "end_to_end", name)[:3]
            cells.append(
                f"{name} [{metric['unit']}] parent {ps[0]:.4g} "
                f"({ps[1]:.4g}-{ps[2]:.4g}) change {cs[0]:.4g} "
                f"({cs[1]:.4g}-{cs[2]:.4g}) x{cs[0] / ps[0]:.3f} "
                f"{verdict(metric, ps, cs)}")
        fails = [sum(r["failed"] for r in runs) for runs in (p, c)]
        tries = [sum(r["attempted"] for r in runs) for runs in (p, c)]
        cells.append(f"fail_ratio parent {fails[0]}/{tries[0]} "
                     f"change {fails[1]}/{tries[1]}")
        lines.append(f"{workload} (runs {len(p)} vs {len(c)}) | "
                     + " | ".join(cells))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    for line in compare(load_benchmark(), load(argv[0]), load(argv[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
