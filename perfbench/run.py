"""pdcoh benchmark: run one workload and print its result.

    python3 perfbench/run.py --workload maps-csv --seed 1 --seconds 30 --trace 0

Prints a human summary, then one `{"record": ...}` line (environment,
quartiles, failures, span table), and as the last line the result object
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Exits 2 without a result when the checkout has no pdcoh
sources. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import WORKLOADS


def print_summary(record, result):
    print(f"{record['workload']} seed {record['seed']}: "
          f"{record['iterations']} iterations, "
          f"{result['failed']}/{result['attempted']} operations failed")
    for f in record["failures"]:
        tag = f"known defect: {f['known']}" if f["known"] else "NEW FAILURE"
        print(f"  failed {f['op']} ({tag}): {f['detail']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_program()
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record, result = harness.execute(WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace))
    print_summary(record, result)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
