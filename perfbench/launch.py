"""Traced launcher: run one pdcoh command with spans around its layers.

Usage: python -X importtime perfbench/launch.py SPANS_JSON CMD_ID -- ARGV...

Wraps the public names listed in spans.WRAPS, calls pdcoh.cli.main(ARGV)
and writes the spans to SPANS_JSON before exiting with main's exit code.
"""

import importlib
import sys

from spans import WRAPS, Tracer


def main():
    spans_path, cmd_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON CMD_ID -- ARGV...")
    tracer = Tracer(cmd_id)
    cli = tracer.call("cli.import", importlib.import_module, "pdcoh.cli")
    for module, attr, name in WRAPS:
        tracer.wrap(importlib.import_module(module), attr, name)
    code = tracer.call("cli.main", cli.main, argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
