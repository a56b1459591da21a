"""sha256 of every product the six commands write for one config.

Runs dispersion, phasematch, spectrum, coherence --blur 1fs,6um and
interferogram on the config, once with CSV and once with binary output,
then analyze of each manifest into a directory of its own, all through
pdcoh.cli.main of this checkout in this one process, at one BLAS thread,
and into a temporary directory. Prints numpy's version, BLAS build and
SIMD extensions, each command's exit code, then one sorted
"sha256  format/path" line per product. Maps, metrics and traces differ at
rounding level between BLAS thread counts and builds, so only lists whose
first lines agree compare. tests/data/product_digests.txt is this list
for the committed code; diff its output for two checkouts to list the
products a change moves:

    python3 tools/product_digests.py > change.txt
    python3 /path/to/parent/tools/product_digests.py > parent.txt
    diff parent.txt change.txt
"""

import os

# before numpy loads its BLAS
BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1")
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pdcoh import cli  # noqa: E402

COMMANDS = (["dispersion"], ["phasematch"], ["spectrum"],
            ["coherence", "--blur", "1fs,6um"], ["interferogram"])


def build_line():
    """numpy's version, BLAS build and SIMD extensions, and the thread
    count: the fields on which a product's bytes may depend."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return (f"numpy {np.__version__}  BLAS {blas['name']} {blas['version']}  "
            f"1 thread  SIMD {' '.join(simd['baseline'] + simd['found'])}")


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "example.ini"))
    parser.add_argument("--keep", metavar="DIR",
                        help="write the products into DIR, which must be empty "
                             "or absent, and keep them")
    args = parser.parse_args(argv)
    print(build_line())
    text = Path(args.config).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.keep or tmp)
        root.mkdir(parents=True, exist_ok=True)
        if any(root.iterdir()):
            parser.error(f"--keep: {root} is not empty")
        for fmt in ("csv", "binary"):
            out = root / fmt
            cfg = root / f"{fmt}.ini"
            cfg.write_text(re.sub(r"(?m)^directory = .*$", f"directory = {out}",
                                  re.sub(r"(?m)^format = \w+", f"format = {fmt}",
                                         text)))
            for command in COMMANDS:
                code, err = _run([command[0], str(cfg), *command[1:]])
                print(f"exit {code}  {fmt} {' '.join(command)}  {err}".rstrip())
            for manifest in sorted(out.glob("*_manifest.txt")):
                tag = manifest.name.split("_")[1]
                code, err = _run(["analyze", str(manifest), "--config", str(cfg),
                                  "--out", str(out / f"analyze_{tag}")])
                print(f"exit {code}  {fmt} analyze {tag}  {err}".rstrip())
        for path in sorted(p for p in root.rglob("*") if p.is_file()
                           and p.parent != root):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
