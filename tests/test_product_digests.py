"""Every product of configs/example.ini is pinned: tools/product_digests.py,
run again in one child process, prints tests/data/product_digests.txt line
for line. A change that moves products regenerates that listing in the
same commit, so the commit shows its moves as one diff."""

import difflib
import io
import re
import subprocess
import sys
import tarfile
from pathlib import Path
from unittest import mock

import pytest

from pdcoh import gridio

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "product_digests.txt"
# the fields of the listing's first line
FIELDS = ("numpy", "BLAS", "threads", "SIMD")


def _digests(root, keep):
    """product_digests of the checkout at root, its products kept in keep."""
    done = subprocess.run([sys.executable, str(root / "tools" / "product_digests.py"),
                           "--keep", str(keep)],
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def _moves(tmp_path, keep):
    """product_moves from the products of the commit that pinned the
    listing to those in keep, or why the pinned ones cannot be rebuilt."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "log", "-1", "--format=%H", "--",
                              str(PINNED.relative_to(ROOT))],
                             capture_output=True, text=True, check=True).stdout.strip()
        if not rev:
            return "(the pinned listing is not committed; no products to compare)"
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev,
                                  "src", "tools", "configs"],
                                 capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        return f"(the pinned products cannot be rebuilt: {exc})"
    tree = tmp_path / "pinned_tree"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    _digests(tree, tmp_path / "pinned")
    moves = subprocess.run([sys.executable, str(ROOT / "tools" / "product_moves.py"),
                            str(tmp_path / "pinned"), str(keep)],
                           capture_output=True, text=True)
    return moves.stdout + moves.stderr


def test_every_product_matches_its_pinned_digest(tmp_path):
    got = _digests(ROOT, tmp_path / "change")
    pinned = PINNED.read_text().splitlines()
    if got[0] != pinned[0]:
        differ = [f"{name} is {here!r} here, {there!r} in the listing"
                  for name, here, there in zip(FIELDS, got[0].split("  "),
                                               pinned[0].split("  "))
                  if here != there]
        pytest.skip("products are pinned on another build: "
                    + ("; ".join(differ) or f"{got[0]!r} against {pinned[0]!r}"))
    if got != pinned:
        diff = "\n".join(difflib.unified_diff(pinned, got, "pinned", "this checkout",
                                              lineterm="", n=0))
        pytest.fail(f"products moved:\n{diff}\n\n{_moves(tmp_path, tmp_path / 'change')}")



def test_load_decodes_each_product_of_the_example_run_once(tmp_path):
    # one file of each product of the example run, in either format: load
    # decodes an array product's file once, and reads a metrics file or a
    # manifest, which go by their first line, with no decode
    _digests(ROOT, tmp_path)
    files = {}
    for path in sorted(tmp_path.rglob("*.*")):
        if path.is_file() and path.suffix != ".ini":
            files.setdefault(re.sub(r"\d", "", str(path.relative_to(tmp_path))), path)
    kinds = set()
    for name, path in files.items():
        text = path.suffix == ".txt"
        kinds.add(path.read_text().split("\n")[0] if text
                  else gridio._decode(path)[0]["kind"])
        with mock.patch.object(gridio, "_decode", wraps=gridio._decode) as decode:
            gridio.load(path)
        assert decode.call_count == (0 if text else 1), name
    assert kinds == set(gridio.READERS)
