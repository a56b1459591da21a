"""How far each product moved between two trees of product_digests --keep.

Reads every file that is not byte-identical in the two trees through
gridio.load of this checkout, by the kind the file names, and prints one
line per file: how many of its values differ and the largest |difference|,
which of its fields differ in text or shape, and which fields only one side
holds, counted as no value. A value is a number of an array, an axis, a
header or a metrics record; NaN equals NaN. A file that this checkout's
gridio refuses, as it refuses a product of an older format, is listed as
differing with the refusal, not compared. Exits 1 if any file differs,
else 0:

    python3 tools/product_digests.py --keep /tmp/change
    python3 /path/to/parent/tools/product_digests.py --keep /tmp/parent
    python3 tools/product_moves.py /tmp/parent /tmp/change
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pdcoh import PdcohError, gridio  # noqa: E402


def _load(path):
    """The file's product; a manifest's as the relative paths it lists."""
    product = gridio.load(path)
    if isinstance(product, list):
        return [str(p.relative_to(path.parent.resolve())) for p in product]
    return product


def _leaves(value, name=""):
    """(name, value) of each number, array or text a product holds."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    elif hasattr(value, "__dict__"):
        items = vars(value).items()
    else:
        yield name, value
        return
    for key, item in items:
        yield from _leaves(item, f"{name}.{key}" if name else str(key))


def _numeric(value):
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biuf"
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(path_a, path_b):
    """(values, values that differ, largest |difference|, names of the
    fields that differ in text or shape, names of the fields only in a,
    names of those only in b) of two files of one product."""
    a, b = (dict(_leaves(_load(p))) for p in (path_a, path_b))
    total = differ = 0
    largest, others = 0.0, []
    for name in sorted(a.keys() & b.keys()):
        x, y = a[name], b[name]
        if _numeric(x) and _numeric(y) and np.shape(x) == np.shape(y):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            moved = (x != y) & ~(np.isnan(x) & np.isnan(y))
            total += x.size
            differ += int(np.count_nonzero(moved))
            if moved.any():
                largest = max(largest, float(np.max(np.abs(x[moved] - y[moved]))))
        else:
            total += 1
            if not (_numeric(x) and _numeric(y)) and x == y:
                continue
            differ += 1
            others.append(name)
    return (total, differ, largest, others,
            sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys()))


def _products(root):
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and p.parent != root}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="product_digests --keep tree")
    parser.add_argument("change", type=Path, help="product_digests --keep tree")
    args = parser.parse_args(argv)
    parent, change = _products(args.parent), _products(args.change)
    moved = same = 0
    for rel in sorted(parent | change):
        a, b = args.parent / rel, args.change / rel
        if rel not in parent & change:
            print(f"{rel}  only in {'parent' if rel in parent else 'change'}")
        elif a.read_bytes() == b.read_bytes():
            same += 1
            continue
        else:
            try:
                total, differ, largest, others, only_a, only_b = compare(a, b)
            except PdcohError as exc:
                print(f"{rel}  differs, not compared: {exc}")
            else:
                line = f"{rel}  {differ}/{total} values differ, max |diff| {largest:.2g}"
                for what, names in (("text or shape differs", others),
                                    ("only in parent", only_a), ("only in change", only_b)):
                    if names:
                        line += f"; {what}: {', '.join(names)}"
                print(line)
        moved += 1
    print(f"{same} files byte-identical, {moved} differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
