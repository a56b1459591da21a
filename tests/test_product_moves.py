"""tools/product_moves.py on two small trees of products written by gridio."""

import importlib.util
from pathlib import Path

import numpy as np

from pdcoh import gridio
from pdcoh.coherence import CoherenceMap

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "product_moves.py"
_spec = importlib.util.spec_from_file_location("product_moves", _TOOL)
product_moves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(product_moves)

MAP, METRICS = "csv/coherence_19p94_map.csv", "csv/coherence_19p94_metrics.txt"


def _tree(root, moved=0.0):
    """A map, whose quadrant node (1, 1) is moved by moved, and a metrics
    file, each in the csv directory of root as product_digests --keep lays
    them out."""
    (root / "csv").mkdir(parents=True)
    quadrant = np.arange(6.0).reshape(3, 2)
    quadrant[1, 1] += moved
    gridio.write_coherence_map(root / MAP, CoherenceMap(
        (np.arange(5) - 2) * 1e-15, (np.arange(3) - 1) * 1e-6, quadrant,
        carrier_omega=1.2e15, intensity=1.0))
    gridio.write_metrics(root / METRICS, {"theta_tag": "19p94", "tau_c_s": 1.7e-14})


def test_moved_and_unpaired_files_are_listed_and_exit_1(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _tree(parent)
    _tree(change, moved=0.25)
    (change / "csv" / "extra.txt").write_text("x\n")
    assert product_moves.main([str(parent), str(change)]) == 1
    # the map holds 5 tau + 3 xi + 6 quadrant values, carrier_omega and
    # intensity; the metrics file is identical and not listed
    assert capsys.readouterr().out.splitlines() == [
        f"{MAP}  1/16 values differ, max |diff| 0.25",
        "csv/extra.txt  only in change",
        "1 files byte-identical, 2 differ"]


def test_identical_trees_exit_0(tmp_path, capsys):
    _tree(tmp_path / "parent")
    _tree(tmp_path / "change")
    assert product_moves.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 files byte-identical, 0 differ"]
