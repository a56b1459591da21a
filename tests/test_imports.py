"""Every name a module of pdcoh imports is used in that module, so a
deletion cannot leave an import behind. __init__.py, whose imports are the
package's re-exports, and __future__ imports are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pdcoh"

# module -> the names it imports without using them. spectrum's wavenumber
# is the one: perfbench/spans.py WRAPS times dispersion.wavenumber where
# spectrum looks it up, so the name must be there.
_KEPT = {"spectrum.py": ["wavenumber"]}


def _unused(path):
    """The names path's imports bind that no name in it reads, sorted."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_a_module_imports_only_names_it_uses(name):
    assert _unused(SRC / name) == _KEPT.get(name, [])
