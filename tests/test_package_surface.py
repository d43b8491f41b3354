"""Every public module-level function and class is used by the package itself.

A name that only tests call is surface no command reaches; it is removed
rather than kept for its tests.  Re-exports in ``__init__.py`` are imports,
not uses, so they do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexladder"

# module.name -> why it stays without a caller in src/
ALLOWED = {
    "gauge.enumerate_sectors": "the tests' oracle that visits every sector",
    "freefermion.sector_ground_energy": "perfbench's sweep check recomputes the argmin sector with it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _references(node, skip, counts):
    """Count Name and Attribute uses under ``node``, not entering ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        counts[node.id] = counts.get(node.id, 0) + 1
    elif isinstance(node, ast.Attribute):
        counts[node.attr] = counts.get(node.attr, 0) + 1
    for child in ast.iter_child_nodes(node):
        _references(child, skip, counts)


def unused_public_names():
    trees = _trees()
    unused = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if definition.name.startswith("_"):
                continue
            counts = {}
            for other in trees.values():
                _references(other, definition, counts)
            if not counts.get(definition.name):
                unused.append(f"{module}.{definition.name}")
    return unused


def test_every_public_name_has_a_caller_in_src():
    assert set(unused_public_names()) == set(ALLOWED)
