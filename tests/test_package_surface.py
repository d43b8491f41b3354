"""Every public module-level function and class, and every public method,
property and dataclass field, is used by the package itself, and the
package's re-exports load nothing until they are used.

A name that only tests call is surface no command reaches; it is removed
rather than kept for its tests.  Re-exports in ``__init__.py`` are strings
in a table, not uses, so they do not count.  A class member counts as used
when ``src/`` reads ``.name`` or passes ``name=`` outside the member's own
definition.  The scan goes by name alone, so a member that shares its name
with a used one passes; and operators (dunder methods) cannot be found
this way at all.
"""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexladder"

# module.name -> why it stays without a caller in src/
ALLOWED = {
    "gauge.enumerate_sectors": "the tests' oracle that visits every sector",
    "gauge.vortex_value": "the exported observable of any loop; the tests' oracle for the basis-loop "
                          "values that sector_of reads off the ladder's cycle system",
    "freefermion.sector_ground_energy": "perfbench's sweep check recomputes the argmin sector with it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _references(node, counts):
    """Count Name and Attribute uses under ``node``."""
    if isinstance(node, ast.Name):
        counts[node.id] += 1
    elif isinstance(node, ast.Attribute):
        counts[node.attr] += 1
    for child in ast.iter_child_nodes(node):
        _references(child, counts)
    return counts


def _unused(trees, definitions, count):
    """The label of each (label, name, node) of ``definitions`` whose name
    ``count`` finds in ``trees`` only inside its own node: one count over
    every tree, less the count inside each definition."""
    total = Counter()
    for tree in trees.values():
        count(tree, total)
    return [label for label, name, node in definitions
            if not total[name] - count(node, Counter())[name]]


def unused_public_names():
    trees = _trees()
    definitions = [
        (f"{module}.{definition.name}", definition.name, definition)
        for module, tree in trees.items()
        for definition in tree.body
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
        and not definition.name.startswith("_")
    ]
    return _unused(trees, definitions, _references)


def test_every_public_name_has_a_caller_in_src():
    assert set(unused_public_names()) == set(ALLOWED)


# module.Class.member -> why it stays without a reader in src/
ALLOWED_MEMBERS = {
    "freefermion.CouplingConfig.homogeneous": "acceptance criteria 4 and 9 build couplings with it",
    "freefermion.SweepResult.row_for": "perfbench's gap-scan check reads two sweep rows by id",
    "rp.MajoranaRep.matrices": "acceptance criterion 8 diagonalizes with the dense generators",
    "spin_ed.SpinOperator.dagger": "acceptance criterion 9 checks each loop operator Hermitian",
    "spin_ed.SpinOperator.equals": "acceptance criterion 9 compares a loop operator with its dagger",
    "spin_ed.SpinOperator.is_identity": "acceptance criterion 9 checks each loop operator squares to one",
}


def _members(cls):
    """(name, node) of each public method, property and annotated field of ``cls``."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and not node.target.id.startswith("_")):
            yield node.target.id, node


def _reads(node, counts):
    """Count ``.name`` loads and ``name=`` keywords under ``node``."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        counts[node.attr] += 1
    elif isinstance(node, ast.keyword) and node.arg:
        counts[node.arg] += 1
    for child in ast.iter_child_nodes(node):
        _reads(child, counts)
    return counts


def unread_members():
    trees = _trees()
    definitions = [
        (f"{module}.{cls.name}.{name}", name, definition)
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name, definition in _members(cls)
    ]
    return _unused(trees, definitions, _reads)


def test_every_public_member_has_a_reader_in_src():
    assert set(unread_members()) == set(ALLOWED_MEMBERS)


_LAZY_PROBE = r"""
import json, sys
import vortexladder
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy" or m.startswith("vortexladder."))
names = vortexladder.__all__
objects = {name: getattr(vortexladder, name) for name in names}
star = {}
exec("from vortexladder import *", star)
try:
    vortexladder.no_such_name
    unknown = None
except AttributeError as e:
    unknown = str(e)
print(json.dumps({
    "loaded": loaded,
    "count": len(names),
    "foreign": [n for n, obj in objects.items()
                if getattr(sys.modules.get(obj.__module__), n, None) is not obj
                or not obj.__module__.startswith("vortexladder.")],
    "not_in_dir": sorted(set(names) - set(dir(vortexladder))),
    "not_starred": sorted(set(names) - set(star)),
    "unknown": unknown,
}))
"""


def test_package_exports_are_lazy():
    """``import vortexladder`` loads neither numpy nor a submodule; each of the
    73 exports resolves to the object its submodule defines, is listed by
    ``dir`` and bound by a star import; other names raise AttributeError."""
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["count"] == 73
    assert report["foreign"] == []
    assert report["not_in_dir"] == []
    assert report["not_starred"] == []
    assert "no_such_name" in report["unknown"]
