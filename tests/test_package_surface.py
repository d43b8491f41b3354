"""Every public module-level function and class is used by the package itself,
and the package's re-exports load nothing until they are used.

A name that only tests call is surface no command reaches; it is removed
rather than kept for its tests.  Re-exports in ``__init__.py`` are strings
in a table, not uses, so they do not count.
"""

import ast
import json
import subprocess
import sys
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
    77 exports resolves to the object its submodule defines, is listed by
    ``dir`` and bound by a star import; other names raise AttributeError."""
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["count"] == 77
    assert report["foreign"] == []
    assert report["not_in_dir"] == []
    assert report["not_starred"] == []
    assert "no_such_name" in report["unknown"]
