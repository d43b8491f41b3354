"""Spans around calls into the vortexladder modules, and self times.

``Tracer.install`` wraps every public function of each layer module at
every place a reference to it is bound: the module attribute, names copied
by ``from ... import`` into other modules, dict/tuple tables such as the
CLI's command table, and the listed class methods.  Each call records a span
(name, start, end, parent span, failed) in memory; ``dump`` writes them
once the job ends.  ``layer_totals`` turns the dumped spans into calls,
self time and failures per function and per module.

A generator function's span covers only the call that creates the
generator; calls made while it is iterated belong to the caller's span.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

LAYERS = ("cli", "lattice", "presets", "gauge", "freefermion", "spin_ed", "perturbation", "rp")
METHODS = {
    "spin_ed": ("SpinOperator.to_dense", "SpinOperator.compiled"),
    "rp": ("MajoranaPolynomial.to_matrix",),
}
PACKAGE = "vortexladder"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []          # [name index, start, end, parent, failed]
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str:
        """Name of the innermost open span in this thread."""
        stack = self._stack()
        return self.names[self.spans[stack[-1]][0]] if stack else "<none>"

    def add(self, key: str, amount: float) -> None:
        self.sums[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(value, self.maxima.get(key, value))

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        index = len(self.names)
        self.names.append(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [index, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions at every binding site."""
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrappers: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if _is_public_function(obj, module):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj, AFTER.get(name))
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                name = f"{layer}.{path}"
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], AFTER.get(name)))
        for module_name, module in list(sys.modules.items()):
            if module_name == PACKAGE or module_name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("__"):
                        continue
                    new = _rebind(obj, wrappers)
                    if new is not obj:
                        setattr(module, attr, new)

    def dump(self, path: str, job: str) -> None:
        doc = {"job": job, "names": self.names, "spans": self.spans,
               "sums": dict(self.sums), "maxima": self.maxima}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _is_public_function(obj: Any, module: ModuleType) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
            and not getattr(obj, "__name__", "_").startswith("_"))


def _rebind(obj: Any, wrappers: dict[int, Callable]) -> Any:
    """``obj`` with wrapped functions swapped in; dicts are edited in place."""
    if id(obj) in wrappers:
        return wrappers[id(obj)]
    if isinstance(obj, tuple):
        items = tuple(_rebind(item, wrappers) for item in obj)
        return items if any(a is not b for a, b in zip(items, obj)) else obj
    if isinstance(obj, dict):
        for key, value in list(obj.items()):
            new = _rebind(value, wrappers)
            if new is not value:
                obj[key] = new
    return obj


# ---------------------------------------------------------------------------
# counters read off arguments and results

def _sweep_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    ladder = args[0]
    tracer.add("freefermion.sector_sweep.matrix_bytes", len(result.rows) * ladder.n_sites ** 2 * 8)


def _dense_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("spin_ed.SpinOperator.to_dense.matrix_bytes", result.nbytes)


def _residual(tracer: Tracer, args: tuple, result: Any) -> None:
    if result.residuals is not None:
        tracer.maximum("spin_ed.lowest_eigenvalues.max_residual",
                       float(result.residuals.max(initial=0.0)))


def _count_matvecs(tracer: Tracer, args: tuple, result: Any) -> None:
    matvec = result.matvec

    def counted(psi):
        tracer.add(tracer.current() + ".matvecs", 1)
        return matvec(psi)

    result.matvec = counted


AFTER = {
    "freefermion.sector_sweep": _sweep_bytes,
    "spin_ed.SpinOperator.to_dense": _dense_bytes,
    "spin_ed.lowest_eigenvalues": _residual,
    "spin_ed.SpinOperator.compiled": _count_matvecs,
}


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_totals(docs: list[dict]) -> dict[str, float]:
    """Calls, self time and failures per function and per module, plus the
    counters, summed over the dumped jobs of one workload repetition."""
    totals: dict[str, float] = defaultdict(float)
    for doc in docs:
        names = doc["names"]
        for span, own in zip(doc["spans"], self_times(doc["spans"])):
            name = names[span[0]]
            layer = name.split(".", 1)[0]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own
            totals[f"{layer}.self_s"] += own
            totals[f"{layer}.failed"] += span[4]
        for key, value in doc["sums"].items():
            totals[key] += value
        for key, value in doc["maxima"].items():
            totals[key] = max(totals.get(key, value), value)
    return totals
