"""Batch front end: JSON configs in, CSV/JSON artifacts out.

Every command reads one JSON config (--config), computes, and writes a
single output file atomically (write to a temp file in the target
directory, then rename), so a failed run never leaves a partial artifact.
Identical config + seed gives byte-identical output.  CSV floats carry 17
significant digits so doubles round-trip exactly.  A config key that the
command never asked about is a config error, raised after the run and
before anything is written.  Each command runs its linear algebra on one
BLAS thread (``_one_blas_thread``), so the output does not depend on the
core count or ``OPENBLAS_NUM_THREADS``.  The only parallelism is
``--threads``, the number of worker processes of ``sweep`` and ``gap-scan``
(``freefermion.worker_map``), and no output depends on it.  A process that
imports this module before numpy starts numpy's OpenBLAS on one thread as
well, and keeps its freed heap (``_keep_freed_heap``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.util
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence


@contextlib.contextmanager
def _one_thread_variable() -> Iterator[None]:
    """``OPENBLAS_NUM_THREADS=1`` for the body; then the caller's value, or none.
    OpenBLAS reads it once, when the library loads."""
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if env is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = env


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed blocks below 4 MiB in this process's heap instead of giving
    them back to the OS.  A ``gap-scan`` ladder's temporaries (up to the
    1.28 MB skew matrix at ``MAX_SCAN_CELLS``) would otherwise be mapped,
    returned and faulted in again for every ladder; one-off arrays (the
    16-spin CSR, 19 MB) are still mapped on their own and returned when
    freed.  Nothing happens where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open, or no mallopt
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


# A process whose first numpy import is this one starts numpy's OpenBLAS with
# one thread instead of one per core: every command runs on one anyway
# (``_one_blas_thread``), and starting the spare threads costs every process
# CPU time.  Such a process, a CLI process, also keeps its freed heap; one
# that imported numpy first (a test run, a library caller) keeps its own
# allocator settings and its BLAS threads.
if "numpy" in sys.modules:
    import numpy as np
else:
    _keep_freed_heap()
    with _one_thread_variable():
        import numpy as np

from . import freefermion, gauge, perturbation, presets, rp, spin_ed
from .errors import (
    ConfigError,
    ConvergenceError,
    GuardExceededError,
    InvalidSpecError,
    MalformedMatrixError,
    UnsupportedReflectionError,
)
from .lattice import BondType, Boundary, Ladder, ReflectionCase, build_ladder, reflection

_MISSING = object()

# rp-verify keeps every drawn sample and builds a Gram matrix and three Gibbs
# states per beta; at these limits, with 16 Majoranas and all 128 monomials of
# the negative half, a run peaks at 337 MB and takes 20 s (2-core x86 VM).
MAX_RP_SAMPLES = 10_000
MAX_RP_BETAS = 64

SWEEP_PIECE_ROWS = 4096  # rows per piece of the sweep CSV or JSON


# ---------------------------------------------------------------------------
# config plumbing

class Conf:
    """Cursor into a JSON document whose errors name the failing path.

    Every cursor on one document records the keys it is asked about (by
    ``child``, ``has`` and ``get``) in one table, so ``unread`` can name the
    keys no command asked about.
    """

    def __init__(self, doc: Any, path: str = "config", asked: dict[int, set[str]] | None = None):
        self.doc = doc
        self.path = path
        self.asked = {} if asked is None else asked  # id of an object -> its keys asked about

    def fail(self, msg: str) -> "ConfigError":
        return ConfigError(f"{self.path}: {msg}")

    def _ask(self, key: str) -> None:
        self.asked.setdefault(id(self.doc), set()).add(key)

    def child(self, key: str) -> "Conf":
        return Conf(self.get(key, object), f"{self.path}.{key}", self.asked)

    def has(self, key: str) -> bool:
        self._ask(key)
        return isinstance(self.doc, dict) and key in self.doc

    def unread(self) -> list[str]:
        """Paths of the keys of this object that were never asked about, and
        of the unread keys inside the objects that were."""
        asked = self.asked.get(id(self.doc), ())
        paths = []
        for key, value in self.doc.items():
            if key not in asked:
                paths.append(f"{self.path}.{key}")
            elif isinstance(value, dict):
                paths += Conf(value, f"{self.path}.{key}", self.asked).unread()
        return paths

    def _typed(self, value: Any, kind: type, path: str) -> Any:
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}: expected a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{path}: expected a finite number, got {value!r}")
            return value
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{path}: expected an integer, got {value!r}")
            return value
        if not isinstance(value, kind):
            raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
        return value

    def get(self, key: str, kind: type, default: Any = _MISSING) -> Any:
        self._ask(key)
        if not isinstance(self.doc, dict):
            raise self.fail("expected an object")
        if key not in self.doc:
            if default is _MISSING:
                raise ConfigError(f"{self.path}.{key}: missing required key")
            return default
        return self._typed(self.doc[key], kind, f"{self.path}.{key}")

    def choice(self, key: str, options: Sequence[str], default: Any = _MISSING) -> str:
        val = self.get(key, str, default)
        if val not in options:
            raise ConfigError(f"{self.path}.{key}: must be one of {sorted(options)}, got {val!r}")
        return val

    def number_list(self, key: str, default: Any = _MISSING) -> list[float]:
        raw = self.get(key, list, default)
        out = []
        for i, v in enumerate(raw):
            out.append(self._typed(v, float, f"{self.path}.{key}[{i}]"))
        return out


def _load_config(path: str | None) -> Conf:
    if not path:
        raise ConfigError("--config is required")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    return Conf(doc)


@contextlib.contextmanager
def _config_error_at(path: str, kind: type[Exception] = ValueError) -> Iterator[None]:
    """Turn a ``kind`` error of the body into ``ConfigError(f"{path}: {e}")``;
    a ConfigError, which already names its path, passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except kind as e:
        raise ConfigError(f"{path}: {e}") from e


def _config_ladder(conf: Conf) -> Ladder:
    sub = conf.child("ladder")
    cells = sub.get("cells", int)
    boundary = sub.choice("boundary", [b.value for b in Boundary], Boundary.OPEN.value)
    if cells > freefermion.MAX_SCAN_CELLS:  # before build_ladder, which allocates per cell
        raise GuardExceededError(
            f"{cells} cells exceeds the ladder guard ({freefermion.MAX_SCAN_CELLS})"
        )
    with _config_error_at(sub.path):
        return build_ladder(cells, boundary)


def _parse_bond_key(text: str, path: str) -> tuple[int, int]:
    parts = text.split("-")
    try:
        i, j = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f'{path}: bond keys look like "1-2", got {text!r}') from None
    if i == j:
        raise ConfigError(f"{path}: bond {text!r} joins a site to itself")
    return (i, j) if i < j else (j, i)


def _bond_map(sub: Conf) -> dict[tuple[int, int], float]:
    if not isinstance(sub.doc, dict):
        raise sub.fail("expected an object of bond -> value")
    return {
        _parse_bond_key(k, f"{sub.path}.{k}"): sub.get(k, float) for k in sub.doc
    }


def _config_couplings(conf: Conf, ladder: Ladder) -> freefermion.CouplingConfig:
    sub = conf.child("couplings")
    if sub.has("preset"):
        name = sub.choice("preset", [p.value for p in presets.Preset])
        jx = sub.get("jx", float, 1.0)
        jy = sub.get("jy", float, 1.0)
        jz = sub.get("jz", float, 1.0)
        with _config_error_at(sub.path):
            return presets.make_couplings(name, ladder, jx, jy, jz)
    if sub.has("bonds"):
        couplings = freefermion.CouplingConfig(_bond_map(sub.child("bonds")))
        with _config_error_at(f"{sub.path}.bonds"):
            couplings.validate_for(ladder)
        return couplings
    raise sub.fail('needs either "preset" or "bonds"')


def _resolve_seed(args, conf: Conf) -> int:
    if args.seed is not None:
        return args.seed
    if conf.has("seed"):
        return conf.get("seed", int)
    raise ConfigError("config.seed: a seed is required for randomized commands "
                      "(set it in the config or pass --seed)")


def _resolve_threads(args, conf: Conf) -> int:
    if args.threads is not None:
        n = args.threads
    elif conf.has("threads"):
        n = conf.get("threads", int)
    else:
        n = freefermion.usable_cpus()
    if n < 1:
        raise ConfigError("threads must be >= 1")
    return n


# ---------------------------------------------------------------------------
# output plumbing

def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]],
              footer: Sequence[str] = ()) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _json_text(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class _LazyArray(list):
    """A JSON array of ``count`` items that ``json``'s pure-Python encoder
    takes from ``items`` one at a time as it writes them: it asks the
    length first, then iterates, and holds no item it has written."""

    def __init__(self, items: Iterable[Any], count: int):
        self._items, self._count = items, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


def _json_pieces(doc: Any) -> Iterator[str]:
    """The bytes of ``_json_text(doc)`` in pieces, for a ``doc`` that holds
    ``_LazyArray``s.  ``iterencode`` encodes in pure Python, which writes
    each list item by item; ``json``'s C encoder copies a list subclass
    into a plain list first."""
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    yield "\n"


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write ``text``, or its pieces in turn, to stdout or atomically to
    ``out_path``."""
    pieces = (text,) if isinstance(text, str) else text
    if not out_path:
        sys.stdout.writelines(pieces)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(conf: Conf, args) -> str:
    ladder = _config_ladder(conf)
    couplings = _config_couplings(conf, ladder)
    method = conf.choice("method", ["fermion", "spin-dense", "spin-iterative"])
    sector_doc: dict[str, int] | None = None

    if method == "fermion":
        if conf.has("sector"):
            pattern = conf.get("sector", str)
            with _config_error_at("config.sector"):
                sec = freefermion.pattern_sector(ladder, freefermion.parse_pattern(ladder, pattern))
            g = gauge.gauge_for_sector(ladder, sec)
            modes = freefermion.mode_spectrum(freefermion.assemble_skew(ladder, couplings, g))
            values = freefermion.many_body_spectrum(modes)
            sector_doc = {k: int(v) for k, v in sec.values.items()}
        else:
            values = freefermion.sector_union_spectrum(ladder, couplings)
    elif method == "spin-dense":
        h = spin_ed.build_spin_hamiltonian(ladder, couplings)
        values = spin_ed.block_spectrum(h, spin_ed.cycle_operators(ladder))
    else:
        seed = _resolve_seed(args, conf)
        k = conf.get("k", int)
        if k < 1:
            raise ConfigError(f"config.k: must be >= 1, got {k}")
        h = spin_ed.build_spin_hamiltonian(ladder, couplings)
        values = spin_ed.lowest_eigenvalues(h, k=k, seed=seed).eigenvalues

    if args.format == "json":
        return _json_text({
            "method": method,
            "eigenvalues": [float(v) for v in values],
            "sector": sector_doc,
        })
    return _csv_text(["eigenvalue"], [[_g17(v)] for v in values])


def _symmetric_cases(ladder: Ladder, couplings: freefermion.CouplingConfig) -> list[str]:
    """The ladder's reflection cases under which |J| is mirror-symmetric."""
    holds = []
    for case in ReflectionCase:
        try:
            theta = reflection(ladder, case)
        except UnsupportedReflectionError:  # not a mirror of this ladder
            continue
        ok = True
        for (i, j), val in couplings.values.items():
            ti, tj = theta[i], theta[j]
            mirrored = couplings[(ti, tj) if ti < tj else (tj, ti)]
            if abs(abs(val) - abs(mirrored)) > 1e-12 * max(1.0, abs(val)):
                ok = False
                break
        if ok:
            holds.append(case.value)
    return holds


def _cycle_value_columns(n: int) -> list[str]:
    """CSV text of the n cycle values (",1" or ",-1" each) of every n-bit id,
    indexed by id; the first cycle is the most significant bit."""
    texts = [""]
    for _ in range(n):
        texts = [t + v for t in texts for v in (",1", ",-1")]
    return texts


def _tie_count(energies: np.ndarray) -> int:
    """How many of the ascending ``energies`` tie with the first:
    ``energies[k] - energies[0] <= 1e-12 * max(1, |energies[0]|)``.  That
    difference never falls as k grows, so the ties are a prefix, found by
    bisection with no per-sector temporary."""
    e_min = energies[0]
    tol = 1e-12 * max(1.0, abs(e_min))
    lo, hi = 0, len(energies)
    while lo < hi:
        mid = (lo + hi) // 2
        if energies[mid] - e_min <= tol:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _sweep_csv(names: Sequence[str], ids: np.ndarray, energies: np.ndarray,
               ties: int, footer: Sequence[str]) -> Iterator[str]:
    """The sweep CSV in pieces of SWEEP_PIECE_ROWS rows, the first ``ties``
    rows flagged as argmin.  A row's cycle values are the texts of the high
    and the low half of its id's bits, so the tables hold 2^ceil(n/2) +
    2^floor(n/2) strings instead of 2^n."""
    low_bits = len(names) // 2
    high, low = _cycle_value_columns(len(names) - low_bits), _cycle_value_columns(low_bits)
    mask = (1 << low_bits) - 1
    yield ",".join(["sector_id", *names, "ground_energy", "is_argmin"]) + "\n"
    for start in range(0, len(ids), SWEEP_PIECE_ROWS):
        stop = min(start + SWEEP_PIECE_ROWS, len(ids))
        part = slice(start, stop)
        tied = min(max(ties, start), stop) - start
        flags = [",1"] * tied + [",0"] * (stop - start - tied)
        yield "".join(
            f"{sid}{high[sid >> low_bits]}{low[sid & mask]},{_g17(energy)}{flag}\n"
            for sid, energy, flag in zip(ids[part].tolist(), energies[part].tolist(), flags)
        )
    yield "".join(line + "\n" for line in footer)


def cmd_sweep(conf: Conf, args) -> str | Iterator[str]:
    ladder = _config_ladder(conf)
    couplings = _config_couplings(conf, ladder)
    threads = _resolve_threads(args, conf)
    result = freefermion.sector_sweep(ladder, couplings, threads=threads)
    ids, energies = result.sector_ids, result.energies
    ties = _tie_count(energies)
    tie_ids = ids[:ties].tolist()
    argmin_id = result.argmin.sector.sector_id
    cases = _symmetric_cases(ladder, couplings)
    names = list(ladder.cycle_names)

    if args.format == "json":
        shifts = range(len(names) - 1, -1, -1)
        rows = (
            {
                "sector_id": sid,
                "values": {k: -1 if (sid >> b) & 1 else 1 for k, b in zip(names, shifts)},
                "ground_energy": energy,
            }
            for start in range(0, len(ids), SWEEP_PIECE_ROWS)
            for sid, energy in zip(ids[start:start + SWEEP_PIECE_ROWS].tolist(),
                                   energies[start:start + SWEEP_PIECE_ROWS].tolist())
        )
        return _json_pieces({
            "cycles": names,
            "rows": _LazyArray(rows, len(ids)),
            "argmin_sector": argmin_id,
            "tie_sector_ids": tie_ids,
            "reflection_symmetric_cases": cases,
        })

    return _sweep_csv(names, ids, energies, ties, [
        f"# argmin_sector,{argmin_id}",
        f"# tie_count,{len(tie_ids)}",
        "# reflection_symmetric_cases," + "|".join(cases),
    ])


def _bl_summary(cells: list[int], gaps: list[float]) -> dict:
    """Monotone-decay summary for the big-loop pattern."""
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    doc: dict[str, Any] = {"strictly_decreasing": decreasing,
                           "log_slope": None, "log_r2": None}
    pos = [(n, g) for n, g in zip(cells, gaps) if g > 0]
    if len(pos) >= 3:
        xs = np.array([n for n, _ in pos], dtype=float)
        ys = np.log([g for _, g in pos])
        slope, intercept = np.polyfit(xs, ys, 1)
        fit = slope * xs + intercept
        ss_res = float(((ys - fit) ** 2).sum())
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        doc["log_slope"] = float(slope)
        doc["log_r2"] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return doc


def cmd_gap_scan(conf: Conf, args) -> str:
    sub = conf.child("ladder")
    boundary = sub.choice("boundary", [b.value for b in Boundary], Boundary.OPEN.value)
    span = conf.number_list("cells_range")
    if len(span) != 2 or any(v != int(v) for v in span) or not 2 <= span[0] <= span[1]:
        raise ConfigError("config.cells_range: expected [first, last] integers, 2 <= first <= last")
    step = conf.get("cells_step", int, 1)
    if step < 1:
        raise ConfigError("config.cells_step: must be >= 1")
    first, last = int(span[0]), int(span[1])
    last -= (last - first) % step  # the last N the scan reaches
    if last > freefermion.MAX_SCAN_CELLS:
        raise GuardExceededError(
            f"{last} cells exceeds the scan guard ({freefermion.MAX_SCAN_CELLS})"
        )
    cells = list(range(first, last + 1, step))
    patterns = conf.get("patterns", list, ["BL"])
    if not patterns or not all(isinstance(p, str) for p in patterns):
        raise ConfigError("config.patterns: expected a non-empty list of pattern strings")
    repeated = sorted({p for p in patterns if patterns.count(p) > 1})
    if repeated:
        raise ConfigError(f"config.patterns: {', '.join(map(repr, repeated))} listed more than once")

    def gaps_at(n: int) -> list[float]:
        ladder = build_ladder(n, boundary)
        couplings = _config_couplings(conf, ladder)
        parsed = []
        for pattern in patterns:
            with _config_error_at(f"config.patterns: {pattern!r} at N={n}"):
                parsed.append(freefermion.parse_pattern(ladder, pattern))
        with _config_error_at(f"config.couplings: at N={n}"):
            reports = freefermion.big_loop_gap(ladder, couplings, parsed)
        return [report.gap for report in reports]

    # The calling process works N = first itself, so every config key the
    # scan reads is asked about here, where the unknown-key check looks.
    table: list[tuple[int, str, float]] = []
    by_pattern: dict[str, list[float]] = {p: [] for p in patterns}
    for n, gaps in zip(cells, freefermion.worker_map(gaps_at, cells, _resolve_threads(args, conf))):
        for pattern, gap in zip(patterns, gaps):
            table.append((n, pattern, gap))
            by_pattern[pattern].append(gap)

    summary = _bl_summary(cells, by_pattern["BL"]) if "BL" in by_pattern else None

    if args.format == "json":
        return _json_text({
            "boundary": boundary,
            "cells": cells,
            "rows": [{"cells": n, "pattern": p, "gap": g} for n, p, g in table],
            "bl_summary": summary,
        })
    footer = []
    if summary is not None:
        footer.append(f"# bl_strictly_decreasing,{str(summary['strictly_decreasing']).lower()}")
        if summary["log_slope"] is not None:
            footer.append(f"# bl_log_slope,{_g17(summary['log_slope'])}")
            footer.append(f"# bl_log_r2,{_g17(summary['log_r2'])}")
    rows = [[str(n), p, _g17(g)] for n, p, g in table]
    return _csv_text(["cells", "pattern", "gap"], rows, footer)


def cmd_compare(conf: Conf, args) -> str:
    ladder = _config_ladder(conf)
    couplings = _config_couplings(conf, ladder)
    tol = args.tolerance if args.tolerance is not None else conf.get("tol", float, 1e-8)
    if not (math.isfinite(tol) and tol >= 0):
        source = "--tolerance" if args.tolerance is not None else "config.tol"
        raise ConfigError(f"{source}: must be finite and >= 0, got {tol!r}")
    doc: dict[str, Any] = {"boundary": ladder.boundary.value, "cells": ladder.n_cells,
                           "tol": tol}

    h = spin_ed.build_spin_hamiltonian(ladder, couplings)
    if ladder.n_sites <= spin_ed.MAX_DENSE_SPINS:
        spin = spin_ed.block_spectrum(h, spin_ed.cycle_operators(ladder))
        union = freefermion.sector_union_spectrum(ladder, couplings)
        comp = spin_ed.compare_spectra(spin, union, tol=tol)
        ground_delta = float(spin.min() - union.min())
        doc.update({
            "method": "dense",
            "comparison": comp.to_json_dict(),
            "spectra_equal": comp.equal,
        })
    else:
        seed = _resolve_seed(args, conf)
        spin_ground = float(spin_ed.lowest_eigenvalues(h, k=1, seed=seed).eigenvalues[0])
        sweep = freefermion.sector_sweep(ladder, couplings, threads=_resolve_threads(args, conf))
        ground_delta = spin_ground - sweep.argmin.energy
        doc.update({
            "method": "ground-only",
            "spin_ground": spin_ground,
            "fermion_ground": sweep.argmin.energy,
            "spectra_equal": None,
        })
    doc.update({"ground_delta": ground_delta, "ground_equal": abs(ground_delta) <= tol})

    if args.format == "json":
        return _json_text(doc)
    keys = sorted(k for k in doc if not isinstance(doc[k], dict))
    rows = [[k, _g17(doc[k]) if isinstance(doc[k], float) else str(doc[k])] for k in keys]
    return _csv_text(["key", "value"], rows)


def _config_split(conf: Conf, ladder: Ladder) -> perturbation.PerturbationSplit:
    jx = conf.get("jx", float)
    with _config_error_at("config"):
        if conf.has("t"):
            split = perturbation.PerturbationSplit.from_uniform(ladder, jx, conf.get("t", float))
        elif conf.has("jy_bonds") or conf.has("jz_bonds"):
            split = perturbation.PerturbationSplit(
                jx, _bond_map(conf.child("jy_bonds")), _bond_map(conf.child("jz_bonds"))
            )
        else:
            jy = conf.get("jy", float)
            jz = conf.get("jz", float)
            jy_map = {b.pair: jy for b in ladder.bonds if b.kind is BondType.Y}
            jz_map = {b.pair: jz for b in ladder.bonds if b.kind is BondType.Z}
            split = perturbation.PerturbationSplit(jx, jy_map, jz_map)
        split.validate_for(ladder)
    return split


def cmd_perturb(conf: Conf, args) -> str:
    ladder = _config_ladder(conf)
    split = _config_split(conf, ladder)
    with _config_error_at("config.ladder", InvalidSpecError):  # the ring formulas assume N > 2
        effective = perturbation.effective(ladder, split)
    validation = perturbation.validate_against_ed(ladder, split)
    scale = split.scale()
    columns = ("plaquette", "delta_e_formula", "delta_e_exact", "abs_err", "rel_err", "scale")
    rows = [(r.plaquette, r.delta_e_formula, r.delta_e_exact, r.abs_err, r.rel_err, scale)
            for r in validation.rows]
    if args.format == "json":
        return _json_text({
            "boundary": ladder.boundary.value,
            "cells": ladder.n_cells,
            "e0_formula": effective.e0,
            "e2_formula": effective.e2,
            "e_free_exact": validation.e_free_exact,
            "rows": [dict(zip(columns, row)) for row in rows],
        })
    return _csv_text(columns, [[name, *("" if v is None else _g17(v) for v in values)]
                               for name, *values in rows])


def _rp_weights(conf: Conf, rng: np.random.Generator, n: int, mode: str, bulk: str):
    half = n // 2
    weights: dict[tuple[int, int], float] = {}
    for i in range(1, half + 1):
        for j in range(i + 1, half + 1):
            weights[(i, j)] = float(rng.uniform(-1, 1))
    if bulk == "symmetric":
        for (i, j), w in list(weights.items()):
            weights[(n + 1 - j, n + 1 - i)] = w
    else:
        for i in range(half + 1, n + 1):
            for j in range(i + 1, n + 1):
                weights[(i, j)] = float(rng.uniform(-1, 1))
    if conf.has("cross_weights"):
        cross = conf.number_list("cross_weights")
        if len(cross) != half:
            raise ConfigError(f"config.cross_weights: expected {half} values")
    else:
        cross = [float(rng.uniform(0.5, 1.5)) for _ in range(half)]
    if mode == "violate":
        cross[0] = -abs(cross[0])
    for i in range(1, half + 1):
        weights[(i, n + 1 - i)] = cross[i - 1]
    return weights


def _min_functional(
    samples: list[rp.MajoranaPolynomial],
    H: rp.MajoranaPolynomial,
    theta: Mapping[int, int],
    betas: list[float],
    max_degree: int,
) -> float:
    """The smallest ``rp_functional`` over every (sample, beta) pair, taken in that order.

    Every pair's value is first read as q = c K conj(c) from one
    ``reflection_gram`` K per beta; ``rp_functional`` then runs only on the
    pairs whose q may still be the smallest, with |q - rp_functional| bounded
    by 1e-10 |c|^T |K| |c|.  Tied pairs are all evaluated, so the result is
    the value, zero sign included, that evaluating every pair gives.
    """
    monos = rp.even_monomials(rp.negative_half(H.n), max_degree)
    column = {mono: k for k, mono in enumerate(monos)}
    coeffs = np.zeros((len(samples), len(monos)), dtype=complex)
    for row, B in zip(coeffs, samples):
        for mono, c in B.terms.items():
            if mono not in column:
                raise InvalidSpecError(f"sample term {mono} is not an even negative-half monomial")
            row[column[mono]] = c
    q = np.empty((len(samples), len(betas)), dtype=complex)
    bound = np.empty(q.shape)
    for k, beta in enumerate(betas):
        gram = rp.reflection_gram(H, theta, beta, max_degree)
        q[:, k] = ((coeffs @ gram) * coeffs.conj()).sum(axis=1)
        bound[:, k] = 1e-10 * ((np.abs(coeffs) @ np.abs(gram)) * np.abs(coeffs)).sum(axis=1)
    bad = np.abs(q.imag) > 1e-10 * np.maximum(1.0, np.abs(q))
    if bad.any():
        raise MalformedMatrixError(f"trace functional came out non-real: {q[bad][0]}")
    # a NaN makes the threshold NaN and every pair a candidate, as without the screen
    threshold = np.min(q.real + bound)
    best = None
    for s, k in zip(*np.nonzero(~(q.real - bound > threshold))):
        val = rp.rp_functional(samples[s], H, theta, beta=betas[k])
        if best is None or val < best:
            best = val
    return best


def cmd_rp_verify(conf: Conf, args) -> str:
    n = conf.get("majoranas", int, 8)
    samples = conf.get("samples", int, 200)
    betas = conf.number_list("betas", [0.5, 1.0, 2.0])
    max_degree = conf.get("max_degree", int, 4)
    mode = conf.choice("mode", ["verify", "violate"], "verify")
    bulk = conf.choice("bulk", ["symmetric", "asymmetric"], "symmetric")
    if n % 2 or n < 2 or n > rp.MAX_FOCK_MAJORANAS:
        raise ConfigError(f"config.majoranas: even count in 2..{rp.MAX_FOCK_MAJORANAS} required")
    if samples < 1:
        raise ConfigError("config.samples: must be >= 1")
    if max_degree < 0:
        raise ConfigError("config.max_degree: must be >= 0")
    if not betas or any(b < 0 for b in betas):
        raise ConfigError("config.betas: non-empty, all >= 0")
    if samples > MAX_RP_SAMPLES:
        raise GuardExceededError(f"{samples} samples exceeds the rp-verify guard ({MAX_RP_SAMPLES})")
    if len(betas) > MAX_RP_BETAS:
        raise GuardExceededError(f"{len(betas)} betas exceeds the rp-verify guard ({MAX_RP_BETAS})")
    seed = _resolve_seed(args, conf)
    rng = np.random.default_rng(seed)
    theta = rp.mirror_theta(n)

    H = rp.quadratic(n, _rp_weights(conf, rng, n, mode, bulk))
    h_minus, h_zero, h_plus = rp.split_by_side(H)
    h1, h2 = rp.doubled_hamiltonians(h_minus, h_zero, h_plus, theta)

    # extreme weights are rejected by the quadratic cross-check's mode solver,
    # first, so that they are named as weights rather than as betas
    with _config_error_at("config.cross_weights"):
        energy = rp.energy_inequality_check(H, h1, h2)
    # the trace bound makes e^{-beta H} of H, H1 and H2 before the functional
    # reuses those of H and H1, so a beta that would overflow them stops here
    trace_ok = True
    worst_margin = -float("inf")
    for beta in betas:
        with _config_error_at("config.betas", InvalidSpecError):
            report = rp.trace_bound_check(H, h1, h2, beta=beta)
        worst_margin = max(worst_margin, report.margin)
        trace_ok = trace_ok and report.holds

    target = H if bulk == "symmetric" else h1
    drawn = [rp.random_even_element(rng, n, max_degree=max_degree) for _ in range(samples)]
    min_functional = _min_functional(drawn, target, theta, betas, max_degree)

    if mode == "verify":
        positive = min_functional >= -1e-10
        verdict = "pass" if (positive and trace_ok and energy.holds) else "fail"
    else:
        verdict = "pass" if min_functional < -1e-6 else "inconclusive"

    doc = {
        "samples": samples,
        "min_functional": min_functional,
        "trace_margin": worst_margin,
        "energy_gap": energy.gap,
        "verdict": verdict,
    }
    if args.format == "json":
        return _json_text(doc)
    rows = [[k, _g17(v) if isinstance(v, float) else str(v)] for k, v in sorted(doc.items())]
    return _csv_text(["key", "value"], rows)


# ---------------------------------------------------------------------------
# entry point

# The OpenBLAS builds bundled with the numpy and scipy wheels: package,
# library directory next to it, and the thread-count symbols ({} is get/set).
_BUNDLED_BLAS = (
    ("numpy", "numpy.libs", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "scipy.libs", "scipy_openblas_{}_num_threads"),
)


def _loaded_blas() -> dict[str, tuple[Any, Any]]:
    """(get, set) thread-count functions of each bundled OpenBLAS that is
    already loaded, by path.  ``find_spec`` imports nothing and RTLD_NOLOAD
    opens only a loaded library, so a library that is not loaded stays so."""
    found = {}
    for package, libdir, symbol in _BUNDLED_BLAS:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        for path in sorted((Path(spec.origin).resolve().parent.parent / libdir).glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get, set_ = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found[str(path)] = (get, set_)
    return found


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body on one BLAS thread and give the caller its setting back.

    On small matrices a second OpenBLAS thread costs a hand-off per call,
    and it changes the last bits of the Lanczos paths with the host.  Loaded
    libraries drop to one thread; ``OPENBLAS_NUM_THREADS=1`` makes a library
    that the body loads (scipy's) start with one.  On exit the variable and
    every loaded library are restored; one that the body loaded gets the
    count the first loaded library had on entry.  Without a loaded bundled
    OpenBLAS this does nothing."""
    libs = _loaded_blas()
    saved = {path: get() for path, (get, _) in libs.items()}
    if not saved:
        yield
        return
    with _one_thread_variable():
        try:
            for _, set_ in libs.values():
                set_(1)
            yield
        finally:
            first = next(iter(saved.values()))
            for path, (_, set_) in _loaded_blas().items():
                set_(saved.get(path, first))


# config keys every command accepts, as it accepts the flags that override them
_COMMON_KEYS = ("config.seed", "config.threads", "config.tol")

_COMMANDS = {
    "spectrum": (cmd_spectrum, "csv"),
    "sweep": (cmd_sweep, "csv"),
    "gap-scan": (cmd_gap_scan, "csv"),
    "compare": (cmd_compare, "json"),
    "perturb": (cmd_perturb, "json"),
    "rp-verify": (cmd_rp_verify, "json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexladder",
        description="Spin-ladder toolkit: vortex sectors, spectra, gaps, "
                    "perturbative checks, reflection positivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="JSON config path")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--tolerance", type=float, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runner, default_format = _COMMANDS[args.command]
    if args.format is None:
        args.format = default_format
    try:
        conf = _load_config(args.config)
        with _one_blas_thread():
            text = runner(conf, args)
        unread = [path for path in conf.unread() if path not in _COMMON_KEYS]
        if unread:
            raise ConfigError("; ".join(f"{path}: unknown key" for path in unread))
        _emit(text, args.out)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GuardExceededError as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return 3
    except ConvergenceError as e:
        print(f"convergence failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
