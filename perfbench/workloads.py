"""Seeded workload definitions and the checks on their artifacts.

A workload is a list of CLI jobs.  Every config, every explicit coupling
and every CLI ``--seed`` is drawn from the workload seed, so one seed gives
byte-identical configs.  The checks run in ``run.py``, outside
the timed jobs, and raise ``CheckError`` on a wrong artifact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from vortexladder.freefermion import (
    CouplingConfig,
    parse_pattern,
    pattern_sector,
    sector_ground_energy,
    sector_sweep,
)
from vortexladder.gauge import sector_from_id
from vortexladder.lattice import build_ladder
from vortexladder.presets import make_couplings

WORKLOADS = ("sweep", "spin-ed", "gap-scan", "rp")
GAP_PATTERNS = ("BL", "BL+p2N", "p2N-1+p2N")


class CheckError(Exception):
    """An artifact is wrong."""


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: dict
    seed: int
    threads: int
    check: Callable[[bytes], None]

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, sort_keys=True, indent=1) + "\n").encode()

    def cli_args(self, config_path: str, out_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_path,
                "--seed", str(self.seed), "--threads", str(self.threads)]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _bonds(rng: random.Random, ladder, signed: bool) -> dict[str, float]:
    """Magnitudes uniform in [0.5, 1.5]; signs uniform when ``signed``."""
    out = {}
    for bond in ladder.bonds:
        sign = rng.choice((-1.0, 1.0)) if signed else 1.0
        out[f"{bond.i}-{bond.j}"] = sign * rng.uniform(0.5, 1.5)
    return out


def _couplings(bonds: dict[str, float]) -> CouplingConfig:
    return CouplingConfig({
        tuple(int(p) for p in key.split("-")): value for key, value in bonds.items()
    })


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# ---------------------------------------------------------------------------
# checks

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _json(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError as e:
        raise CheckError(f"artifact is not JSON: {e}") from None


def _check_sweep(cells: int, bonds: dict[str, float]) -> Callable[[bytes], None]:
    def check(data: bytes) -> None:
        ladder = build_ladder(cells, "closed")
        n_cycles = len(ladder.cycle_names)
        lines = data.decode().splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        _require(len(rows) == 1 << n_cycles, f"{len(rows)} rows, want {1 << n_cycles}")
        ids = [int(r[0]) for r in rows]
        energies = [float(r[-2]) for r in rows]
        _require(sorted(ids) == list(range(1 << n_cycles)), "sector ids are not each present once")
        _require(all(a <= b for a, b in zip(energies, energies[1:])), "energies not ascending")
        sector = sector_from_id(ladder, ids[0])
        for name, value in zip(ladder.cycle_names, rows[0][1:-2]):
            _require(int(value) == sector.values[name], f"argmin row disagrees with its id on {name}")
        want = sector_ground_energy(ladder, _couplings(bonds), sector)
        _require(abs(energies[0] - want) <= 1e-10 * max(1.0, abs(want)),
                 f"argmin energy {energies[0]!r} != sector_ground_energy {want!r}")
    return check


def _check_open_compare(data: bytes) -> None:
    _require(_json(data).get("spectra_equal") is True, "open compare: spectra_equal is not true")


def _check_closed_compare(data: bytes) -> None:
    _require(_json(data).get("ground_equal") is True, "closed compare: ground_equal is not true")


def _check_perturb(cells: int) -> Callable[[bytes], None]:
    def check(data: bytes) -> None:
        rows = _json(data).get("rows", [])
        want = [f"p{k}" for k in range(1, 2 * cells)]
        _require([r.get("plaquette") for r in rows] == want, f"plaquettes are not {want}")
        for r in rows:
            value = r.get("delta_e_exact")
            _require(isinstance(value, float) and math.isfinite(value) and value > 0,
                     f"{r.get('plaquette')}: delta_e_exact {value!r} is not finite and positive")
    return check


def _check_gap_scan(first: int, last: int, jxyz: tuple[float, float, float]) -> Callable[[bytes], None]:
    def check(data: bytes) -> None:
        rows = [r for r in csv.reader(io.StringIO(data.decode())) if r and not r[0].startswith("#")]
        _require(rows[0] == ["cells", "pattern", "gap"], "unexpected gap-scan header")
        want = [(n, p) for n in range(first, last + 1) for p in GAP_PATTERNS]
        got = [(int(r[0]), r[1]) for r in rows[1:]]
        _require(got == want, "gap-scan rows are not one per (N, pattern)")
        gaps = {(int(r[0]), r[1]): float(r[2]) for r in rows[1:]}
        _require(all(math.isfinite(g) for g in gaps.values()), "a gap is not finite")
        # the CLI solves the two sectors one by one; the batched sweep must agree
        ladder = build_ladder(first, "closed")
        couplings = make_couplings("decaying-top-closed", ladder, *jxyz)
        sweep = sector_sweep(ladder, couplings)
        pattern = pattern_sector(ladder, parse_pattern(ladder, "BL")).sector_id
        want_gap = sweep.row_for(pattern).energy - sweep.row_for(0).energy
        _require(abs(gaps[(first, "BL")] - want_gap) <= 1e-10,
                 f"N={first} BL gap {gaps[(first, 'BL')]!r} != sweep difference {want_gap!r}")
    return check


def _check_rp(data: bytes) -> None:
    _require(_json(data).get("verdict") == "pass", "rp-verify verdict is not pass")


# ---------------------------------------------------------------------------
# workloads

def jobs(workload: str, seed: int, small: bool = False) -> list[Job]:
    """The jobs of one workload; ``small`` shrinks every size for tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    threads = nproc()

    if workload == "sweep":
        cells = 3 if small else 7
        bonds = _bonds(rng, build_ladder(cells, "closed"), signed=True)
        config = {"ladder": {"cells": cells, "boundary": "closed"}, "couplings": {"bonds": bonds}}
        return [Job("sweep", "sweep", config, _seed(rng), threads, _check_sweep(cells, bonds))]

    if workload == "spin-ed":
        cells = 2 if small else 3
        # Positive couplings on the closed ring: with signed ones the unconstrained
        # fermion minimum can sit in an unphysical parity sector, so ground_equal
        # is not a claim the program makes there.
        open_bonds = _bonds(rng, build_ladder(cells, "open"), signed=True)
        closed_bonds = _bonds(rng, build_ladder(4, "closed"), signed=False)
        t = rng.uniform(0.02, 0.04)
        return [
            Job("compare-open", "compare",
                {"ladder": {"cells": cells, "boundary": "open"}, "couplings": {"bonds": open_bonds}},
                _seed(rng), threads, _check_open_compare),
            Job("perturb-open", "perturb",
                {"ladder": {"cells": cells, "boundary": "open"}, "jx": 1.0, "t": t},
                _seed(rng), threads, _check_perturb(cells)),
            # 16 spins: above the dense guard, so this takes the Lanczos path
            Job("compare-closed", "compare",
                {"ladder": {"cells": 4, "boundary": "closed"}, "couplings": {"bonds": closed_bonds}},
                _seed(rng), threads, _check_closed_compare),
        ]

    if workload == "gap-scan":
        first, last = (4, 6) if small else (4, 80)
        jxyz = tuple(base * rng.uniform(0.9, 1.1) for base in (1.0, 0.2, 2.0))
        config = {
            "ladder": {"boundary": "closed"},
            "cells_range": [first, last],
            "patterns": list(GAP_PATTERNS),
            "couplings": {"preset": "decaying-top-closed",
                          "jx": jxyz[0], "jy": jxyz[1], "jz": jxyz[2]},
        }
        return [Job("gap-scan", "gap-scan", config, _seed(rng), threads,
                    _check_gap_scan(first, last, jxyz))]

    majoranas, samples = (8, 4) if small else (12, 40)
    return [
        Job(f"rp-{bulk}", "rp-verify",
            {"majoranas": majoranas, "samples": samples, "mode": "verify", "bulk": bulk},
            _seed(rng), threads, _check_rp)
        for bulk in ("symmetric", "asymmetric")
    ]
