"""Strong-x-rail effective energetics of vortex patterns, third order.

With a uniform strong coupling jx on every x bond and weak y/z couplings,
the low-energy splitting between vortex patterns B_k = +-1 on plaquettes
p_k is reproduced by

    E(pattern) = e0 + e2 - sum_k coeff_k * B_k

where each plaquette contributes the product of its two z couplings and
one y coupling over a power of jx.  The formulas below are transcribed
as printed in their source, including two quirks that are deliberately
preserved rather than "fixed":

* open ladders: the second-order constant double-counts the four boundary
  squared couplings (they appear once inside the sums and once more as
  standalone terms);
* closed ladders: the third-order sum runs over p_1..p_{2N-1} only, with
  no p_{2N} term, although the ring symmetry suggests one.  The ED
  validator measures the exact p_{2N} gap and reports it alongside a null
  formula value so the omission is visible in outputs.

Flipping a single B_k from +1 to -1 costs 2*coeff_k, i.e. the gap is
JJJ/(4 jx^2) in the bulk and JJJ/jx^2 on the two open-boundary plaquettes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import spin_ed
from .errors import GuardExceededError, InvalidSpecError, LabelingError
from .freefermion import CouplingConfig
from .lattice import Boundary, BondType, Ladder

RATIO_GUARD = 0.1  # default ceiling for max(jy, jz)/jx


def _z_pair(j: int) -> tuple[int, int]:
    return (2 * j - 1, 2 * j)


def _y_pair(ladder: Ladder, m: int) -> tuple[int, int]:
    if ladder.boundary is Boundary.CLOSED and m == 2 * ladder.n_cells:
        return (2, 4 * ladder.n_cells - 1)  # closing y bond
    return (2 * m - 1, 2 * m + 2)


@dataclass(frozen=True)
class PerturbationSplit:
    """Uniform jx on x bonds; per-bond weak couplings on y and z bonds."""

    jx: float
    jy: Mapping[tuple[int, int], float]
    jz: Mapping[tuple[int, int], float]
    ratio_guard: float = RATIO_GUARD

    def validate_for(self, ladder: Ladder) -> None:
        if not (np.isfinite(self.jx) and self.jx > 0):
            raise InvalidSpecError(f"jx must be positive and finite, got {self.jx!r}")
        y_bonds = {b.pair for b in ladder.bonds if b.kind is BondType.Y}
        z_bonds = {b.pair for b in ladder.bonds if b.kind is BondType.Z}
        if set(self.jy) != y_bonds or set(self.jz) != z_bonds:
            raise InvalidSpecError("jy/jz must cover exactly the y and z bonds")
        weak = list(self.jy.values()) + list(self.jz.values())
        if any(not np.isfinite(v) or v < 0 for v in weak):
            raise InvalidSpecError("weak couplings must be finite and >= 0")
        if max(weak) > self.ratio_guard * self.jx:
            raise GuardExceededError(
                f"max weak coupling {max(weak)} exceeds {self.ratio_guard} * jx"
            )

    @classmethod
    def from_uniform(cls, ladder: Ladder, jx: float, t: float, ratio_guard: float = RATIO_GUARD):
        jy = {b.pair: float(t) for b in ladder.bonds if b.kind is BondType.Y}
        jz = {b.pair: float(t) for b in ladder.bonds if b.kind is BondType.Z}
        return cls(float(jx), jy, jz, ratio_guard)

    @classmethod
    def from_couplings(cls, ladder: Ladder, couplings: CouplingConfig, ratio_guard: float = RATIO_GUARD):
        xs = {couplings[b.pair] for b in ladder.bonds if b.kind is BondType.X}
        if len(xs) != 1:
            raise InvalidSpecError("x couplings must be uniform for the split")
        jy = {b.pair: couplings[b.pair] for b in ladder.bonds if b.kind is BondType.Y}
        jz = {b.pair: couplings[b.pair] for b in ladder.bonds if b.kind is BondType.Z}
        return cls(float(xs.pop()), jy, jz, ratio_guard)

    def to_couplings(self, ladder: Ladder) -> CouplingConfig:
        values = {}
        for b in ladder.bonds:
            if b.kind is BondType.X:
                values[b.pair] = self.jx
            elif b.kind is BondType.Y:
                values[b.pair] = self.jy[b.pair]
            else:
                values[b.pair] = self.jz[b.pair]
        return CouplingConfig(values)

    def scale(self) -> float:
        """Expansion parameter: largest weak coupling over jx."""
        weak = list(self.jy.values()) + list(self.jz.values())
        return max(weak) / self.jx if weak else 0.0


@dataclass(frozen=True)
class EffectiveResult:
    boundary: Boundary
    e0: float
    e2: float
    coeffs: Mapping[str, float]  # p_k -> coefficient of -B_k in e3
    gaps: Mapping[str, float]    # p_k -> energy cost of flipping B_k alone

    def e3(self, pattern: Mapping[str, int]) -> float:
        total = 0.0
        for name, coeff in self.coeffs.items():
            if name not in pattern:
                raise InvalidSpecError(f"pattern is missing plaquette {name}")
            b = pattern[name]
            if b not in (-1, 1):
                raise InvalidSpecError(f"pattern value for {name} must be +-1")
            total -= coeff * b
        return total

    def energy(self, pattern: Mapping[str, int]) -> float:
        return self.e0 + self.e2 + self.e3(pattern)


def effective_open(ladder: Ladder, split: PerturbationSplit) -> EffectiveResult:
    if ladder.boundary is not Boundary.OPEN:
        raise InvalidSpecError("effective_open requires an open ladder")
    split.validate_for(ladder)
    N = ladder.n_cells
    jx, jy, jz = split.jx, split.jy, split.jz

    e0 = -jx * (2 * N - 1)
    bracket = sum(jy[_y_pair(ladder, m)] ** 2 for m in range(1, 2 * N))
    bracket += sum(jz[_z_pair(j)] ** 2 for j in range(1, 2 * N + 1))
    # boundary squares appear a second time, exactly as printed
    bracket += jy[_y_pair(ladder, 1)] ** 2 + jy[_y_pair(ladder, 2 * N - 1)] ** 2
    bracket += jz[_z_pair(1)] ** 2 + jz[_z_pair(2 * N)] ** 2
    e2 = -bracket / (4 * jx)

    coeffs, gaps = {}, {}
    for k in range(1, 2 * N):
        prod = jz[_z_pair(k)] * jy[_y_pair(ladder, k)] * jz[_z_pair(k + 1)]
        if k in (1, 2 * N - 1):
            coeffs[f"p{k}"] = prod / (2 * jx**2)
            gaps[f"p{k}"] = prod / jx**2
        else:
            coeffs[f"p{k}"] = prod / (8 * jx**2)
            gaps[f"p{k}"] = prod / (4 * jx**2)
    return EffectiveResult(Boundary.OPEN, e0, e2, coeffs, gaps)


def effective_closed(ladder: Ladder, split: PerturbationSplit) -> EffectiveResult:
    if ladder.boundary is not Boundary.CLOSED:
        raise InvalidSpecError("effective_closed requires a closed ladder")
    if ladder.n_cells <= 2:
        raise InvalidSpecError("closed-ladder formulas assume N > 2")
    split.validate_for(ladder)
    N = ladder.n_cells
    jx, jy, jz = split.jx, split.jy, split.jz

    e0 = -jx * 2 * N
    bracket = sum(jy[_y_pair(ladder, m)] ** 2 for m in range(1, 2 * N))
    bracket += sum(jz[_z_pair(j)] ** 2 for j in range(1, 2 * N + 1))
    bracket += jy[_y_pair(ladder, 2 * N)] ** 2  # closing y bond
    e2 = -bracket / (4 * jx)

    coeffs, gaps = {}, {}
    for k in range(1, 2 * N):  # p_{2N} absent, exactly as printed
        prod = jz[_z_pair(k)] * jy[_y_pair(ladder, k)] * jz[_z_pair(k + 1)]
        coeffs[f"p{k}"] = prod / (8 * jx**2)
        gaps[f"p{k}"] = prod / (4 * jx**2)
    return EffectiveResult(Boundary.CLOSED, e0, e2, coeffs, gaps)


def effective(ladder: Ladder, split: PerturbationSplit) -> EffectiveResult:
    if ladder.boundary is Boundary.OPEN:
        return effective_open(ladder, split)
    return effective_closed(ladder, split)


# ---------------------------------------------------------------------------
# validation against exact diagonalization

@dataclass(frozen=True)
class GapRow:
    plaquette: str
    delta_e_formula: float | None
    delta_e_exact: float
    abs_err: float | None
    rel_err: float | None


@dataclass(frozen=True)
class PerturbationValidation:
    e_free_exact: float
    rows: tuple[GapRow, ...]

    def row(self, plaquette: str) -> GapRow:
        for r in self.rows:
            if r.plaquette == plaquette:
                return r
        raise KeyError(plaquette)


def _plaquette_names(ladder: Ladder) -> list[str]:
    return [n for n in ladder.cycle_names if n != "big"]


def _sector_minima(ladder: Ladder, h, names, targets):
    """Ground energies of the ``targets`` sectors, one tapered block each.

    Only the target blocks are diagonalized.  Their lifted ground vectors
    are labeled afresh as an exact cross-check of the tapering.
    """
    ops = {name: spin_ed.vortex_operator(ladder, name) for name in names}
    tapering = spin_ed.taper(h, ops)
    grounds = {key: spin_ed.dense_lowest(tapering.blocks[key], 1) for key in targets}
    minima = {key: float(rep.eigenvalues[0]) for key, rep in grounds.items()}
    vectors = np.column_stack([tapering.lift(key, grounds[key].vectors) for key in targets])
    labels = spin_ed.label_eigenstates(h, ops, vectors)
    for idx, key in enumerate(targets):
        if tuple(int(labels[name][idx]) for name in names) != key:
            raise LabelingError(f"lifted ground vector of sector {key} carries other labels")
    return minima


def validate_against_ed(ladder: Ladder, split: PerturbationSplit) -> PerturbationValidation:
    """Exact single-flip vortex gaps vs the third-order formulas.

    For every plaquette p_k the exact gap is the ground-energy difference
    between the "only B_k = -1" labeled subspace and the all-(+1) subspace
    (on rings the big-loop label is minimized over, matching the formulas,
    which carry no big-loop term).  At every size up to the 16-spin guard
    the subspaces are the exact plaquette-label blocks of ``spin_ed.taper``
    (at 16 spins 128 blocks on 9 qubits open, 256 on 8 closed), and only the
    1 + #plaquettes blocks reported here are diagonalized.  A zero exact gap
    leaves ``rel_err`` as None.  Nothing is random, so no seed is needed.
    """
    split.validate_for(ladder)
    if ladder.n_sites > 16:
        raise GuardExceededError("validation needs 4N <= 16 spins")
    result = effective(ladder, split)
    h = spin_ed.build_spin_hamiltonian(ladder, split.to_couplings(ladder))
    names = _plaquette_names(ladder)
    free = tuple(1 for _ in names)
    flips = [tuple(-1 if q == pos else 1 for q in range(len(names))) for pos in range(len(names))]
    minima = _sector_minima(ladder, h, names, [free, *flips])

    e_free = minima[free]
    rows = []
    for name, target in zip(names, flips):
        exact = minima[target] - e_free
        formula = result.gaps.get(name)
        if formula is None:
            rows.append(GapRow(name, None, exact, None, None))
        else:
            abs_err = abs(exact - formula)
            rel = abs_err / abs(exact) if exact != 0 else None
            rows.append(GapRow(name, formula, exact, abs_err, rel))
    return PerturbationValidation(e_free, tuple(rows))
