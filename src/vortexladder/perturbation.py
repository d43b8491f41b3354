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
``effective`` returns e0, e2 and these single-flip gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import spin_ed
from .errors import GuardExceededError, InvalidSpecError, LabelingError
from .freefermion import CouplingConfig
from .lattice import Boundary, BondType, Ladder

RATIO_GUARD = 0.1  # ceiling for max(jy, jz)/jx


@dataclass(frozen=True)
class PerturbationSplit:
    """Uniform jx on x bonds; per-bond weak couplings on y and z bonds."""

    jx: float
    jy: Mapping[tuple[int, int], float]
    jz: Mapping[tuple[int, int], float]

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
        if max(weak) > RATIO_GUARD * self.jx:
            raise GuardExceededError(
                f"max weak coupling {max(weak)} exceeds {RATIO_GUARD} * jx"
            )

    @classmethod
    def from_uniform(cls, ladder: Ladder, jx: float, t: float):
        jy = {b.pair: float(t) for b in ladder.bonds if b.kind is BondType.Y}
        jz = {b.pair: float(t) for b in ladder.bonds if b.kind is BondType.Z}
        return cls(float(jx), jy, jz)

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
    e0: float
    e2: float
    gaps: Mapping[str, float]    # p_k -> energy cost of flipping B_k alone


def effective(ladder: Ladder, split: PerturbationSplit) -> EffectiveResult:
    """The printed formulas of the ladder's boundary; closed ones need N > 2."""
    closed = ladder.boundary is Boundary.CLOSED
    if closed and ladder.n_cells <= 2:
        raise InvalidSpecError("closed-ladder formulas assume N > 2")
    split.validate_for(ladder)
    N = ladder.n_cells
    jx, jy, jz = split.jx, split.jy, split.jz

    # y[m - 1] couples the one y bond of plaquette p_m, z[j - 1] the j-th
    # rung (the z bonds sort from the left)
    y = [jy[next(pair for pair in ladder.cycle_bonds[name][0] if pair in jy)]
         for name in _plaquette_names(ladder)]
    z = [jz[b.pair] for b in ladder.bonds if b.kind is BondType.Z]

    e0 = -jx * 2 * N if closed else -jx * (2 * N - 1)
    bracket = sum(v ** 2 for v in y[:2 * N - 1])
    bracket += sum(v ** 2 for v in z)
    if closed:
        bracket += y[-1] ** 2  # closing y bond, of p_{2N}
    else:  # boundary squares appear a second time, exactly as printed
        bracket += y[0] ** 2 + y[-1] ** 2
        bracket += z[0] ** 2 + z[-1] ** 2
    e2 = -bracket / (4 * jx)

    gaps = {}
    for k in range(1, 2 * N):  # on rings p_{2N} is absent, exactly as printed
        prod = z[k - 1] * y[k - 1] * z[k]
        if not closed and k in (1, 2 * N - 1):
            gaps[f"p{k}"] = prod / jx**2
        else:
            gaps[f"p{k}"] = prod / (4 * jx**2)
    return EffectiveResult(e0, e2, gaps)


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


def _plaquette_names(ladder: Ladder) -> list[str]:
    return [n for n in ladder.cycle_names if n != "big"]


def _sector_minima(ladder: Ladder, h, names, targets):
    """Ground energies of the ``targets`` sectors, one tapered block each.

    Only the target blocks are diagonalized.  Their lifted ground vectors
    are labeled afresh as an exact cross-check of the tapering.
    """
    ops = {name: spin_ed.vortex_operator(ladder, name) for name in names}
    tapering = spin_ed.taper(h, ops)
    grounds = {key: spin_ed.dense_lowest(tapering.blocks[key]) for key in targets}
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
