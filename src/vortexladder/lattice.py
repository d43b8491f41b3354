"""Two-leg ladder lattices with x/y/z bond types.

A ladder of ``N`` cells has sites labeled ``1..4N``.  Cell ``n`` is a unit
square whose corners, walked clockwise from the lower left, are
``4n-3, 4n-2, 4n-1, 4n``; consecutive cells share no sites and are glued by
an in-between square.  Walking left to right, the elementary squares
(plaquettes) are ``p1, p2, ..., p_{2N-1}`` for the open ladder; closing the
ladder into a ring adds ``p_{2N}`` and one homologically new cycle, the
"big" loop around the bottom rail.

Bond typing: every vertical bond is z; the top edge of each cell and the
bottom edge of each in-between square are x; all remaining rail bonds are y.
Bonds are stored with canonical orientation ``i < j`` (also for the two
closing bonds of a ring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .errors import InvalidLoopError, InvalidSpecError, UnsupportedReflectionError

if TYPE_CHECKING:
    from .gauge import CycleSystem


class Boundary(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class BondType(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"


@dataclass(frozen=True, order=True)
class Bond:
    """Undirected bond, canonically oriented from lower to higher label."""

    i: int
    j: int
    kind: BondType = field(compare=False)

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise InvalidSpecError(f"bond ({self.i},{self.j}) not canonically oriented")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)


Loop = tuple[int, ...]


@dataclass(frozen=True)
class Ladder:
    n_cells: int
    boundary: Boundary
    bonds: tuple[Bond, ...]
    cycles: Mapping[str, Loop]  # ordered: p1, p2, ..., ["big"]

    @property
    def n_sites(self) -> int:
        return 4 * self.n_cells

    @cached_property
    def bond_map(self) -> dict[tuple[int, int], Bond]:
        return {b.pair: b for b in self.bonds}

    @cached_property
    def cycle_bonds(self) -> dict[str, tuple[tuple[tuple[int, int], ...], int]]:
        """Per basis cycle name, in ``cycles`` order: the canonical pair of
        each step of the loop, and how many steps a -> b have a > b (they run
        against their bond's orientation).  The one walk of the loops that
        every reader of the bond layout shares.  InvalidLoopError for a loop
        that is not simple or steps off the ladder."""
        out = {}
        for name, loop in self.cycles.items():
            if len(loop) < 3 or len(set(loop)) != len(loop):
                raise InvalidLoopError(f"{loop} is not a simple loop")
            pairs, backward = [], 0
            for a, b in zip(loop, loop[1:] + loop[:1]):
                pair = (a, b) if a < b else (b, a)
                if pair not in self.bond_map:
                    raise InvalidLoopError(f"({pair[0]},{pair[1]}) is not a bond")
                pairs.append(pair)
                backward += a > b
            out[name] = (tuple(pairs), backward)
        return out

    @cached_property
    def cycle_system(self) -> CycleSystem:
        """What every gauge solve on this ladder shares
        (``gauge.CycleSystem``), made on first use."""
        from .gauge import CycleSystem  # gauge builds on this module

        return CycleSystem.of(self)

    @property
    def cycle_names(self) -> tuple[str, ...]:
        return tuple(self.cycles)

    def bond_between(self, a: int, b: int) -> Bond:
        key = (a, b) if a < b else (b, a)
        try:
            return self.bond_map[key]
        except KeyError:
            raise InvalidLoopError(f"({a},{b}) is not a bond of the ladder") from None

    def column(self, site: int) -> int:
        """1-based horizontal position; two sites (one per rail) per column."""
        cell, r = divmod(site - 1, 4)
        return 2 * cell + (1 if r in (0, 1) else 2)

    def rail(self, site: int) -> int:
        """0 for the bottom rail, 1 for the top rail."""
        return 0 if (site - 1) % 4 in (0, 3) else 1


def build_ladder(n_cells: int, boundary: Boundary | str = Boundary.OPEN) -> Ladder:
    """Construct the ladder with N cells and the requested boundary.

    Open ladders have 6N-2 bonds and 2N-1 independent cycles (the
    plaquettes); closed ones have 6N bonds and 2N+1 independent cycles
    (all plaquettes plus the big loop around the bottom rail).
    """
    if not isinstance(n_cells, int) or isinstance(n_cells, bool) or n_cells < 2:
        raise InvalidSpecError(f"n_cells must be an integer >= 2, got {n_cells!r}")
    boundary = Boundary(boundary)
    N = n_cells

    bonds: list[Bond] = []
    for n in range(1, N + 1):
        bonds.append(Bond(4 * n - 3, 4 * n - 2, BondType.Z))
        bonds.append(Bond(4 * n - 1, 4 * n, BondType.Z))
        bonds.append(Bond(4 * n - 2, 4 * n - 1, BondType.X))
        bonds.append(Bond(4 * n - 3, 4 * n, BondType.Y))
    for j in range(1, N):
        bonds.append(Bond(4 * j, 4 * j + 1, BondType.X))
        bonds.append(Bond(4 * j - 1, 4 * j + 2, BondType.Y))
    if boundary is Boundary.CLOSED:
        bonds.append(Bond(1, 4 * N, BondType.X))
        bonds.append(Bond(2, 4 * N - 1, BondType.Y))
    bonds.sort(key=lambda b: (b.i, b.j))

    cycles: dict[str, Loop] = {}
    n_plaq = 2 * N if boundary is Boundary.CLOSED else 2 * N - 1
    for k in range(1, n_plaq + 1):
        if k % 2 == 1:
            n = (k + 1) // 2
            loop = (4 * n - 3, 4 * n - 2, 4 * n - 1, 4 * n)
        else:
            j = k // 2
            # wrap the last in-between square of a ring back onto sites 2, 1
            a, b = 4 * j + 2, 4 * j + 1
            if k == 2 * N:
                a, b = 2, 1
            loop = (4 * j, 4 * j - 1, a, b)
        cycles[f"p{k}"] = loop
    if boundary is Boundary.CLOSED:
        big = []
        for n in range(1, N + 1):
            big += [4 * n - 3, 4 * n]
        cycles["big"] = tuple(big)

    return Ladder(N, boundary, tuple(bonds), cycles)


class ReflectionCase(str, Enum):
    HORIZONTAL = "horizontal"          # swaps the rails; cross bonds = all z
    VERTICAL_OPEN = "vertical-open"    # mirror about the central column gap
    VERTICAL_CLOSED = "vertical-closed"  # ring mirror, two crossing gaps


def reflection(ladder: Ladder, case: ReflectionCase | str) -> dict[int, int]:
    """Site map theta of a site-free reflection; see ReflectionCase for the menu.

    The vertical mirrors send site k to 4N+1-k.  The closed vertical mirror
    needs even N so that both crossing planes fall between cells.  theta is
    checked to exchange the half containing site 1 (the bottom rail, or the
    columns 1..N) with the other and to preserve bond types.
    """
    case = ReflectionCase(case)
    N = ladder.n_cells
    if case is ReflectionCase.HORIZONTAL:  # each cell's rungs are (4n-3, 4n-2), (4n-1, 4n)
        theta = {s: s + 1 if s % 2 else s - 1 for s in range(1, 4 * N + 1)}
        negative = frozenset(s for s in range(1, 4 * N + 1) if ladder.rail(s) == 0)
    else:
        boundary = Boundary.OPEN if case is ReflectionCase.VERTICAL_OPEN else Boundary.CLOSED
        if ladder.boundary is not boundary:
            article = "an" if boundary is Boundary.OPEN else "a"
            raise UnsupportedReflectionError(f"{case.value} requires {article} {boundary.value} ladder")
        if boundary is Boundary.CLOSED and N % 2:
            raise UnsupportedReflectionError(
                "vertical-closed requires even N so both mirror planes avoid sites"
            )
        theta = {k: 4 * N + 1 - k for k in range(1, 4 * N + 1)}
        negative = frozenset(s for s in range(1, 4 * N + 1) if ladder.column(s) <= N)

    _check_reflection(ladder, theta, negative, swap_xy=case is ReflectionCase.HORIZONTAL)
    return theta


def _check_reflection(ladder, theta: dict[int, int], negative: frozenset[int], swap_xy: bool):
    # involution, no fixed sites, halves exchanged, bond types preserved --
    # except that the rail swap necessarily trades each cell's top x edge
    # for its bottom y edge, so the horizontal case preserves types only up
    # to the x<->y exchange.
    for s, t in theta.items():
        if theta[t] != s or t == s:
            raise UnsupportedReflectionError(f"theta is not a fixed-point-free involution at {s}")
        if (s in negative) == (t in negative):
            raise UnsupportedReflectionError(f"theta does not exchange the halves at {s}")
    swapped = {BondType.X: BondType.Y, BondType.Y: BondType.X, BondType.Z: BondType.Z}
    for b in ladder.bonds:
        image = ladder.bond_between(theta[b.i], theta[b.j])
        expect = swapped[b.kind] if swap_xy else b.kind
        if image.kind != expect:
            raise UnsupportedReflectionError(f"bond type not preserved on {b.pair}")
