"""Z2 link variables, loop observables, and vortex sectors.

A gauge configuration assigns u = +-1 to every bond, stored on the
canonical orientation i -> j with i < j; traversing a bond backwards flips
the sign.  The observable attached to an oriented loop c is

    value(c) = - prod_k u(c_k -> c_{k+1})

so +1 means "vortex free" on that loop.  Site sign flips s: sites -> {+-1}
act by u'(i->j) = s(i) s(j) u(i->j) and leave every loop value unchanged;
a vortex sector is the gauge orbit, recorded as one value per cycle-basis
loop (p1, p2, ..., and "big" on a ring).

Sector ids pack the basis values into a bitmask (bit set = value -1) with
the first cycle name in the most significant position, so ascending id
order is plain counter order with +1 before -1.

Each ladder keeps one cycle system (``Ladder.cycle_system``), made on
first use: the co-tree of a spanning tree, the all-(+1) sector and the
closed-form solution of the cycle/co-tree system, which is bidiagonal but
for a ring's last cell.  Each representative gauge (``gauge_for_sector``,
``cotree_flips``) takes one parity per co-tree bond, with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import xor
from typing import Iterator, Mapping, Sequence

from .errors import (
    GuardExceededError,
    InconsistentSectorError,
    InvalidLoopError,
    InvalidSpecError,
)
from .lattice import Boundary, Ladder, Loop

MAX_SECTOR_BASIS = 30  # guard for full sector enumeration
_SIGNS = frozenset((-1, 1))


@dataclass(frozen=True)
class GaugeConfig:
    """Bond signs on canonical orientations; keys are (i, j) with i < j."""

    u: Mapping[tuple[int, int], int]

    def __post_init__(self):
        try:
            if _SIGNS.issuperset(self.u.values()):
                return
        except TypeError:  # an unhashable value, named below
            pass
        for key, val in self.u.items():
            if val not in (-1, 1):
                raise InvalidSpecError(f"u{key} = {val!r}, expected +-1")

    def sign(self, a: int, b: int) -> int:
        """Oriented sign u(a -> b); antisymmetric under swap."""
        if a < b:
            try:
                return self.u[(a, b)]
            except KeyError:
                raise InvalidLoopError(f"({a},{b}) is not a bond") from None
        try:
            return -self.u[(b, a)]
        except KeyError:
            raise InvalidLoopError(f"({b},{a}) is not a bond") from None

    @classmethod
    def all_plus(cls, ladder: Ladder) -> "GaugeConfig":
        return cls({b.pair: 1 for b in ladder.bonds})


@dataclass(frozen=True)
class VortexSector:
    """One +-1 value per cycle-basis loop, keyed by cycle name."""

    values: Mapping[str, int]
    sector_id: int


def vortex_value(gauge: GaugeConfig, loop: Loop) -> int:
    """Loop observable -prod u along the oriented traversal of `loop`."""
    if len(loop) < 3 or len(set(loop)) != len(loop):
        raise InvalidLoopError(f"{loop} is not a simple loop")
    prod = 1
    for k, a in enumerate(loop):
        prod *= gauge.sign(a, loop[(k + 1) % len(loop)])
    return -prod


def sector_of(ladder: Ladder, gauge: GaugeConfig) -> VortexSector:
    """The sector of ``gauge``: each basis loop's ``vortex_value``, read off
    the ladder's ``cycle_bonds``.  A step against its bond's orientation
    reads -u, so a loop with k such steps has value -(-1)^k prod u."""
    if gauge.u.keys() != ladder.bond_map.keys():
        raise InvalidSpecError("gauge does not cover exactly the ladder bonds")
    u = gauge.u
    values = {name: (1 if backward % 2 else -1) * prod(map(u.__getitem__, pairs))
              for name, (pairs, backward) in ladder.cycle_bonds.items()}
    return VortexSector(values, sector_id(ladder, values))


def sector_id(ladder: Ladder, values: Mapping[str, int]) -> int:
    names = ladder.cycle_names
    if values.keys() != ladder.cycles.keys():
        raise InconsistentSectorError(
            f"sector must assign exactly {names}, got {tuple(values)}"
        )
    sid = 0
    for k, name in enumerate(names):
        v = values[name]
        if v not in (-1, 1):
            raise InconsistentSectorError(f"sector value for {name} must be +-1, got {v!r}")
        if v == -1:
            sid |= 1 << (len(names) - 1 - k)
    return sid


def sector_from_id(ladder: Ladder, sid: int) -> VortexSector:
    names = ladder.cycle_names
    values = {
        name: -1 if (sid >> (len(names) - 1 - k)) & 1 else 1
        for k, name in enumerate(names)
    }
    return VortexSector(values, sid)


def enumerate_sectors(ladder: Ladder) -> Iterator[VortexSector]:
    """All sectors in ascending sector-id (counter) order.  No command calls
    this; the tests use it as the oracle that visits every sector."""
    n = len(ladder.cycle_names)
    if n > MAX_SECTOR_BASIS:
        raise GuardExceededError(
            f"2^{n} sectors exceeds the enumeration guard ({MAX_SECTOR_BASIS})")
    for sid in range(1 << n):
        yield sector_from_id(ladder, sid)


# ---------------------------------------------------------------------------
# spanning-tree gauge construction

def spanning_cotree(ladder: Ladder) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split bonds into a lexicographically-least spanning tree and the rest."""
    parent = list(range(ladder.n_sites + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree, cotree = [], []
    for b in ladder.bonds:  # already sorted by (i, j)
        ra, rb = find(b.i), find(b.j)
        if ra == rb:
            cotree.append(b.pair)
        else:
            parent[ra] = rb
            tree.append(b.pair)
    return tree, cotree


@dataclass(frozen=True)
class CycleSystem:
    """What every gauge solve on one ladder shares: the co-tree bonds, the
    sector id of the all-(+1) gauge, and per co-tree bond c the mask of the
    bits of b = sid ^ sid0 whose parity flips it.  A ladder makes its own
    once, on first use (``Ladder.cycle_system``).

    On a ``build_ladder`` ladder the masks have a closed form.  Rung j, the
    z bond (2j+1, 2j+2), is flipped when p1..pj, the top j bits of b, have
    odd parity (the rungs' flips are the inverse Gray code of b), for
    j <= 2N-1 on an open ladder and j <= 2N-2 on a ring.  A ring's last
    three co-tree bonds, (4N-3, 4N), (4N-2, 4N-1) and rung 2N-1, take the
    bit of big, the parity of every bit and the bit of p2N.  ``of`` checks
    that each basis loop's co-tree masks sum to its own sector-id bit, so a
    hand-built ladder the closed form does not solve raises
    InconsistentSectorError before any solve."""

    cotree: tuple[tuple[int, int], ...]
    sid0: int
    masks: tuple[int, ...]

    @classmethod
    def of(cls, ladder: Ladder) -> "CycleSystem":
        _, cotree = spanning_cotree(ladder)
        N, n = ladder.n_cells, len(ladder.cycles)
        rungs = range(1, 2 * N - 1 if ladder.boundary is Boundary.CLOSED else 2 * N)
        want = [(2 * j + 1, 2 * j + 2) for j in rungs]
        masks = [((1 << j) - 1) << (n - j) for j in rungs]
        if ladder.boundary is Boundary.CLOSED:
            want += [(4 * N - 3, 4 * N), (4 * N - 2, 4 * N - 1), (4 * N - 1, 4 * N)]
            masks += [1, (1 << n) - 1, 2]
        if cotree != want or n != len(want):
            raise InconsistentSectorError(
                f"co-tree bonds {cotree} for {n} basis cycles are not the closed form's {want}")
        col = dict(zip(cotree, masks))
        # the all-(+1) gauge gives a loop with k backward steps the value -(-1)^k,
        # so its sector id has the bit of each loop with even k set
        sid0 = 0
        for k, (name, (pairs, backward)) in enumerate(ladder.cycle_bonds.items()):
            if reduce(xor, (col[pair] for pair in pairs if pair in col), 0) != 1 << (n - 1 - k):
                raise InconsistentSectorError(f"cycle {name} is not the closed form's loop")
            sid0 = sid0 << 1 | (backward % 2 == 0)
        return cls(tuple(cotree), sid0, tuple(masks))


def cotree_flips(
    ladder: Ladder, sids: Sequence[int]
) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """Co-tree bonds and, per sector id, which of them carry u = -1 in the
    sector's representative gauge (bit c for ``cotree[c]``); every other bond,
    the spanning tree included, carries u = +1.  Bit c is the parity of the
    bits of sid ^ sid0 in the ladder's closed-form mask c (``CycleSystem``),
    where sid0 is the sector of the all-(+1) gauge."""
    system = ladder.cycle_system
    return system.cotree, [
        sum(((mask & (sid ^ system.sid0)).bit_count() & 1) << c for c, mask in enumerate(system.masks))
        for sid in sids]


def gauge_for_sector(ladder: Ladder, sector: VortexSector | Mapping[str, int]) -> GaugeConfig:
    """Deterministic representative gauge: u = +1 on a fixed spanning tree,
    co-tree signs from ``cotree_flips`` so every basis loop hits its target."""
    values = sector.values if isinstance(sector, VortexSector) else sector
    sid = sector_id(ladder, values)  # validates names and +-1 entries
    cotree, (x,) = cotree_flips(ladder, [sid])
    return gauge_from_flips(ladder, cotree, x, values)


def gauge_from_flips(
    ladder: Ladder, cotree: Sequence[tuple[int, int]], x: int, values: Mapping[str, int]
) -> GaugeConfig:
    """The gauge with u = -1 on the co-tree bonds set in ``x`` (bit c for
    ``cotree[c]``, as ``cotree_flips`` returns them) and u = +1 elsewhere,
    checked to reproduce the sector ``values``."""
    u = dict.fromkeys(ladder.bond_map, 1)
    u.update((pair, -1) for c, pair in enumerate(cotree) if (x >> c) & 1)
    out = GaugeConfig(u)
    got = sector_of(ladder, out)
    if dict(got.values) != dict(values):  # defensive; construction is exact
        raise InconsistentSectorError("solved gauge does not reproduce the sector")
    return out
