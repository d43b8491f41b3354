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
first use: the co-tree of a spanning tree, the all-(+1) sector and one
forward elimination of the cycle/co-tree matrix over GF(2).  Each
representative gauge (``gauge_for_sector``, ``cotree_flips``) is one back
substitution into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, Mapping, Sequence

from .errors import (
    GuardExceededError,
    InconsistentSectorError,
    InvalidLoopError,
    InvalidSpecError,
)
from .lattice import Ladder, Loop

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


def cycle_cotree_matrix(ladder: Ladder, cotree: Sequence[tuple[int, int]]) -> list[int]:
    """Row r = bitmask of co-tree bonds used by cycle-basis loop r."""
    col = {pair: c for c, pair in enumerate(cotree)}
    return [sum(1 << col[pair] for pair in pairs if pair in col)
            for pairs, _ in ladder.cycle_bonds.values()]


def _eliminate(rows: list[int]) -> list[int]:
    """Forward elimination of the n ``rows`` over GF(2); InconsistentSectorError
    if they are dependent or have a column beyond the n-th (a ladder with more
    co-tree bonds than basis cycles).  Pivot c has bit c and no lower bit,
    and bit n + r of it is set for each row r summed into it, so a
    right-hand side can follow it later (``_back_substitute``).

    Column c is cleared only from the rows not yet used as pivots, which
    leaves each pivot row with bit c and higher bits alone; a column view
    (``cols[c]``: the rows holding bit c) finds pivots and the rows to clear
    without a scan.  A cycle/co-tree matrix is nearly bidiagonal and barely
    fills in, so this is near-linear in n.  Each loop over the set bits of a
    mask takes its lowest bit and clears it.
    """
    n = len(rows)
    if max(rows, default=0) >> n:
        raise InconsistentSectorError(f"{n} basis cycles for more than {n} co-tree bonds")
    aug = [row | 1 << (n + r) for r, row in enumerate(rows)]
    cols = [0] * n
    for r, row in enumerate(rows):
        while row:
            bit = row & -row
            cols[bit.bit_length() - 1] |= 1 << r
            row ^= bit
    low = (1 << n) - 1  # the coefficient bits
    free = low  # rows not yet a pivot
    pivots = []
    for c in range(n):
        below = cols[c] & free
        if not below:
            raise InconsistentSectorError("cycle basis is linearly dependent")
        p = (below & -below).bit_length() - 1
        free ^= 1 << p
        below ^= 1 << p
        pivot = aug[p]
        pivots.append(pivot)
        rest = below
        while rest:
            bit = rest & -rest
            aug[bit.bit_length() - 1] ^= pivot
            rest ^= bit
        rest = pivot & low
        while rest:
            bit = rest & -rest
            cols[bit.bit_length() - 1] ^= below
            rest ^= bit
    return pivots


def _back_substitute(pivots: Sequence[int], b: int) -> int:
    """The x (a bitmask) with rows . x = b, from the ``_eliminate`` pivots of
    the rows; bit r of b is row r's value.  x_c = b'_c + parity(row_c & x),
    where b'_c sums the bits of b that pivot c's row sum names."""
    n = len(pivots)
    x = 0
    for c in range(n - 1, -1, -1):
        row = pivots[c]
        x |= ((((row >> n) & b).bit_count() ^ (row & x).bit_count()) & 1) << c
    return x


@dataclass(frozen=True)
class CycleSystem:
    """What every gauge solve on one ladder shares: the co-tree bonds, the
    sector id of the all-(+1) gauge, and the ``_eliminate`` pivots of the
    cycle/co-tree rows, row b for sector-id bit b (the first cycle is the
    most significant bit).  A ladder makes its own once, on first use
    (``Ladder.cycle_system``)."""

    cotree: tuple[tuple[int, int], ...]
    sid0: int
    pivots: tuple[int, ...]

    @classmethod
    def of(cls, ladder: Ladder) -> "CycleSystem":
        _, cotree = spanning_cotree(ladder)
        # the all-(+1) gauge gives a loop with k backward steps the value -(-1)^k,
        # so its sector id has the bit of each loop with even k set
        sid0 = 0
        for _, backward in ladder.cycle_bonds.values():
            sid0 = sid0 << 1 | (backward % 2 == 0)
        rows = cycle_cotree_matrix(ladder, cotree)[::-1]
        return cls(tuple(cotree), sid0, tuple(_eliminate(rows)))


def cotree_flips(
    ladder: Ladder, sids: Sequence[int]
) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """Co-tree bonds and, per sector id, which of them carry u = -1 in the
    sector's representative gauge (bit c for ``cotree[c]``); every other bond,
    the spanning tree included, carries u = +1.

    The flips x solve C x = sid ^ sid0 over GF(2), where row b of C marks the
    co-tree bonds on the loop of sector-id bit b and sid0 is the sector of
    the all-(+1) gauge.  The ladder's cycle system holds one forward
    elimination of C for every call, and each id takes one back
    substitution; C is nearly bidiagonal, so both are near-linear in the
    number of cycles.
    """
    system = ladder.cycle_system
    return system.cotree, [_back_substitute(system.pivots, sid ^ system.sid0) for sid in sids]


def gauge_for_sector(ladder: Ladder, sector: VortexSector | Mapping[str, int]) -> GaugeConfig:
    """Deterministic representative gauge: u = +1 on a fixed spanning tree,
    co-tree signs solved over GF(2) so every basis loop hits its target."""
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
