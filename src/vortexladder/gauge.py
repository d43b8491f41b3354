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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import (
    GuardExceededError,
    InconsistentSectorError,
    InvalidLoopError,
    InvalidSpecError,
)
from .lattice import Ladder, Loop

MAX_SECTOR_BASIS = 30  # guard for full sector enumeration


@dataclass(frozen=True)
class GaugeConfig:
    """Bond signs on canonical orientations; keys are (i, j) with i < j."""

    u: Mapping[tuple[int, int], int]

    def __post_init__(self):
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
class SignAssignment:
    """Site-local Z2 transformation s: sites -> {+-1}."""

    s: Mapping[int, int]

    def __post_init__(self):
        for site, val in self.s.items():
            if val not in (-1, 1):
                raise InvalidSpecError(f"s({site}) = {val!r}, expected +-1")

    def __call__(self, site: int) -> int:
        return self.s.get(site, 1)


@dataclass(frozen=True)
class VortexSector:
    """One +-1 value per cycle-basis loop, keyed by cycle name."""

    values: Mapping[str, int]
    sector_id: int | None = None


def vortex_value(gauge: GaugeConfig, loop: Loop) -> int:
    """Loop observable -prod u along the oriented traversal of `loop`."""
    if len(loop) < 3 or len(set(loop)) != len(loop):
        raise InvalidLoopError(f"{loop} is not a simple loop")
    prod = 1
    for k, a in enumerate(loop):
        prod *= gauge.sign(a, loop[(k + 1) % len(loop)])
    return -prod


def apply_gauge(gauge: GaugeConfig, assignment: SignAssignment) -> GaugeConfig:
    return GaugeConfig(
        {(i, j): assignment(i) * assignment(j) * s for (i, j), s in gauge.u.items()}
    )


def sector_of(ladder: Ladder, gauge: GaugeConfig) -> VortexSector:
    if set(gauge.u) != set(ladder.bond_map):
        raise InvalidSpecError("gauge does not cover exactly the ladder bonds")
    values = {name: vortex_value(gauge, loop) for name, loop in ladder.cycles.items()}
    return VortexSector(values, sector_id(ladder, values))


def sector_id(ladder: Ladder, values: Mapping[str, int]) -> int:
    names = ladder.cycle_names
    if set(values) != set(names):
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
    """All sectors in ascending sector-id (counter) order."""
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


def cycle_cotree_matrix(ladder: Ladder, cotree: list[tuple[int, int]]) -> list[int]:
    """Row r = bitmask of co-tree bonds used by cycle-basis loop r."""
    col = {pair: c for c, pair in enumerate(cotree)}
    rows = []
    for loop in ladder.cycles.values():
        mask = 0
        for a, b in zip(loop, loop[1:] + loop[:1]):
            pair = (a, b) if a < b else (b, a)
            if pair in col:
                mask |= 1 << col[pair]
        rows.append(mask)
    return rows


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _solve_gf2(rows: list[int], rhs: Sequence[int]) -> list[int]:
    """Solve rows . x = b over GF(2) for every b in ``rhs`` (bit r = row r's
    value); row r carries b_k's bit r at bit n+k.  Each x comes back as a
    bitmask; InconsistentSectorError if the rows are dependent.

    Forward elimination clears column c only from the rows not yet used as
    pivots, which leaves each pivot row with bit c and higher bits alone; a
    column view (``cols[c]``: the rows holding bit c) finds pivots and the
    rows to clear without a scan.  Each x is then one back substitution,
    x_c = b_c + parity(row & x).  A cycle/co-tree matrix is nearly
    bidiagonal and barely fills in, so both passes are near-linear in n.
    """
    n = len(rows)
    aug = [
        row | sum(((b >> r) & 1) << (n + k) for k, b in enumerate(rhs))
        for r, row in enumerate(rows)
    ]
    cols = [0] * n
    for r, row in enumerate(rows):
        for c in _bits(row):
            cols[c] |= 1 << r
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
        pivots.append(aug[p])
        for r in _bits(below):
            aug[r] ^= aug[p]
        for c2 in _bits(aug[p] & low):
            cols[c2] ^= below
    out = []
    for k in range(len(rhs)):
        x = 0
        for c in range(n - 1, -1, -1):
            row = pivots[c]
            x |= (((row >> (n + k)) ^ (row & x).bit_count()) & 1) << c
        out.append(x)
    return out


def cotree_flips(ladder: Ladder, sids: Sequence[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Co-tree bonds and, per sector id, which of them carry u = -1 in the
    sector's representative gauge (bit c for ``cotree[c]``); every other bond,
    the spanning tree included, carries u = +1.

    The flips x solve C x = sid ^ sid0 over GF(2), where row b of C marks the
    co-tree bonds on the loop of sector-id bit b and sid0 is the sector of
    the all-(+1) gauge.  One forward elimination of C serves every id, and
    each id then takes one back substitution (``_solve_gf2``); C is nearly
    bidiagonal, so a pass is near-linear in the number of cycles.
    """
    _, cotree = spanning_cotree(ladder)
    rows = cycle_cotree_matrix(ladder, cotree)[::-1]  # first cycle = MSB
    sid0 = sector_of(ladder, GaugeConfig.all_plus(ladder)).sector_id
    return cotree, _solve_gf2(rows, [sid ^ sid0 for sid in sids])


def gauge_for_sector(ladder: Ladder, sector: VortexSector | Mapping[str, int]) -> GaugeConfig:
    """Deterministic representative gauge: u = +1 on a fixed spanning tree,
    co-tree signs solved over GF(2) so every basis loop hits its target."""
    values = sector.values if isinstance(sector, VortexSector) else sector
    sid = sector_id(ladder, values)  # validates names and +-1 entries
    cotree, (x,) = cotree_flips(ladder, [sid])
    return gauge_from_flips(ladder, cotree, x, values)


def gauge_from_flips(
    ladder: Ladder, cotree: list[tuple[int, int]], x: int, values: Mapping[str, int]
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
