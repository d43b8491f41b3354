"""Gauge orbits, loop observables, sector ids, closed-form gauge solves."""

import gc
import weakref

import numpy as np
import pytest

from vortexladder.errors import (
    GuardExceededError,
    InconsistentSectorError,
    InvalidLoopError,
    InvalidSpecError,
)
from vortexladder.gauge import (
    GaugeConfig,
    cotree_flips,
    enumerate_sectors,
    gauge_for_sector,
    sector_from_id,
    sector_id,
    sector_of,
    spanning_cotree,
    vortex_value,
)
from vortexladder.freefermion import CouplingConfig, big_loop_gap, sector_sweep
from vortexladder.lattice import Bond, BondType, Ladder, build_ladder


def loop_value_oracle(u, loop):
    # independent re-implementation: -prod of oriented signs
    prod = 1
    for a, b in zip(loop, loop[1:] + loop[:1]):
        prod *= u[(a, b)] if a < b else -u[(b, a)]
    return -prod


def test_all_plus_gauge_is_vortex_free_everywhere():
    for n, bnd in ((2, "open"), (2, "closed"), (4, "open"), (5, "closed")):
        lad = build_ladder(n, bnd)
        g = GaugeConfig.all_plus(lad)
        sec = sector_of(lad, g)
        assert all(v == 1 for v in sec.values.values())
        assert sec.sector_id == 0
        for loop in lad.cycles.values():
            assert vortex_value(g, loop) == loop_value_oracle(g.u, loop)


def test_vortex_value_matches_oracle_on_random_gauges():
    rng = np.random.default_rng(3)
    lad = build_ladder(3, "closed")
    for _ in range(25):
        u = {b.pair: int(rng.choice([-1, 1])) for b in lad.bonds}
        g = GaugeConfig(u)
        for loop in lad.cycles.values():
            assert vortex_value(g, loop) == loop_value_oracle(u, loop)


def test_single_bond_flip_toggles_exactly_its_loops():
    lad = build_ladder(3, "open")
    base = GaugeConfig.all_plus(lad)
    for flip in [(3, 6), (4, 5), (1, 2)]:
        u = dict(base.u)
        u[flip] = -1
        sec = sector_of(lad, GaugeConfig(u))
        hit = {
            name
            for name, loop in lad.cycles.items()
            if flip in {(min(a, b), max(a, b)) for a, b in zip(loop, loop[1:] + loop[:1])}
        }
        assert {n for n, v in sec.values.items() if v == -1} == hit


def test_loop_value_orientation_invariance():
    rng = np.random.default_rng(11)
    lad = build_ladder(2, "closed")
    u = {b.pair: int(rng.choice([-1, 1])) for b in lad.bonds}
    g = GaugeConfig(u)
    for loop in lad.cycles.values():
        v = vortex_value(g, loop)
        assert vortex_value(g, loop[::-1]) == v
        assert vortex_value(g, loop[2:] + loop[:2]) == v


def test_site_flips_preserve_every_loop_value():
    rng = np.random.default_rng(7)
    lad = build_ladder(3, "closed")
    u = {b.pair: int(rng.choice([-1, 1])) for b in lad.bonds}
    g = GaugeConfig(u)
    before = sector_of(lad, g)
    for _ in range(10):
        s = {site: int(rng.choice([-1, 1])) for site in range(1, lad.n_sites + 1)}
        # u'(i->j) = s(i) s(j) u(i->j): a local Z2 transformation
        flipped = GaugeConfig({(i, j): s[i] * s[j] * v for (i, j), v in u.items()})
        after = sector_of(lad, flipped)
        assert after.values == before.values
        assert after.sector_id == before.sector_id


def test_sector_id_bit_layout():
    lad = build_ladder(2, "open")  # cycles p1, p2, p3
    assert sector_id(lad, {"p1": 1, "p2": 1, "p3": 1}) == 0
    assert sector_id(lad, {"p1": -1, "p2": 1, "p3": 1}) == 4  # first name = MSB
    assert sector_id(lad, {"p1": 1, "p2": 1, "p3": -1}) == 1
    assert sector_id(lad, {"p1": -1, "p2": -1, "p3": -1}) == 7


def test_sector_id_round_trip_all_sectors():
    for n, bnd in ((2, "open"), (2, "closed")):
        lad = build_ladder(n, bnd)
        seen = set()
        for sec in enumerate_sectors(lad):
            assert sector_id(lad, sec.values) == sec.sector_id
            assert sector_from_id(lad, sec.sector_id).values == sec.values
            seen.add(sec.sector_id)
        assert seen == set(range(1 << len(lad.cycle_names)))


def test_sector_validation_errors():
    lad = build_ladder(2, "open")
    with pytest.raises(InconsistentSectorError):
        sector_id(lad, {"p1": 1, "p2": 1})
    with pytest.raises(InconsistentSectorError):
        sector_id(lad, {"p1": 1, "p2": 1, "p3": 0})
    with pytest.raises(InconsistentSectorError):
        sector_id(lad, {"p1": 1, "p2": 1, "p4": 1})
    with pytest.raises(InvalidSpecError):
        GaugeConfig({(1, 2): 2})
    with pytest.raises(InvalidLoopError):
        vortex_value(GaugeConfig.all_plus(lad), (1, 2, 9))
    with pytest.raises(InvalidLoopError):
        vortex_value(GaugeConfig.all_plus(lad), (1, 2))


def test_enumeration_guard():
    lad = build_ladder(16, "closed")  # 33 basis cycles
    with pytest.raises(GuardExceededError):
        list(enumerate_sectors(lad))


def test_spanning_cotree_shapes():
    for n, bnd in ((2, "open"), (3, "closed"), (6, "open")):
        lad = build_ladder(n, bnd)
        tree, cotree = spanning_cotree(lad)
        assert len(tree) == lad.n_sites - 1
        assert len(cotree) == len(lad.cycles)
        assert sorted(tree + cotree) == [b.pair for b in lad.bonds]
        # tree is acyclic: union-find re-check
        parent = list(range(lad.n_sites + 1))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for i, j in tree:
            ri, rj = find(i), find(j)
            assert ri != rj
            parent[ri] = rj


def test_gauge_for_sector_reaches_every_sector():
    for n, bnd in ((2, "open"), (2, "closed"), (3, "open"), (3, "closed")):
        lad = build_ladder(n, bnd)
        for sec in enumerate_sectors(lad):
            g = gauge_for_sector(lad, sec)
            assert sector_of(lad, g).values == sec.values
            tree, _ = spanning_cotree(lad)
            assert all(g.u[pair] == 1 for pair in tree)  # tree gauge fixed


def test_gauge_for_sector_accepts_plain_mapping():
    lad = build_ladder(2, "open")
    g = gauge_for_sector(lad, {"p1": -1, "p2": 1, "p3": -1})
    sec = sector_of(lad, g)
    assert sec.values == {"p1": -1, "p2": 1, "p3": -1}


def gauss_jordan_gf2(rows, rhs):
    """Oracle: a dense Gauss-Jordan elimination over GF(2); row r carries
    b_k's bit r at bit n+k."""
    n = len(rows)
    aug = [
        row | sum(((b >> r) & 1) << (n + k) for k, b in enumerate(rhs))
        for r, row in enumerate(rows)
    ]
    for c in range(n):
        bit = 1 << c
        p = next((r for r in range(c, n) if aug[r] & bit), None)
        if p is None:
            raise InconsistentSectorError("cycle basis is linearly dependent")
        aug[c], aug[p] = aug[p], aug[c]
        for r in range(n):
            if r != c and aug[r] & bit:
                aug[r] ^= aug[c]
    return [sum(((aug[c] >> (n + k)) & 1) << c for c in range(n)) for k in range(len(rhs))]


def test_solve_gf2_matches_gauss_jordan_on_every_ladder():
    """The closed-form flips solve the cycle/co-tree system: row r marks the
    co-tree bonds on the loop of sector-id bit r (the last cycle is bit 0),
    and the right-hand side is the id XOR the all-(+1) gauge's sector."""
    rng = np.random.default_rng(47)
    for n in range(2, 101):
        for bnd in ("open", "closed"):
            lad = build_ladder(n, bnd)
            _, cotree = spanning_cotree(lad)
            col = {pair: c for c, pair in enumerate(cotree)}
            rows = []
            for loop in reversed(lad.cycles.values()):
                pairs = {(min(a, b), max(a, b)) for a, b in zip(loop, loop[1:] + loop[:1])}
                rows.append(sum(1 << col[pair] for pair in pairs if pair in col))
            sid0 = sector_of(lad, GaugeConfig.all_plus(lad)).sector_id
            sids = [int("".join(map(str, rng.integers(0, 2, len(rows)))), 2) for _ in range(4)]
            got_cotree, flips = cotree_flips(lad, sids)
            assert list(got_cotree) == cotree, (n, bnd)
            assert flips == gauss_jordan_gf2(rows, [sid ^ sid0 for sid in sids]), (n, bnd)


def test_sector_of_matches_vortex_value_and_its_errors():
    rng = np.random.default_rng(59)
    for n, bnd in ((2, "open"), (3, "closed"), (6, "closed")):
        lad = build_ladder(n, bnd)
        for _ in range(10):
            g = GaugeConfig({b.pair: int(rng.choice([-1, 1])) for b in lad.bonds})
            want = {name: vortex_value(g, loop) for name, loop in lad.cycles.items()}
            assert sector_of(lad, g).values == want
    lad = build_ladder(2, "open")
    for loop in ((1, 2, 9), (1, 2), (1, 2, 3, 2)):  # off the ladder, too short, not simple
        broken = Ladder(lad.n_cells, lad.boundary, lad.bonds, {**lad.cycles, "p2": loop})
        with pytest.raises(InvalidLoopError) as want:
            vortex_value(GaugeConfig.all_plus(broken), loop)
        with pytest.raises(InvalidLoopError) as got:
            sector_of(broken, GaugeConfig.all_plus(broken))
        assert str(got.value) == str(want.value)


def _triangle_ladder():
    """Open N=2 plus the bond (1, 3) and the loop (1, 2, 3) through it: the
    same cell count, other bonds and another cycle system."""
    lad = build_ladder(2, "open")
    bonds = tuple(sorted(lad.bonds + (Bond(1, 3, BondType.X),)))
    return Ladder(lad.n_cells, lad.boundary, bonds, {**lad.cycles, "t": (1, 2, 3)})


def test_cycle_systems_are_per_ladder_object():
    lad, ring = build_ladder(2, "open"), build_ladder(2, "closed")
    with pytest.raises(InconsistentSectorError, match="co-tree bonds"):
        _triangle_ladder().cycle_system
    # alternate two ladders: each solve reproduces its sector on its own ladder
    sectors = [list(enumerate_sectors(lad)), list(enumerate_sectors(ring))]
    for k in range(len(sectors[1])):
        for ladder, secs in zip((lad, ring), sectors):
            sec = secs[k % len(secs)]
            g = gauge_for_sector(ladder, sec)
            assert set(g.u) == set(ladder.bond_map)
            assert sector_of(ladder, g).values == sec.values
    # each ladder keeps its own system; an equal ladder built again makes another
    again = build_ladder(2, "open")
    assert again == lad and again.cycle_system == lad.cycle_system
    assert lad.cycle_system is lad.cycle_system
    assert again.cycle_system is not lad.cycle_system


def test_cycles_the_closed_form_does_not_solve_raise_before_any_solve(monkeypatch):
    """build_ladder's bonds with another cycle basis: the cycles reordered,
    or p2 replaced by the hexagon p1 + p2.  The closed form does not invert
    their cycle/co-tree systems, so the cycle system refuses them."""
    def no_svd(*args, **kwargs):
        raise AssertionError("a sector was solved before the cycle system check")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    ladders = []
    for n, bnd in ((2, "open"), (3, "closed")):
        lad = build_ladder(n, bnd)
        ladders.append(Ladder(n, lad.boundary, lad.bonds, dict(reversed(lad.cycles.items()))))
    lad = build_ladder(2, "open")
    ladders.append(Ladder(2, lad.boundary, lad.bonds, {**lad.cycles, "p2": (1, 2, 3, 6, 5, 4)}))
    for lad in ladders:
        cc = CouplingConfig({b.pair: 1.0 for b in lad.bonds})
        with pytest.raises(InconsistentSectorError, match="is not the closed form's loop"):
            gauge_for_sector(lad, {name: -1 for name in lad.cycle_names})
        with pytest.raises(InconsistentSectorError, match="is not the closed form's loop"):
            sector_sweep(lad, cc)
        with pytest.raises(InconsistentSectorError, match="is not the closed form's loop"):
            big_loop_gap(lad, cc, ["p1"])


def test_more_cotree_bonds_than_cycles_is_an_inconsistent_sector():
    """Open N=2 plus the bond (1, 3) but no loop through it: four co-tree
    bonds for three basis cycles, so no square cycle/co-tree system."""
    lad = build_ladder(2, "open")
    bonds = tuple(sorted(lad.bonds + (Bond(1, 3, BondType.X),)))
    bad = Ladder(lad.n_cells, lad.boundary, bonds, lad.cycles)
    assert len(spanning_cotree(bad)[1]) == len(bad.cycles) + 1
    with pytest.raises(InconsistentSectorError, match="co-tree bonds"):
        gauge_for_sector(bad, {"p1": 1, "p2": -1, "p3": 1})


def test_a_ladder_is_freed_with_its_last_reference():
    """The cycle system holds no reference back to its ladder, so a scan
    over many ladders frees each one as it moves on, without waiting for
    the garbage collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        lad = build_ladder(5, "closed")
        gauge_for_sector(lad, {name: 1 for name in lad.cycle_names})
        ref = weakref.ref(lad)
        del lad
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
