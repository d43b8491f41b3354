"""Ladder construction, typed bonds, cycle basis, reflections."""

import numpy as np
import pytest

from vortexladder.errors import (
    InvalidLoopError,
    InvalidSpecError,
    UnsupportedReflectionError,
)
from vortexladder.lattice import (
    Bond,
    BondType,
    ReflectionCase,
    build_ladder,
    reflection,
)


def negative_half(ladder, case):
    """The half containing site 1: the bottom rail, or the columns 1..N."""
    sites = range(1, ladder.n_sites + 1)
    if ReflectionCase(case) is ReflectionCase.HORIZONTAL:
        return frozenset(s for s in sites if ladder.rail(s) == 0)
    return frozenset(s for s in sites if ladder.column(s) <= ladder.n_cells)


def crossing_bonds(ladder, negative):
    """The bonds with one end on each side of the reflection."""
    return {b for b in ladder.bonds if (b.i in negative) != (b.j in negative)}


def bonds_by_type(ladder):
    out = {t: set() for t in BondType}
    for b in ladder.bonds:
        out[b.kind].add(b.pair)
    return out


def test_open_n2_bond_sets():
    lad = build_ladder(2, "open")
    assert lad.n_sites == 8
    assert len(lad.bonds) == 10
    by = bonds_by_type(lad)
    assert by[BondType.Z] == {(1, 2), (3, 4), (5, 6), (7, 8)}
    assert by[BondType.X] == {(2, 3), (4, 5), (6, 7)}
    assert by[BondType.Y] == {(1, 4), (3, 6), (5, 8)}
    assert lad.cycle_names == ("p1", "p2", "p3")


def test_closed_n2_adds_closing_bonds():
    lad = build_ladder(2, "closed")
    assert len(lad.bonds) == 12
    by = bonds_by_type(lad)
    assert (1, 8) in by[BondType.X]
    assert (2, 7) in by[BondType.Y]
    assert lad.cycle_names == ("p1", "p2", "p3", "p4", "big")


def test_plaquette_loops_frozen_n2():
    lad = build_ladder(2, "closed")
    assert lad.cycles["p1"] == (1, 2, 3, 4)
    assert lad.cycles["p2"] == (4, 3, 6, 5)
    assert lad.cycles["p3"] == (5, 6, 7, 8)
    assert lad.cycles["p4"] == (8, 7, 2, 1)
    assert lad.cycles["big"] == (1, 4, 5, 8)


def test_bond_and_cycle_counts():
    for n in list(range(2, 13)) + [25, 50]:
        op = build_ladder(n, "open")
        cl = build_ladder(n, "closed")
        assert len(op.bonds) == 6 * n - 2
        assert len(cl.bonds) == 6 * n
        assert len(op.cycles) == 2 * n - 1
        assert len(cl.cycles) == 2 * n + 1
        bo, bc = bonds_by_type(op), bonds_by_type(cl)
        assert len(bo[BondType.Z]) == 2 * n and len(bc[BondType.Z]) == 2 * n
        assert len(bo[BondType.X]) == 2 * n - 1 and len(bc[BondType.X]) == 2 * n
        assert len(bo[BondType.Y]) == 2 * n - 1 and len(bc[BondType.Y]) == 2 * n
        for name, loop in cl.cycles.items():
            assert len(loop) == (2 * n if name == "big" else 4)


def gf2_rank(mat):
    m = np.array(mat, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        rows = np.nonzero(m[rank:, col])[0]
        if rows.size == 0:
            continue
        pivot = rank + rows[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.nonzero(m[:, col])[0]
        for r in hits:
            if r != rank:
                m[r] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def test_cycle_basis_is_independent_over_gf2():
    for n in (2, 3, 5):
        for bnd in ("open", "closed"):
            lad = build_ladder(n, bnd)
            col = {b.pair: k for k, b in enumerate(lad.bonds)}
            inc = np.zeros((len(lad.cycles), len(lad.bonds)), dtype=np.uint8)
            for r, loop in enumerate(lad.cycles.values()):
                for a, b in zip(loop, loop[1:] + loop[:1]):
                    inc[r, col[min(a, b), max(a, b)]] ^= 1
            assert gf2_rank(inc) == len(lad.cycles)
            # |bonds| - |sites| + 1 is the full cycle space; the basis spans it
            assert len(lad.cycles) == len(lad.bonds) - lad.n_sites + 1


def test_rail_and_column():
    lad = build_ladder(3, "open")
    assert [lad.rail(s) for s in range(1, 9)] == [0, 1, 1, 0, 0, 1, 1, 0]
    assert [lad.column(s) for s in range(1, 9)] == [1, 1, 2, 2, 3, 3, 4, 4]


def test_every_site_touches_one_bond_of_each_type():
    for n, bnd in ((3, "closed"), (4, "closed")):
        lad = build_ladder(n, bnd)
        touch = {s: set() for s in range(1, lad.n_sites + 1)}
        for b in lad.bonds:
            touch[b.i].add(b.kind)
            touch[b.j].add(b.kind)
        assert all(kinds == set(BondType) for kinds in touch.values())


def test_build_rejects_bad_cell_counts():
    for bad in (1, 0, -3, True, 2.0, "2"):
        with pytest.raises(InvalidSpecError):
            build_ladder(bad, "open")
    with pytest.raises(ValueError):
        build_ladder(2, "periodic")


def test_bond_orientation_is_canonical():
    with pytest.raises(InvalidSpecError):
        Bond(3, 2, BondType.X)
    with pytest.raises(InvalidSpecError):
        Bond(2, 2, BondType.X)
    lad = build_ladder(4, "closed")
    assert all(b.i < b.j for b in lad.bonds)
    assert list(lad.bonds) == sorted(lad.bonds)


def test_bond_between_rejects_non_bonds():
    lad = build_ladder(2, "open")
    assert lad.bond_between(4, 3).kind is BondType.Z
    with pytest.raises(InvalidLoopError):
        lad.bond_between(1, 3)


def test_reflection_horizontal_n2():
    lad = build_ladder(2, "open")
    theta = reflection(lad, "horizontal")
    assert theta == {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7}
    negative = negative_half(lad, "horizontal")
    assert negative == frozenset({1, 4, 5, 8})  # bottom rail holds site 1
    assert {b.pair for b in crossing_bonds(lad, negative)} == {(1, 2), (3, 4), (5, 6), (7, 8)}
    assert all(b.kind is BondType.Z for b in crossing_bonds(lad, negative))


def test_reflection_vertical_open_n2():
    lad = build_ladder(2, "open")
    theta = reflection(lad, ReflectionCase.VERTICAL_OPEN)
    assert theta == {1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}
    negative = negative_half(lad, "vertical-open")
    assert negative == frozenset({1, 2, 3, 4})
    assert {b.pair for b in crossing_bonds(lad, negative)} == {(4, 5), (3, 6)}


def test_reflection_vertical_closed_crosses_twice():
    lad = build_ladder(2, "closed")
    theta = reflection(lad, "vertical-closed")
    assert theta == {k: 9 - k for k in range(1, 9)}
    crossing = crossing_bonds(lad, negative_half(lad, "vertical-closed"))
    assert {b.pair for b in crossing} == {(4, 5), (3, 6), (1, 8), (2, 7)}


def test_reflection_case_boundary_compatibility():
    with pytest.raises(UnsupportedReflectionError):
        reflection(build_ladder(2, "closed"), "vertical-open")
    with pytest.raises(UnsupportedReflectionError):
        reflection(build_ladder(2, "open"), "vertical-closed")
    with pytest.raises(UnsupportedReflectionError):
        reflection(build_ladder(3, "closed"), "vertical-closed")  # odd N
    with pytest.raises(ValueError):
        reflection(build_ladder(2, "open"), "diagonal")


def test_reflection_preserves_bond_types():
    # vertical mirrors preserve types strictly; the rail swap trades x and y
    swap = {BondType.X: BondType.Y, BondType.Y: BondType.X, BondType.Z: BondType.Z}
    for n, bnd, case in (
        (2, "open", "vertical-open"),
        (5, "open", "vertical-open"),
        (4, "closed", "vertical-closed"),
        (6, "closed", "vertical-closed"),
    ):
        lad = build_ladder(n, bnd)
        theta = reflection(lad, case)
        for b in lad.bonds:
            assert lad.bond_between(theta[b.i], theta[b.j]).kind is b.kind
    for n, bnd in ((2, "open"), (3, "open"), (4, "closed"), (5, "closed")):
        lad = build_ladder(n, bnd)
        theta = reflection(lad, "horizontal")
        for b in lad.bonds:
            assert lad.bond_between(theta[b.i], theta[b.j]).kind is swap[b.kind]


def test_reflection_is_involution_exchanging_halves():
    for n, bnd, case in (
        (3, "open", "horizontal"),
        (3, "open", "vertical-open"),
        (4, "closed", "vertical-closed"),
    ):
        lad = build_ladder(n, bnd)
        theta = reflection(lad, case)
        negative = negative_half(lad, case)
        assert all(theta[theta[s]] == s for s in theta)
        assert all(theta[s] != s for s in theta)
        assert all((s in negative) != (theta[s] in negative) for s in theta)
        assert len(negative) == lad.n_sites // 2
