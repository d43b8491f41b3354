"""Third-order effective energetics and the ED cross-validation.

The N=2 open ladder is used for cheap mechanical checks, but note that the
printed gap formulas do not describe its subspace minima: at two cells extra
third-order processes split the labeled blocks, so the minimum gaps differ
from the formulas by a constant factor (measured exact/formula ~ 5.0 on the
outer plaquettes, ~ 9.1 on the middle one, independent of t).  The pure
cubic scaling of the gaps is the N=2 statement worth pinning; formula
convergence is asserted at N >= 3.
"""

import numpy as np
import pytest

from vortexladder.errors import GuardExceededError, InvalidSpecError
from vortexladder.lattice import BondType, build_ladder
from vortexladder.perturbation import (
    RATIO_GUARD,
    PerturbationSplit,
    effective,
    validate_against_ed,
)


def test_open_formula_frozen_nonuniform():
    lad = build_ladder(2, "open")
    jz = {(1, 2): 0.01, (3, 4): 0.02, (5, 6): 0.03, (7, 8): 0.04}
    jy = {(1, 4): 0.05, (3, 6): 0.06, (5, 8): 0.07}
    split = PerturbationSplit(1.0, jy, jz)
    res = effective(lad, split)
    assert res.e0 == -3.0
    # z^2 sum 30e-4, y^2 sum 110e-4, boundary double counts 91e-4
    assert res.e2 == pytest.approx(-0.005775, rel=1e-12)
    assert res.gaps["p1"] == pytest.approx(0.01 * 0.02 * 0.05, rel=1e-12)
    assert res.gaps["p2"] == pytest.approx(0.02 * 0.03 * 0.06 / 4, rel=1e-12)
    assert res.gaps["p3"] == pytest.approx(0.03 * 0.04 * 0.07, rel=1e-12)


def test_closed_formula_frozen_uniform():
    ring = build_ladder(3, "closed")
    split = PerturbationSplit.from_uniform(ring, 2.0, 0.1)
    res = effective(ring, split)
    assert res.e0 == -12.0
    assert res.e2 == pytest.approx(-0.015, rel=1e-12)  # 12 t^2 / (4 jx)
    assert set(res.gaps) == {"p1", "p2", "p3", "p4", "p5"}  # p6 absent as printed
    for gap in res.gaps.values():
        assert gap == pytest.approx(0.1**3 / 16, rel=1e-12)


def _rung(j):
    """The j-th z rung from the left, as the formulas number the sites."""
    return (2 * j - 1, 2 * j)


def _y_bond(lad, m):
    """The y bond of plaquette p_m, as the formulas number the sites."""
    if m == 2 * lad.n_cells:
        return (2, 4 * lad.n_cells - 1)  # closing y bond of a ring
    return (2 * m - 1, 2 * m + 2)


def _printed_open(lad, split):
    """The open-ladder formulas as printed, one expression per term."""
    N, jx, jy, jz = lad.n_cells, split.jx, split.jy, split.jz
    e0 = -jx * (2 * N - 1)
    bracket = sum(jy[_y_bond(lad, m)] ** 2 for m in range(1, 2 * N))
    bracket += sum(jz[_rung(j)] ** 2 for j in range(1, 2 * N + 1))
    bracket += jy[_y_bond(lad, 1)] ** 2 + jy[_y_bond(lad, 2 * N - 1)] ** 2
    bracket += jz[_rung(1)] ** 2 + jz[_rung(2 * N)] ** 2
    gaps = {}
    for k in range(1, 2 * N):
        prod = jz[_rung(k)] * jy[_y_bond(lad, k)] * jz[_rung(k + 1)]
        gaps[f"p{k}"] = prod / jx**2 if k in (1, 2 * N - 1) else prod / (4 * jx**2)
    return e0, -bracket / (4 * jx), gaps


def _printed_closed(ring, split):
    """The closed-ladder formulas as printed: no p_{2N} gap."""
    N, jx, jy, jz = ring.n_cells, split.jx, split.jy, split.jz
    e0 = -jx * 2 * N
    bracket = sum(jy[_y_bond(ring, m)] ** 2 for m in range(1, 2 * N))
    bracket += sum(jz[_rung(j)] ** 2 for j in range(1, 2 * N + 1))
    bracket += jy[_y_bond(ring, 2 * N)] ** 2
    gaps = {}
    for k in range(1, 2 * N):
        prod = jz[_rung(k)] * jy[_y_bond(ring, k)] * jz[_rung(k + 1)]
        gaps[f"p{k}"] = prod / (4 * jx**2)
    return e0, -bracket / (4 * jx), gaps


@pytest.mark.parametrize("boundary, cells", [("open", 2), ("open", 3), ("open", 4),
                                             ("closed", 3), ("closed", 4)])
def test_effective_is_the_printed_formula_bit_for_bit(boundary, cells):
    lad = build_ladder(cells, boundary)
    printed = _printed_open if boundary == "open" else _printed_closed
    rng = np.random.default_rng(60 + cells)
    for _ in range(20):
        jx = float(rng.uniform(0.5, 2.0))
        weak = {b.pair: float(rng.uniform(0.0, RATIO_GUARD * jx)) for b in lad.bonds}
        split = PerturbationSplit(
            jx,
            {pair: w for pair, w in weak.items() if lad.bond_map[pair].kind is BondType.Y},
            {pair: w for pair, w in weak.items() if lad.bond_map[pair].kind is BondType.Z},
        )
        res = effective(lad, split)
        e0, e2, gaps = printed(lad, split)
        assert res.e0 == e0 and res.e2 == e2
        assert list(res.gaps) == list(gaps)
        assert all(res.gaps[name] == gap for name, gap in gaps.items())


def test_boundary_dispatch_and_small_ring_guard():
    lad = build_ladder(3, "open")
    ring = build_ladder(3, "closed")
    assert effective(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.05)).e0 == -5.0
    assert effective(ring, PerturbationSplit.from_uniform(ring, 1.0, 0.05)).e0 == -6.0
    small = build_ladder(2, "closed")
    with pytest.raises(InvalidSpecError):
        effective(small, PerturbationSplit.from_uniform(small, 1.0, 0.05))  # N > 2 assumed


def test_exact_quadratic_and_cubic_scaling_of_formulas():
    lad = build_ladder(3, "open")
    a = effective(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.08))
    b = effective(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.04))
    # powers of two make the algebraic scaling exact in floating point
    assert b.e2 * 4 == a.e2
    for name in a.gaps:
        assert b.gaps[name] * 8 == a.gaps[name]


def test_split_construction_and_guards():
    lad = build_ladder(2, "open")
    split = PerturbationSplit.from_uniform(lad, 1.0, 0.04)
    assert split.scale() == pytest.approx(0.04)
    cc = split.to_couplings(lad)
    cc.validate_for(lad)
    want = {BondType.X: 1.0, BondType.Y: 0.04, BondType.Z: 0.04}
    assert all(cc[b.pair] == want[b.kind] for b in lad.bonds)

    with pytest.raises(GuardExceededError):
        PerturbationSplit.from_uniform(lad, 1.0, 0.2).validate_for(lad)
    PerturbationSplit.from_uniform(lad, 2.0, 2.0 * RATIO_GUARD).validate_for(lad)  # at the ceiling
    jy = {b.pair: 0.01 for b in lad.bonds if b.kind is BondType.Y}
    jz = {b.pair: -0.01 for b in lad.bonds if b.kind is BondType.Z}
    with pytest.raises(InvalidSpecError):
        PerturbationSplit(1.0, jy, jz).validate_for(lad)  # negative weak coupling
    with pytest.raises(InvalidSpecError):
        PerturbationSplit(0.0, jy, {k: 0.01 for k in jz}).validate_for(lad)


def test_validation_rows_open_n2():
    lad = build_ladder(2, "open")
    split = PerturbationSplit.from_uniform(lad, 1.0, 0.04)
    val = validate_against_ed(lad, split)
    assert [r.plaquette for r in val.rows] == ["p1", "p2", "p3"]
    res = effective(lad, split)
    for r in val.rows:
        assert r.delta_e_formula == pytest.approx(res.gaps[r.plaquette], rel=1e-12)
        assert r.delta_e_exact > 0
        assert r.abs_err == pytest.approx(abs(r.delta_e_exact - r.delta_e_formula))
        assert r.rel_err == pytest.approx(r.abs_err / r.delta_e_exact)
    # mirror symmetry of the uniform ladder
    assert val.rows[0].delta_e_exact == pytest.approx(val.rows[2].delta_e_exact, rel=1e-9)


def test_validation_zero_coupling_gaps_vanish():
    lad = build_ladder(2, "open")
    split = PerturbationSplit.from_uniform(lad, 1.0, 0.0)
    val = validate_against_ed(lad, split)
    assert val.e_free_exact == pytest.approx(-3.0, abs=1e-12)
    for r in val.rows:
        assert r.delta_e_formula == 0.0
        assert abs(r.delta_e_exact) < 1e-12
    assert val.rows[0].delta_e_exact == 0.0 and val.rows[0].rel_err is None

    # jz = 0 leaves every flipped sector degenerate with the free one: each
    # exact gap is exactly zero, and a zero gap has no relative error
    lad = build_ladder(3, "open")
    jy = {b.pair: 0.01 for b in lad.bonds if b.kind is BondType.Y}
    jz = {b.pair: 0.0 for b in lad.bonds if b.kind is BondType.Z}
    val = validate_against_ed(lad, PerturbationSplit(1.0, jy, jz))
    for r in val.rows:
        assert r.delta_e_formula == 0.0 and r.delta_e_exact == 0.0
        assert r.abs_err == 0.0 and r.rel_err is None


def test_minimum_gaps_scale_cubically_at_n2():
    lad = build_ladder(2, "open")
    va = validate_against_ed(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.02))
    vb = validate_against_ed(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.01))
    for a, b in zip(va.rows, vb.rows, strict=True):
        ratio = b.delta_e_exact / a.delta_e_exact
        assert abs(ratio - 0.125) < 0.0125  # within 10% of the cubic law


def test_formula_error_shrinks_faster_than_cubic_at_n3():
    lad = build_ladder(3, "open")
    va = validate_against_ed(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.02))
    vb = validate_against_ed(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.01))
    assert [r.plaquette for r in vb.rows] == ["p1", "p2", "p3", "p4", "p5"]
    for a, b in zip(va.rows, vb.rows, strict=True):
        assert b.abs_err < 0.125 * a.abs_err
        assert b.rel_err < a.rel_err


def test_validation_closed_ring_reports_unmatched_plaquette():
    ring = build_ladder(3, "closed")
    split = PerturbationSplit.from_uniform(ring, 1.0, 0.04)
    val = validate_against_ed(ring, split)
    assert [r.plaquette for r in val.rows] == ["p1", "p2", "p3", "p4", "p5", "p6"]
    p6 = val.rows[5]
    assert p6.delta_e_formula is None and p6.abs_err is None and p6.rel_err is None
    assert p6.delta_e_exact > 0  # the gap exists; only the printed formula is missing
    # ring symmetry: all six measured single-flip gaps agree
    exact = [r.delta_e_exact for r in val.rows]
    assert max(exact) - min(exact) < 1e-9 * max(exact) + 1e-15


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_validation_solves_only_the_reported_blocks(monkeypatch, boundary):
    from vortexladder import spin_ed

    calls = {"dense_spectrum": 0, "dense_lowest": 0}

    def counted(name):
        original = getattr(spin_ed, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(spin_ed, name, counted(name))
    lad = build_ladder(3, boundary)
    val = validate_against_ed(lad, PerturbationSplit.from_uniform(lad, 1.0, 0.02))
    # the free block plus one single-flip block per plaquette
    assert calls == {"dense_spectrum": 0, "dense_lowest": 1 + len(val.rows)}


def test_validation_guards():
    wide = build_ladder(5, "open")  # 20 spins
    with pytest.raises(GuardExceededError):
        validate_against_ed(wide, PerturbationSplit.from_uniform(wide, 1.0, 0.02))
    ring = build_ladder(2, "closed")
    with pytest.raises(InvalidSpecError):
        validate_against_ed(ring, PerturbationSplit.from_uniform(ring, 1.0, 0.02))


def test_sixteen_spins_take_the_tapered_blocks():
    # Open ladders: every spin sector's ground energy is its free-fermion
    # sector ground energy (the paper's exact method i), an independent
    # reference for the tapered 16-spin route.
    from vortexladder.freefermion import pattern_sector, sector_ground_energy

    lad = build_ladder(4, "open")
    split = PerturbationSplit.from_uniform(lad, 1.0, 0.04)
    val = validate_against_ed(lad, split)
    couplings = split.to_couplings(lad)
    free = sector_ground_energy(lad, couplings, pattern_sector(lad, {}))
    assert val.e_free_exact == pytest.approx(free, abs=1e-12)  # measured 8.9e-16
    assert [r.plaquette for r in val.rows] == [f"p{k}" for k in range(1, 8)]
    for r in val.rows:
        flipped = sector_ground_energy(lad, couplings, pattern_sector(lad, {r.plaquette: -1}))
        assert r.delta_e_exact == pytest.approx(flipped - free, abs=1e-12)  # measured 2.7e-15

    ring = build_ladder(4, "closed")
    val = validate_against_ed(ring, PerturbationSplit.from_uniform(ring, 1.0, 0.04))
    exact = [r.delta_e_exact for r in val.rows]
    assert len(exact) == 8
    # ring symmetry: each gap is a difference of two energies near -8, so
    # the eight agree to the rounding of those energies (measured 1 ulp)
    assert max(exact) - min(exact) <= 8 * np.spacing(abs(val.e_free_exact))
