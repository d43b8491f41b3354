"""Coupling presets: homogeneous family and the decaying-top-rail families."""

import pytest

from vortexladder.errors import InvalidSpecError
from vortexladder.lattice import Boundary, BondType, ReflectionCase, build_ladder, reflection
from vortexladder.presets import Preset, make_couplings


def test_homogeneous_assigns_by_bond_type():
    for boundary in (Boundary.OPEN, Boundary.CLOSED):
        lad = build_ladder(3, boundary)
        cfg = make_couplings(Preset.HOMOGENEOUS, lad, jx=1.1, jy=0.7, jz=1.3)
        base = {BondType.X: 1.1, BondType.Y: 0.7, BondType.Z: 1.3}
        assert set(cfg.values) == {b.pair for b in lad.bonds}
        for b in lad.bonds:
            assert cfg[b.pair] == base[b.kind]


def test_decaying_top_open_frozen_values():
    lad = build_ladder(4, Boundary.OPEN)
    cfg = make_couplings("decaying-top-open", lad, jx=1.1, jy=0.7, jz=1.3)
    assert cfg[(2, 3)] == 2 * 1.1  # leftmost top bond doubled
    assert cfg[(3, 6)] == 1.5 * 0.7
    assert cfg[(6, 7)] == (1 + 1 / 3) * 1.1
    assert cfg[(14, 15)] == (1 + 1 / 7) * 1.1  # last cell top
    assert cfg[(11, 14)] == (1 + 1 / 6) * 0.7  # last junction top
    # bottom rail and rungs stay at their base strengths
    assert cfg[(1, 4)] == 0.7 and cfg[(4, 5)] == 1.1
    assert all(cfg[(2 * j - 1, 2 * j)] == 1.3 for j in range(1, 9))


def test_decaying_top_closed_includes_closing_bond():
    n = 3
    lad = build_ladder(n, Boundary.CLOSED)
    cfg = make_couplings(Preset.DECAYING_TOP_CLOSED, lad, jx=1.0, jy=1.0, jz=1.0)
    assert cfg[(2, 4 * n - 1)] == 1 + 1 / (2 * n)  # closing top Y is the 2N-th top bond
    assert cfg[(1, 4 * n)] == 1.0  # closing X runs along the bottom rail
    assert cfg[(2, 3)] == 2.0


def test_top_rail_factors_follow_position():
    for n in range(2, 13):
        for boundary, preset in ((Boundary.OPEN, Preset.DECAYING_TOP_OPEN),
                                 (Boundary.CLOSED, Preset.DECAYING_TOP_CLOSED)):
            lad = build_ladder(n, boundary)
            cfg = make_couplings(preset, lad, jx=1.0, jy=1.0, jz=1.0)
            modulated = {pair: v for pair, v in cfg.values.items() if v != 1.0}
            expected = {}
            for m in range(1, n + 1):  # top edge of cell m
                expected[(4 * m - 2, 4 * m - 1)] = 1 + 1 / (2 * m - 1)
            for m in range(1, n):  # top edge of the square after cell m
                expected[(4 * m - 1, 4 * m + 2)] = 1 + 1 / (2 * m)
            if boundary is Boundary.CLOSED:  # closing y bond of the ring
                expected[(2, 4 * n - 1)] = 1 + 1 / (2 * n)
            assert modulated == expected, (n, boundary)


def test_boundary_mismatch_rejected():
    with pytest.raises(InvalidSpecError):
        make_couplings(Preset.DECAYING_TOP_OPEN, build_ladder(2, Boundary.CLOSED))
    with pytest.raises(InvalidSpecError):
        make_couplings(Preset.DECAYING_TOP_CLOSED, build_ladder(2, Boundary.OPEN))


def test_positive_base_strengths_required():
    lad = build_ladder(2, Boundary.OPEN)
    with pytest.raises(InvalidSpecError):
        make_couplings(Preset.HOMOGENEOUS, lad, jx=0.0)
    with pytest.raises(InvalidSpecError):
        make_couplings(Preset.DECAYING_TOP_OPEN, lad, jy=-0.5)


def test_preset_name_round_trip():
    lad = build_ladder(2, Boundary.OPEN)
    by_name = make_couplings("homogeneous-xyz", lad, jx=0.9, jy=0.8, jz=0.7)
    by_enum = make_couplings(Preset.HOMOGENEOUS, lad, jx=0.9, jy=0.8, jz=0.7)
    assert by_name.values == by_enum.values
    with pytest.raises(ValueError):
        make_couplings("bogus-preset", lad)


def test_homogeneous_invariant_under_vertical_reflection():
    lad = build_ladder(4, Boundary.OPEN)
    theta = reflection(lad, ReflectionCase.VERTICAL_OPEN)
    hom = make_couplings(Preset.HOMOGENEOUS, lad, jx=1.1, jy=0.7, jz=1.3)
    assert all(
        hom[pair] == hom[tuple(sorted((theta[pair[0]], theta[pair[1]])))]
        for pair in hom.values
    )
    dec = make_couplings(Preset.DECAYING_TOP_OPEN, lad, jx=1.1, jy=0.7, jz=1.3)
    assert any(
        dec[pair] != dec[tuple(sorted((theta[pair[0]], theta[pair[1]])))]
        for pair in dec.values
    )
