"""Named coupling families used by the batch tools and the examples.

The decaying-top families modulate only the rungs along the top rail: the
k-th top-rail bond (counting X and Y bonds together from the left) carries
its base strength times (1 + 1/k), so the modulation starts at a factor of
2 and flattens toward the homogeneous value.  Everything else (bottom rail,
vertical Z bonds) stays homogeneous.  This gives a family that is strongly
inhomogeneous near one end while staying uniformly bounded, which is the
regime where the big-loop gap decay is interesting to scan.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from .errors import InvalidSpecError
from .freefermion import CouplingConfig
from .lattice import Boundary, BondType, Ladder


class Preset(str, Enum):
    HOMOGENEOUS = "homogeneous-xyz"
    DECAYING_TOP_OPEN = "decaying-top-open"
    DECAYING_TOP_CLOSED = "decaying-top-closed"


def make_couplings(
    preset: Preset | str,
    ladder: Ladder,
    jx: float = 1.0,
    jy: float = 1.0,
    jz: float = 1.0,
) -> CouplingConfig:
    preset = Preset(preset)
    base: Mapping[BondType, float] = {BondType.X: jx, BondType.Y: jy, BondType.Z: jz}
    for kind, val in base.items():
        if not val > 0:
            raise InvalidSpecError(f"preset couplings must be positive; {kind.value}={val}")

    if preset is Preset.DECAYING_TOP_OPEN and ladder.boundary is not Boundary.OPEN:
        raise InvalidSpecError("decaying-top-open needs an open ladder")
    if preset is Preset.DECAYING_TOP_CLOSED and ladder.boundary is not Boundary.CLOSED:
        raise InvalidSpecError("decaying-top-closed needs a closed ladder")

    values = {bond.pair: base[bond.kind] for bond in ladder.bonds}
    if preset is not Preset.HOMOGENEOUS:
        # the k-th top-rail bond is the one bond of plaquette p_k with both
        # ends on the top rail; the big loop runs along the bottom rail
        for k, (pairs, _) in enumerate(ladder.cycle_bonds.values(), 1):
            for pair in pairs:
                if ladder.rail(pair[0]) == ladder.rail(pair[1]) == 1:
                    values[pair] *= 1.0 + 1.0 / k
    config = CouplingConfig(values)
    config.validate_for(ladder)
    return config
