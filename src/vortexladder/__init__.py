"""Numerical toolkit for Kitaev-type two-leg spin ladders.

Exact spin-chain diagonalization with integer Pauli-phase algebra,
free-fermion vortex-sector solvers, Z2 gauge bookkeeping, third-order
effective vortex-gap formulas, and reflection-positivity trace checks,
plus a batch CLI tying them together.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    GuardExceededError,
    InconsistentSectorError,
    InvalidLoopError,
    InvalidSpecError,
    LabelingError,
    MalformedMatrixError,
    UnsupportedReflectionError,
)
from .freefermion import (
    CouplingConfig,
    GapReport,
    ModeSpectrum,
    SkewAdjacency,
    SweepResult,
    assemble_skew,
    big_loop_gap,
    ground_energy,
    many_body_spectrum,
    mode_spectrum,
    parse_pattern,
    pattern_sector,
    sector_ground_energy,
    sector_sweep,
    sector_union_spectrum,
    twisted_wrap_gap,
)
from .gauge import (
    GaugeConfig,
    VortexSector,
    enumerate_sectors,
    gauge_for_sector,
    sector_from_id,
    sector_id,
    sector_of,
    vortex_value,
)
from .lattice import (
    Bond,
    BondType,
    Boundary,
    Ladder,
    ReflectionCase,
    ReflectionMap,
    build_ladder,
    reflection,
)
from .perturbation import (
    EffectiveResult,
    PerturbationSplit,
    PerturbationValidation,
    effective,
    effective_closed,
    effective_open,
    validate_against_ed,
)
from .presets import Preset, make_couplings
from .rp import (
    MajoranaPolynomial,
    MajoranaRep,
    doubled_hamiltonians,
    energy_inequality_check,
    fock_majoranas,
    mirror_theta,
    random_even_element,
    reflect,
    reflection_gram,
    rp_functional,
    trace_bound_check,
)
from .spin_ed import (
    PauliString,
    SpectrumComparison,
    SpectrumReport,
    SpinOperator,
    Tapering,
    block_spectrum,
    build_spin_hamiltonian,
    compare_spectra,
    cycle_operators,
    dedup_values,
    dense_spectrum,
    label_eigenstates,
    lowest_eigenvalues,
    sigma,
    taper,
    vortex_operator,
)

__version__ = "0.1.0"
