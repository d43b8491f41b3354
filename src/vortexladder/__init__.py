"""Numerical toolkit for Kitaev-type two-leg spin ladders.

Exact spin-chain diagonalization with integer Pauli-phase algebra,
free-fermion vortex-sector solvers, Z2 gauge bookkeeping, third-order
effective vortex-gap formulas, and reflection-positivity trace checks,
plus a batch CLI tying them together.

The names below are resolved on first access (PEP 562), so importing the
package loads neither numpy nor a submodule.  The CLI relies on this: it
must be the first module to import numpy to start numpy's OpenBLAS on one
thread (see ``cli``).
"""

import importlib

_SUBMODULE_EXPORTS = {
    "errors": (
        "ConfigError",
        "ConvergenceError",
        "GuardExceededError",
        "InconsistentSectorError",
        "InvalidLoopError",
        "InvalidSpecError",
        "LabelingError",
        "MalformedMatrixError",
        "UnsupportedReflectionError",
    ),
    "freefermion": (
        "CouplingConfig",
        "GapReport",
        "SkewAdjacency",
        "SweepResult",
        "assemble_skew",
        "big_loop_gap",
        "ground_energy",
        "many_body_spectrum",
        "mode_spectrum",
        "parse_pattern",
        "pattern_sector",
        "sector_ground_energy",
        "sector_sweep",
        "sector_union_spectrum",
        "twisted_wrap_gap",
    ),
    "gauge": (
        "GaugeConfig",
        "VortexSector",
        "enumerate_sectors",
        "gauge_for_sector",
        "sector_from_id",
        "sector_id",
        "sector_of",
        "vortex_value",
    ),
    "lattice": (
        "Bond",
        "BondType",
        "Boundary",
        "Ladder",
        "ReflectionCase",
        "build_ladder",
        "reflection",
    ),
    "perturbation": (
        "EffectiveResult",
        "PerturbationSplit",
        "PerturbationValidation",
        "effective",
        "validate_against_ed",
    ),
    "presets": ("Preset", "make_couplings"),
    "rp": (
        "MajoranaPolynomial",
        "MajoranaRep",
        "doubled_hamiltonians",
        "energy_inequality_check",
        "fock_majoranas",
        "mirror_theta",
        "random_even_element",
        "reflect",
        "reflection_gram",
        "rp_functional",
        "trace_bound_check",
    ),
    "spin_ed": (
        "PauliString",
        "SpectrumComparison",
        "SpectrumReport",
        "SpinOperator",
        "Tapering",
        "block_spectrum",
        "build_spin_hamiltonian",
        "compare_spectra",
        "cycle_operators",
        "dedup_values",
        "dense_spectrum",
        "label_eigenstates",
        "lowest_eigenvalues",
        "sigma",
        "taper",
        "vortex_operator",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
