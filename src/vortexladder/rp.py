"""Reflection positivity checks in a Fock representation of Majoranas.

n Majorana generators c_1..c_n (n even) are the Jordan-Wigner strings
c_{2mu-1} = Z^{<mu} X_mu, c_{2mu} = -Z^{<mu} Y_mu of ``spin_ed`` on n/2 modes,
mode mu on bit n/2-1-mu.  The "negative" half of the system is indices 1..n/2
by convention; reflections are fixed-point-free involutions theta exchanging
the halves.

The reflection acts on polynomials antilinearly: coefficients conjugate,
indices map through theta, and monomials are re-sorted with the fermionic
sign.  That action is representation-independent, which is what makes the
trace functionals below well-defined; the concrete theta is never realized
as an (anti)unitary matrix here.

For even B = sum_a c_a m_a on the negative half, Tr(B theta(B) e^{-beta H})
is the quadratic form c K conj(c) of ``reflection_gram``'s K, which is built
from exact Pauli-string products and one table of e^{-beta H}.
``rp_functional`` multiplies the dense matrices out and is the oracle for K.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidSpecError, MalformedMatrixError
from .freefermion import SkewAdjacency, ground_energy, mode_spectrum
from .gauge import SignAssignment
from .spin_ed import PauliString, SpinOperator

MAX_FOCK_MAJORANAS = 16
SYMMETRY_TOL = 1e-10
GIBBS_EXPONENT_LIMIT = 600.0  # largest -beta * E in e^{-beta H}; see _gibbs_state


@dataclass(frozen=True)
class MajoranaRep:
    n: int
    strings: tuple[PauliString, ...]  # strings[j-1] is c_j
    matrices: tuple[np.ndarray, ...]  # matrices[j-1] represents c_j (read-only)

    @property
    def dim(self) -> int:
        return 1 << (self.n // 2)


@lru_cache(maxsize=None)
def fock_majoranas(n: int) -> MajoranaRep:
    """Hermitian anticommuting c_1..c_n with c_j^2 = 1 on 2^{n/2} dimensions."""
    if n % 2 or not (2 <= n <= MAX_FOCK_MAJORANAS):
        raise InvalidSpecError(f"need an even Majorana count in 2..{MAX_FOCK_MAJORANAS}, got {n}")
    modes = n // 2
    dim, idx = 1 << modes, np.arange(1 << modes)
    strings, mats = [], []
    for mu in range(modes):
        bit = 1 << (modes - 1 - mu)
        below = dim - 2 * bit  # the bits of the modes nu < mu
        odd, real = PauliString(bit, below), PauliString(bit, below | bit, 2)  # real = -i c_{2mu}
        strings += [odd, PauliString(bit, below | bit, 3)]
        # the signed zeros of the product-state construction: c_{2mu-1}[r, c] has the sign
        # (-1)^{|r & c & below|}, and 1j * real leaves -0.0 real parts where real < 0
        signs = np.where(np.bitwise_count(idx[:, None] & idx & below) & 1, -1.0, 1.0)
        odd_mat, real_mat = (SpinOperator(modes).add_string(ps).to_dense() for ps in (odd, real))
        mats += [np.copysign(odd_mat, signs), 1j * real_mat]
    for mat in mats:
        mat.flags.writeable = False  # cached: shared by every caller
    return MajoranaRep(n, tuple(strings), tuple(mats))


def negative_half(n: int) -> frozenset[int]:
    return frozenset(range(1, n // 2 + 1))


def mirror_theta(n: int) -> dict[int, int]:
    """The reference reflection i <-> n+1-i."""
    return {i: n + 1 - i for i in range(1, n + 1)}


def _check_theta(n: int, theta: Mapping[int, int]) -> None:
    neg = negative_half(n)
    if set(theta) != set(range(1, n + 1)):
        raise InvalidSpecError("theta must permute exactly the indices 1..n")
    for i, j in theta.items():
        if i == j or theta[j] != i:
            raise InvalidSpecError(f"theta is not a fixed-point-free involution at {i}")
        if (i in neg) == (j in neg):
            raise InvalidSpecError(f"theta must exchange the two halves (index {i})")


# ---------------------------------------------------------------------------
# polynomial algebra

def _merge_sign(seq: list[int]) -> tuple[tuple[int, ...], int]:
    """Canonically order a generator word; adjacent swaps cost -1, equal
    neighbors annihilate (c^2 = 1)."""
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    out: list[int] = []
    for v in seq:
        if out and out[-1] == v:
            out.pop()
        else:
            out.append(v)
    return tuple(out), sign


class MajoranaPolynomial:
    """Complex polynomial in c_1..c_n; monomials are strictly increasing
    index tuples, the empty tuple being the identity."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for mono, c in terms.items():
                self._accumulate(tuple(mono), complex(c))

    def _accumulate(self, mono: tuple[int, ...], c: complex) -> None:
        if any(not (1 <= v <= self.n) for v in mono):
            raise InvalidSpecError(f"monomial {mono} out of range 1..{self.n}")
        if any(a >= b for a, b in zip(mono, mono[1:])):
            raise InvalidSpecError(f"monomial {mono} must be strictly increasing")
        new = self.terms.get(mono, 0) + c
        if new == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "MajoranaPolynomial") -> "MajoranaPolynomial":
        out = MajoranaPolynomial(self.n, self.terms)
        for mono, c in other.terms.items():
            out._accumulate(mono, c)
        return out

    def __sub__(self, other: "MajoranaPolynomial") -> "MajoranaPolynomial":
        out = MajoranaPolynomial(self.n, self.terms)
        for mono, c in other.terms.items():
            out._accumulate(mono, -c)
        return out

    def __mul__(self, other):
        if isinstance(other, MajoranaPolynomial):
            out = MajoranaPolynomial(self.n)
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono, sign = _merge_sign(list(m1) + list(m2))
                    out._accumulate(mono, sign * c1 * c2)
            return out
        out = MajoranaPolynomial(self.n)
        for mono, c in self.terms.items():
            out._accumulate(mono, c * other)
        return out

    __rmul__ = __mul__

    @property
    def is_even(self) -> bool:
        return all(len(m) % 2 == 0 for m in self.terms)

    def support(self) -> frozenset[int]:
        return frozenset(v for m in self.terms for v in m)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def close_to(self, other: "MajoranaPolynomial", tol: float) -> bool:
        keys = set(self.terms) | set(other.terms)
        scale = max(1.0, self.max_abs_coeff(), other.max_abs_coeff())
        return all(
            abs(self.terms.get(k, 0) - other.terms.get(k, 0)) <= tol * scale for k in keys
        )

    def to_matrix(self) -> np.ndarray:
        """Dense matrix: each monomial's strings multiplied in index order, summed in term order."""
        strings = fock_majoranas(self.n).strings
        op = SpinOperator(self.n // 2)
        for mono, c in self.terms.items():
            op.add_string(_monomial_string(strings, mono), c)
        return np.asarray(op.to_dense(), dtype=complex)


def _monomial_string(strings: tuple[PauliString, ...], mono: tuple[int, ...]) -> PauliString:
    """The monomial's generator strings multiplied in index order."""
    ps = PauliString(0, 0)
    for v in mono:
        ps = ps * strings[v - 1]
    return ps


def quadratic(n: int, weights: Mapping[tuple[int, int], float]) -> MajoranaPolynomial:
    """H = sum_{i<j} w_ij * i c_i c_j as a polynomial (weights real)."""
    terms = {}
    for (i, j), w in weights.items():
        if not i < j:
            raise InvalidSpecError(f"weight key {(i, j)} must have i < j")
        terms[(i, j)] = 1j * float(w)
    return MajoranaPolynomial(n, terms)


def _reflect_any(poly: MajoranaPolynomial, theta: Mapping[int, int]) -> MajoranaPolynomial:
    out = MajoranaPolynomial(poly.n)
    for mono, c in poly.terms.items():
        mapped, sign = _merge_sign([theta[v] for v in mono])
        out._accumulate(mapped, sign * np.conj(c))
    return out


def reflect(poly: MajoranaPolynomial, theta: Mapping[int, int]) -> MajoranaPolynomial:
    """Antilinear reflection of a one-sided polynomial across theta."""
    _check_theta(poly.n, theta)
    neg = negative_half(poly.n)
    sup = poly.support()
    if not (sup <= neg or sup.isdisjoint(neg)):
        raise InvalidSpecError("polynomial support straddles the reflection")
    return _reflect_any(poly, theta)


def split_by_side(poly: MajoranaPolynomial) -> tuple[MajoranaPolynomial, ...]:
    """(negative-only, straddling, positive-only) parts of a polynomial."""
    neg = negative_half(poly.n)
    parts = [MajoranaPolynomial(poly.n) for _ in range(3)]
    for mono, c in poly.terms.items():
        inside = set(mono) <= neg
        outside = neg.isdisjoint(mono) and mono != ()
        idx = 0 if (inside and mono != ()) else (2 if outside else 1)
        parts[idx]._accumulate(mono, c)
    return tuple(parts)


# ---------------------------------------------------------------------------
# functionals and checks

def _hermitian_matrix(h: MajoranaPolynomial) -> np.ndarray:
    mat = h.to_matrix()
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if np.abs(mat - mat.conj().T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise MalformedMatrixError("Hamiltonian is not Hermitian in the Fock representation")
    return mat


@lru_cache(maxsize=32)
def _gibbs_state(n: int, terms: tuple, beta: float) -> np.ndarray:
    """e^{-beta H} from the unshifted eigenvalues w of H.

    Raises InvalidSpecError when the largest exponent -beta w exceeds
    GIBBS_EXPONENT_LIMIT = 600, below log(finfo(float64).max) ~ 709.8.  The
    110 e-folds left (e^110 ~ 6e47) cover the sums that the trace, the Gram
    matrix and the functional take over at most 256 basis states and 128
    monomials with coefficients of order one.  Shifting by the ground energy
    would lift the bound but change every value computed from the state.
    """
    w, v = np.linalg.eigh(_hermitian_matrix(MajoranaPolynomial(n, dict(terms))))
    exponent = -beta * w
    if exponent.max() > GIBBS_EXPONENT_LIMIT:
        raise InvalidSpecError(
            f"beta = {beta} puts e^{exponent.max():.4g} in e^(-beta H), over the e^{GIBBS_EXPONENT_LIMIT:g} limit"
        )
    state = (v * np.exp(exponent)) @ v.conj().T
    state.flags.writeable = False
    return state


def _gibbs(h: MajoranaPolynomial, beta: float) -> np.ndarray:
    """e^{-beta H}, once per exact (H, beta): the key is the ordered term list, and
    coefficients hold no signed zero (``_accumulate`` adds them to 0)."""
    return _gibbs_state(h.n, tuple(h.terms.items()), beta)


def rp_functional(
    B: MajoranaPolynomial,
    H: MajoranaPolynomial,
    theta: Mapping[int, int],
    beta: float = 1.0,
) -> float:
    """Tr(B theta(B) e^{-beta H}) for even one-sided B and symmetric H."""
    if B.n != H.n:
        raise InvalidSpecError("B and H must live on the same Majorana count")
    if not B.is_even:
        raise InvalidSpecError("B must be an even element")
    refl_b = reflect(B, theta)  # validates theta and one-sided support
    if not _reflect_any(H, theta).close_to(H, SYMMETRY_TOL):
        raise InvalidSpecError("H is not reflection-symmetric under theta")
    val = complex(np.trace(B.to_matrix() @ refl_b.to_matrix() @ _gibbs(H, beta)))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise MalformedMatrixError(f"trace functional came out non-real: {val}")
    return float(val.real)


def reflection_gram(
    H: MajoranaPolynomial,
    theta: Mapping[int, int],
    beta: float = 1.0,
    max_degree: int = 4,
) -> np.ndarray:
    """K_ab = Tr(m_a theta(m_b) e^{-beta H}) over the monomials m_a of
    ``even_monomials(negative_half(n), max_degree)``, in that order.

    For B = sum_a c_a m_a, ``rp_functional(B, H, theta, beta)`` is c K conj(c).
    Each m_a theta(m_b) is one signed Pauli string i^p X^x Z^z, and
    Tr(X^x Z^z G) = sum_u G[u, u ^ x] (-1)^{|z & u|} comes from one table of G;
    no monomial is made a matrix.
    """
    _check_theta(H.n, theta)
    if max_degree < 0:
        raise InvalidSpecError(f"max_degree must be >= 0, got {max_degree}")
    if not _reflect_any(H, theta).close_to(H, SYMMETRY_TOL):
        raise InvalidSpecError("H is not reflection-symmetric under theta")
    state = _gibbs(H, beta)
    u = np.arange(state.shape[0])
    walsh = 1.0 - 2.0 * (np.bitwise_count(u[:, None] & u) & 1)
    table = state[u, u[:, None] ^ u] @ walsh  # table[x, z] = Tr(X^x Z^z G)

    strings = fock_majoranas(H.n).strings
    monos = even_monomials(negative_half(H.n), max_degree)
    reflected = []
    for m in monos:
        mapped, sign = _merge_sign([theta[v] for v in m])
        reflected.append((_monomial_string(strings, mapped), sign))
    x, z = (np.empty((len(monos), len(monos)), dtype=np.int64) for _ in range(2))
    factor = np.empty(x.shape, dtype=complex)
    for a, m in enumerate(monos):
        left = _monomial_string(strings, m)
        for b, (right, sign) in enumerate(reflected):
            prod = left * right
            x[a, b], z[a, b], factor[a, b] = prod.x_mask, prod.z_mask, sign * prod.phase
    gram = factor * table[x, z]
    scale = max(1.0, float(np.abs(gram).max()))
    if np.abs(gram - gram.conj().T).max() > SYMMETRY_TOL * scale:
        raise MalformedMatrixError("reflection Gram matrix is not Hermitian")
    return gram


def fix_cross_signs(
    H: MajoranaPolynomial, theta: Mapping[int, int]
) -> tuple[MajoranaPolynomial, SignAssignment]:
    """Flip generators on the negative half so every cross coupling w in
    w * i c_i c_theta(i) comes out positive.  Loop/vortex data is unchanged
    (the flip is a local Z2 transformation)."""
    _check_theta(H.n, theta)
    neg = sorted(negative_half(H.n))
    flips: dict[int, int] = {}
    for i in neg:
        j = theta[i]  # always > i: the halves are {1..n/2} and the rest
        c = H.terms.get((i, j), 0)
        w = complex(c / 1j)
        if abs(w) == 0:
            raise InvalidSpecError(f"zero cross coupling on ({i},{j}); cannot fix")
        if abs(w.imag) > 1e-12 * abs(w):
            raise InvalidSpecError(f"cross coupling on ({i},{j}) is not of the form i*w")
        flips[i] = -1 if w.real < 0 else 1
    assignment = SignAssignment({i: flips.get(i, 1) for i in range(1, H.n + 1)})
    fixed = MajoranaPolynomial(H.n)
    for mono, c in H.terms.items():
        s = 1
        for v in mono:
            s *= assignment(v)
        fixed._accumulate(mono, s * c)
    return fixed, assignment


def doubled_hamiltonians(
    h_minus: MajoranaPolynomial,
    h_zero: MajoranaPolynomial,
    h_plus: MajoranaPolynomial,
    theta: Mapping[int, int],
) -> tuple[MajoranaPolynomial, MajoranaPolynomial]:
    """Symmetrized pair (H1, H2) = (H- + H0 + theta(H-), theta(H+) + H0 + H+)."""
    _check_theta(h_minus.n, theta)
    h1 = h_minus + h_zero + _reflect_any(h_minus, theta)
    h2 = _reflect_any(h_plus, theta) + h_zero + h_plus
    for tag, h in (("H1", h1), ("H2", h2)):
        if not _reflect_any(h, theta).close_to(h, 1e-12):
            raise InvalidSpecError(f"{tag} is not reflection-symmetric; check H0")
    return h1, h2


@dataclass(frozen=True)
class TraceBoundReport:
    beta: float
    lhs: float          # Tr e^{-beta H}
    rhs: float          # sqrt(Tr e^{-beta H1}) sqrt(Tr e^{-beta H2})
    margin: float       # lhs - rhs; holds when <= 1e-8 * rhs

    @property
    def holds(self) -> bool:
        return self.margin <= 1e-8 * self.rhs


def trace_bound_check(
    H: MajoranaPolynomial,
    H1: MajoranaPolynomial,
    H2: MajoranaPolynomial,
    beta: float = 1.0,
) -> TraceBoundReport:
    lhs, t1, t2 = (float(np.trace(_gibbs(h, beta)).real) for h in (H, H1, H2))
    rhs = float(np.sqrt(t1) * np.sqrt(t2))
    return TraceBoundReport(beta, lhs, rhs, lhs - rhs)


@dataclass(frozen=True)
class EnergyInequalityReport:
    e0: float
    e0_1: float
    e0_2: float
    tol: float

    @property
    def gap(self) -> float:
        return self.e0 - (self.e0_1 + self.e0_2) / 2

    @property
    def holds(self) -> bool:
        return self.e0 <= self.tol and self.gap >= -self.tol


def _ground_state_energy(h: MajoranaPolynomial) -> float:
    return float(np.linalg.eigvalsh(_hermitian_matrix(h))[0])


def energy_inequality_check(
    H: MajoranaPolynomial,
    H1: MajoranaPolynomial,
    H2: MajoranaPolynomial,
    tol: float = 1e-9,
) -> EnergyInequalityReport:
    """0 >= E0(H) >= (E0(H1) + E0(H2))/2 within tol.  Quadratic H is also
    cross-checked against the antisymmetric-matrix mode solver."""
    e0 = _ground_state_energy(H)
    report = EnergyInequalityReport(e0, _ground_state_energy(H1), _ground_state_energy(H2), tol)
    if H.terms and all(len(m) == 2 for m in H.terms):
        a = np.zeros((H.n, H.n))
        for (i, j), c in H.terms.items():
            w = complex(c / 1j)
            if abs(w.imag) > 1e-12 * max(1.0, abs(w)):
                return report  # not of the i*w*c_i*c_j form; skip the cross-check
            a[i - 1, j - 1] = w.real
            a[j - 1, i - 1] = -w.real
        modes_e0 = ground_energy(mode_spectrum(SkewAdjacency(a)))
        if abs(modes_e0 - e0) > 1e-10 * max(1.0, abs(e0)):
            raise MalformedMatrixError(
                f"quadratic cross-check failed: modes {modes_e0} vs Fock {e0}"
            )
    return report


# ---------------------------------------------------------------------------
# sampling helpers

def even_monomials(indices: Iterable[int], max_degree: int = 4) -> list[tuple[int, ...]]:
    idx = sorted(indices)
    return [mono for deg in range(0, max_degree + 1, 2) for mono in combinations(idx, deg)]


def random_even_element(rng: np.random.Generator, n: int, max_degree: int = 4) -> MajoranaPolynomial:
    """Even polynomial supported on the negative half, uniform complex coefficients."""
    terms = {
        mono: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for mono in even_monomials(negative_half(n), max_degree)
    }
    return MajoranaPolynomial(n, terms)
