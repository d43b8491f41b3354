"""Exact diagonalization of the ladder spin model.

Operators are sums of Pauli strings.  A string is stored as
(x_mask, z_mask, phase_pow) representing i^phase_pow * X^x * Z^z with
sigma_y = i X Z, so products of strings are exact: the phase exponent is
integer arithmetic mod 4 ((X^a Z^b)(X^c Z^d) picks up (-1)^{|b & c|}) and
coefficient cancellations involve identical floats.  Algebraic identities
(loop operators squaring to the identity, commuting with the Hamiltonian)
therefore hold exactly, not just numerically.

Basis convention for matrices: computational z-basis, bit k-1 of the basis
index set <=> sigma^z on site k equals -1.

Up to 12 spins ``to_dense`` builds the full matrix.  Up to 20 spins
``compiled`` builds one CSR matrix with one entry per term per row, in
term order (12 bytes per term per row, 20 for complex operators; about
377 MB for a 30-term operator on 20 spins).  Its products are the same
sums of the same products, added in the same order, as applying the terms
one by one (see ``_CompiledOperator`` for the one exception), so Lanczos,
labels and lifts do not depend on the storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    GuardExceededError,
    InvalidLoopError,
    InvalidSpecError,
    LabelingError,
    MalformedMatrixError,
)
from .freefermion import CouplingConfig
from .lattice import BondType, Ladder

MAX_DENSE_SPINS = 12   # dense path guard: 2^12 = 4096
MAX_ITER_SPINS = 20    # compiled (sparse) path guard
MAX_ITER_K = 64
RESIDUAL_TOL = 1e-8

_PHASE = (1.0, 1j, -1.0, -1j)  # i**k
_SQRT_HALF = 0.5 ** 0.5


@dataclass(frozen=True)
class PauliString:
    x_mask: int
    z_mask: int
    phase_pow: int = 0  # power of i, mod 4

    def __post_init__(self):
        object.__setattr__(self, "phase_pow", self.phase_pow % 4)

    def __mul__(self, other: "PauliString") -> "PauliString":
        swaps = (self.z_mask & other.x_mask).bit_count() & 1
        return PauliString(
            self.x_mask ^ other.x_mask,
            self.z_mask ^ other.z_mask,
            self.phase_pow + other.phase_pow + 2 * swaps,
        )

    def dagger(self) -> "PauliString":
        overlap = (self.x_mask & self.z_mask).bit_count() & 1
        return PauliString(self.x_mask, self.z_mask, -self.phase_pow + 2 * overlap)

    @property
    def phase(self) -> complex:
        return _PHASE[self.phase_pow]

    def commutes_with(self, other: "PauliString") -> bool:
        a = (self.x_mask & other.z_mask).bit_count()
        b = (self.z_mask & other.x_mask).bit_count()
        return (a + b) % 2 == 0


def sigma(kind: BondType | str, site: int) -> PauliString:
    bit = 1 << (site - 1)
    kind = BondType(kind)
    if kind is BondType.X:
        return PauliString(bit, 0, 0)
    if kind is BondType.Z:
        return PauliString(0, bit, 0)
    return PauliString(bit, bit, 1)  # y = i x z


class SpinOperator:
    """Sum of Pauli strings; terms keyed by (x_mask, z_mask), phases folded
    into the complex coefficients.  Terms with exactly-zero coefficient are
    dropped so algebraic cancellations are visible as absent keys."""

    __slots__ = ("n_sites", "terms")

    def __init__(self, n_sites: int, terms: Mapping[tuple[int, int], complex] | None = None):
        self.n_sites = n_sites
        self.terms: dict[tuple[int, int], complex] = {}
        if terms:
            for key, c in terms.items():
                self._accumulate(key, c)

    def _accumulate(self, key: tuple[int, int], c: complex) -> None:
        if key[0] >> self.n_sites or key[1] >> self.n_sites:
            raise InvalidSpecError("Pauli mask exceeds the operator's site count")
        new = self.terms.get(key, 0) + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def add_string(self, ps: PauliString, coeff: complex = 1.0) -> "SpinOperator":
        self._accumulate((ps.x_mask, ps.z_mask), coeff * ps.phase)
        return self

    # -- algebra ------------------------------------------------------------

    def __sub__(self, other: "SpinOperator") -> "SpinOperator":
        out = SpinOperator(self.n_sites, self.terms)
        for key, c in other.terms.items():
            out._accumulate(key, -c)
        return out

    def __mul__(self, other: "SpinOperator") -> "SpinOperator":
        out = SpinOperator(self.n_sites)
        for (x1, z1), c1 in self.terms.items():
            for (x2, z2), c2 in other.terms.items():
                ps = PauliString(x1, z1, 0) * PauliString(x2, z2, 0)
                out.add_string(ps, c1 * c2)
        return out

    def commutator(self, other: "SpinOperator") -> "SpinOperator":
        return self * other - other * self

    def dagger(self) -> "SpinOperator":
        out = SpinOperator(self.n_sites)
        for (x, z), c in self.terms.items():
            ps = PauliString(x, z, 0).dagger()
            out.add_string(ps, np.conj(c))
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_identity(self) -> bool:
        """No command reads this; acceptance criterion 9 and the tests check
        with it that each loop operator squares to one."""
        return self.terms == {(0, 0): 1.0} or self.terms == {(0, 0): 1.0 + 0.0j}

    def equals(self, other: "SpinOperator") -> bool:
        return self.n_sites == other.n_sites and (self - other).is_zero

    def is_hermitian(self) -> bool:
        """Whether every coefficient equals its Hermitian-conjugate partner
        exactly.  A NaN coefficient fails: NaN equals nothing."""
        for (x, z), c in self.terms.items():
            want = np.conj(c) * (-1.0 if (x & z).bit_count() & 1 else 1.0)
            if c != want:
                return False
        return True

    @property
    def is_real(self) -> bool:
        return all(complex(c).imag == 0 for c in self.terms.values())

    def coefficient_norm(self) -> float:
        return float(sum(abs(c) for c in self.terms.values()))

    # -- matrices -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    def to_dense(self) -> np.ndarray:
        if self.n_sites > MAX_DENSE_SPINS:
            raise GuardExceededError(
                f"{self.n_sites} spins exceeds the dense guard ({MAX_DENSE_SPINS})"
            )
        dim = self.dim
        cols = np.arange(dim)
        dtype = float if self.is_real else complex
        h = np.zeros((dim, dim), dtype=dtype)
        for (x, z), c in self.terms.items():
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
            val = c if dtype is complex else complex(c).real
            h[cols ^ x, cols] += val * signs
        return h

    def compiled(self) -> "_CompiledOperator":
        return _CompiledOperator(self)


class _CompiledOperator:
    """The operator as one CSR matrix whose rows keep the terms' order.

    Term (x, z) with coefficient c sends basis state s ^ x to
    c' (-1)^{|z & s|} s, with c' = c (-1)^{|z & x|}, so row s holds one entry
    per term, in ``op.terms`` order: column s ^ x, value c' (-1)^{|z & s|}.
    Duplicate columns stay unsummed and indices unsorted.  scipy's CSR
    kernels start each output entry at 0 and add the row's products in
    stored order, so each entry is the same sum of the same rounded products
    +-c' psi[s ^ x] as applying the terms one by one, bit for bit.  The one
    exception is a complex operator on a complex vector: scipy rounds the
    two real products of each complex product separately, while NumPy's
    SIMD complex multiply may fuse them.  Storage is 12 bytes per term per
    row (int32 column, float64 value; 20 for complex operators).

    ``lowest_eigenvalues`` drives Lanczos through ``matvec``, not through the
    matrix, so a caller may wrap that method on an instance.
    """

    def __init__(self, op: SpinOperator):
        if op.n_sites > MAX_ITER_SPINS:
            raise GuardExceededError(
                f"{op.n_sites} spins exceeds the matrix-free guard ({MAX_ITER_SPINS})"
            )
        import scipy.sparse  # imported here, as in dense_lowest

        dim = op.dim
        self.dim = dim
        self.dtype = np.float64 if op.is_real else np.complex128
        n_terms = len(op.terms)
        rows = np.arange(dim, dtype=np.int32)
        indices = np.empty((dim, n_terms), dtype=np.int32)
        data = np.empty((dim, n_terms), dtype=self.dtype)
        for t, ((x, z), c) in enumerate(op.terms.items()):
            cc = complex(c) * (-1.0 if (z & x).bit_count() & 1 else 1.0)
            np.bitwise_xor(rows, x, out=indices[:, t])
            signs = 1.0 - 2.0 * (np.bitwise_count(rows & z) & 1)
            data[:, t] = (cc if self.dtype == np.complex128 else cc.real) * signs
        # an int64 indptr would make scipy copy the indices to int64 as well
        ptr_dtype = np.int32 if dim * n_terms <= np.iinfo(np.int32).max else np.int64
        indptr = np.arange(dim + 1, dtype=ptr_dtype) * n_terms
        self._matrix = scipy.sparse.csr_array(
            (data.ravel(), indices.ravel(), indptr), shape=(dim, dim)
        )

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        return self._matrix @ psi

    def matmat(self, block: np.ndarray) -> np.ndarray:
        return self._matrix @ block


# ---------------------------------------------------------------------------
# Hamiltonian and loop operators

def build_spin_hamiltonian(ladder: Ladder, couplings: CouplingConfig) -> SpinOperator:
    """H = -sum_bonds J_(ij) sigma_i^t sigma_j^t with t the bond type."""
    couplings.validate_for(ladder)
    op = SpinOperator(ladder.n_sites)
    for bond in ladder.bonds:
        term = sigma(bond.kind, bond.i) * sigma(bond.kind, bond.j)
        op.add_string(term, -couplings[bond.pair])
    return op


def vortex_operator(ladder: Ladder, name: str) -> SpinOperator:
    """Conserved operator of the basis cycle ``name``: i^{|c|+2} times the
    ordered product of sigma_i^t sigma_j^t over the loop's bonds (t = bond
    type), in ``ladder.cycle_bonds`` order; each term is symmetric in i and
    j.  Always a single Hermitian Pauli string with coefficient exactly +-1."""
    try:
        pairs, _ = ladder.cycle_bonds[name]
    except KeyError:
        raise InvalidLoopError(f"no cycle named {name!r}") from None
    ps = PauliString(0, 0, len(pairs) + 2)
    for i, j in pairs:
        kind = ladder.bond_map[i, j].kind
        ps = ps * sigma(kind, i) * sigma(kind, j)
    if ps.phase_pow % 2:
        raise InvalidLoopError("loop operator did not close to a real string")
    return SpinOperator(ladder.n_sites).add_string(ps)


def cycle_operators(ladder: Ladder) -> dict[str, SpinOperator]:
    return {name: vortex_operator(ladder, name) for name in ladder.cycle_names}


# ---------------------------------------------------------------------------
# spectra

@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None      # dim x n, column i <-> eigenvalue i
    residuals: np.ndarray | None = None


def dense_spectrum(h: SpinOperator) -> SpectrumReport:
    """Full spectrum by dense diagonalization (2^{4N} <= 4096)."""
    if not h.is_hermitian():
        raise MalformedMatrixError("operator is not Hermitian")
    return SpectrumReport(np.linalg.eigvalsh(h.to_dense()))


def dense_lowest(h: SpinOperator) -> SpectrumReport:
    """Lowest eigenpair of the dense matrix."""
    if not h.is_hermitian():
        raise MalformedMatrixError("operator is not Hermitian")
    import scipy.linalg  # imported here: scipy costs every other CLI process ~0.4 s

    w, v = scipy.linalg.eigh(h.to_dense(), subset_by_index=(0, 0))
    return SpectrumReport(w, vectors=v)


def lowest_eigenvalues(h: SpinOperator, k: int, seed: int) -> SpectrumReport:
    """Lowest k eigenpairs by implicitly restarted Lanczos on the compiled
    operator, with a seeded start vector (deterministic for a fixed seed)."""
    if h.n_sites > MAX_ITER_SPINS:
        raise GuardExceededError(f"{h.n_sites} spins exceeds the guard ({MAX_ITER_SPINS})")
    if not (1 <= k <= MAX_ITER_K):
        raise GuardExceededError(f"k={k} outside 1..{MAX_ITER_K}")
    dim = h.dim
    if k >= dim - 1:  # ARPACK's limit; every ladder has dim - 1 >= 255 > MAX_ITER_K
        raise GuardExceededError(f"k={k} needs k < dim - 1 = {dim - 1}")
    if not h.is_hermitian():
        raise MalformedMatrixError("operator is not Hermitian")
    applier = h.compiled()
    import scipy.sparse.linalg  # imported here, as in dense_lowest

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    linop = scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=applier.matvec, dtype=applier.dtype
    )
    try:
        w, v = scipy.sparse.linalg.eigsh(linop, k=k, which="SA", v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as e:
        raise ConvergenceError(f"Lanczos failed to converge: {e}") from e
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    residuals = np.array(
        [np.linalg.norm(applier.matvec(v[:, i]) - w[i] * v[:, i]) for i in range(k)]
    )
    if residuals.max(initial=0.0) > RESIDUAL_TOL * max(1.0, h.coefficient_norm()):
        raise ConvergenceError(f"residuals {residuals} exceed {RESIDUAL_TOL}")
    return SpectrumReport(w, vectors=v, residuals=residuals)


# ---------------------------------------------------------------------------
# loop-operator blocks

def _gather_bits(bits, keep: Sequence[int]):
    """The bits of ``bits`` at positions ``keep``, packed low to high (ints or arrays)."""
    return sum((((bits >> q) & 1) << j for j, q in enumerate(keep)), 0 * bits)


def _rotate(op: SpinOperator, anchors, generators) -> SpinOperator:
    """U^dag op U for U = prod_i (a_i + g_i)/sqrt(2); op must commute with every g_i."""
    out = SpinOperator(op.n_sites)
    for (x, z), c in op.terms.items():
        ps = PauliString(x, z)
        for a, g in zip(anchors, generators):
            if not ps.commutes_with(g):
                raise InvalidSpecError("operator does not commute with the loop operators")
            if not ps.commutes_with(a):
                ps = a * g * ps
        out.add_string(ps, c)
    return out


def _restrict(op: SpinOperator, pivots: Sequence[int], signs: Sequence[int]) -> SpinOperator:
    """Replace a_i by signs[i] on pivot qubit i and drop the pivot qubits."""
    keep = [q for q in range(op.n_sites) if q not in pivots]
    out = SpinOperator(len(keep))
    for (x, z), c in op.terms.items():
        for q, s in zip(pivots, signs):
            if (x | z) >> q & 1:  # the term acts on q as a_i
                c = c * s
        out._accumulate((_gather_bits(x, keep), _gather_bits(z, keep)), c)
    return out


@dataclass(frozen=True)
class Tapering:
    """An operator split into loop-operator blocks; see ``taper``."""

    n_sites: int
    pivots: tuple[int, ...]              # pivot qubit (bit index) per generator
    anchors: tuple[PauliString, ...]     # a_i: Z or X on the pivot qubit
    generators: tuple[PauliString, ...]  # g_i after elimination
    signs: dict[tuple[int, ...], tuple[int, ...]]  # block labels -> eigenvalues of the a_i
    blocks: dict[tuple[int, ...], SpinOperator]    # block labels -> operator on n - k qubits

    def lift(self, key: tuple[int, ...], vectors: np.ndarray) -> np.ndarray:
        """Columns of block ``key`` as full-basis vectors: U_1...U_k (v x pivot states)."""
        cols = np.arange(1 << self.n_sites)
        keep = [q for q in range(self.n_sites) if q not in self.pivots]
        amp = np.ones(cols.size)
        for q, a, lam in zip(self.pivots, self.anchors, self.signs[key]):
            bit = (cols >> q) & 1  # set <=> sigma^z = -1
            amp = amp * (bit == (lam < 0) if a.z_mask else np.where(bit, lam, 1) * _SQRT_HALF)
        psi = amp[:, None] * np.asarray(vectors)[_gather_bits(cols, keep)]
        for a, g in zip(self.anchors, self.generators):
            u = SpinOperator(self.n_sites).add_string(a, _SQRT_HALF).add_string(g, _SQRT_HALF)
            psi = u.compiled().matmat(psi)
        return psi


def taper(h: SpinOperator, ops: Mapping[str, SpinOperator]) -> Tapering:
    """Split h exactly into one block per +-1 label tuple of the loop operators.

    The operators must be independent, mutually commuting Hermitian Pauli
    strings with coefficient +-1 that commute with h; otherwise
    InvalidSpecError is raised before any matrix exists.  Elimination makes
    each generator g_i anticommute with a single-qubit Pauli a_i on its own
    pivot qubit and commute with every other a_j, so U_i = (a_i + g_i)/sqrt(2)
    is Hermitian, unitary and maps g_i to a_i; under U = U_1...U_k every term
    of h acts on pivot i as 1 or a_i.  Setting a_i = +-1 and dropping the
    pivots leaves a block on n - k qubits.  Each loop operator, sent through
    the same reduction, becomes exactly +-1 times the identity: that sign is
    its label, and block keys list the labels in the order of ``ops``.
    """
    gens = []
    for name, op in ops.items():
        (x, z), c = next(iter(op.terms.items()), ((0, 0), 0))
        if op.n_sites != h.n_sites or len(op.terms) != 1 or c not in (1, -1) or (x & z).bit_count() & 1:
            raise InvalidSpecError(f"{name} is not a Hermitian +-1 Pauli string on {h.n_sites} sites")
        gens.append(PauliString(x, z, 0 if c == 1 else 2))
    if any(not a.commutes_with(b) for i, a in enumerate(gens) for b in gens[:i]):
        raise InvalidSpecError("loop operators do not commute")
    pivots: list[int] = []
    anchors: list[PauliString] = []
    for i, name in enumerate(ops):
        free = (gens[i].x_mask | gens[i].z_mask) & ~sum(1 << q for q in pivots)
        if not free:
            raise InvalidSpecError(f"loop operator {name} is a product of the others")
        q = (free & -free).bit_length() - 1
        a = PauliString(0, 1 << q) if gens[i].x_mask >> q & 1 else PauliString(1 << q, 0)
        gens = [g if j == i or g.commutes_with(a) else g * gens[i] for j, g in enumerate(gens)]
        pivots.append(q)
        anchors.append(a)
    rotated_h = _rotate(h, anchors, gens)
    rotated_ops = [_rotate(op, anchors, gens) for op in ops.values()]
    signs, blocks = {}, {}
    for m in range(1 << len(pivots)):
        lams = tuple(-1 if m >> i & 1 else 1 for i in range(len(pivots)))
        key = []
        for name, op in zip(ops, rotated_ops):
            label = _restrict(op, pivots, lams).terms
            if len(label) != 1 or label.get((0, 0)) not in (1, -1):
                raise LabelingError(f"{name} did not reduce to +-1 in block {lams}")
            key.append(int(complex(label[(0, 0)]).real))
        signs[tuple(key)] = lams
        blocks[tuple(key)] = _restrict(rotated_h, pivots, lams)
    return Tapering(h.n_sites, tuple(pivots), tuple(anchors), tuple(gens), signs, blocks)


def block_spectrum(h: SpinOperator, ops: Mapping[str, SpinOperator]) -> np.ndarray:
    """Full spectrum of h, ascending, as the union of its loop-operator blocks."""
    if h.n_sites > MAX_DENSE_SPINS:
        raise GuardExceededError(f"{h.n_sites} spins exceeds the dense guard ({MAX_DENSE_SPINS})")
    blocks = taper(h, ops).blocks.values()
    return np.sort(np.concatenate([dense_spectrum(b).eigenvalues for b in blocks]))


# ---------------------------------------------------------------------------
# labels

def label_eigenstates(
    h: SpinOperator, vortex_ops: Mapping[str, SpinOperator], vectors: np.ndarray
) -> dict[str, np.ndarray]:
    """A +-1 label per loop operator for every column of ``vectors``.

    Each label is read off <v|B|v>, so every vector must be a normalized
    eigenvector of every loop operator: a value further than 1e-6 from +-1
    (say, a mixture of two sectors) raises LabelingError, as does an
    operator that does not commute with H exactly.
    """
    labels = {}
    for name, op in vortex_ops.items():
        if not h.commutator(op).is_zero:
            raise LabelingError(f"operator {name} does not commute with H")
        values = np.real(np.sum(vectors.conj() * op.compiled().matmat(vectors), axis=0))
        if np.max(np.abs(np.abs(values) - 1.0), initial=0.0) > 1e-6:
            raise LabelingError(f"states do not resolve into +-1 labels for {name}")
        labels[name] = np.where(values > 0, 1, -1)
    return labels


# ---------------------------------------------------------------------------
# spectrum comparison

@dataclass
class SpectrumComparison:
    tol: float
    dedup_a: np.ndarray
    dedup_b: np.ndarray
    matched: list[tuple[float, float]]
    only_a: list[tuple[float, float]]  # (value, distance to nearest b)
    only_b: list[tuple[float, float]]

    @property
    def equal(self) -> bool:
        return not self.only_a and not self.only_b

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "dedup_sizes": [len(self.dedup_a), len(self.dedup_b)],
            "matched": len(self.matched),
            "only_a": [[float(v), float(d)] for v, d in self.only_a],
            "only_b": [[float(v), float(d)] for v, d in self.only_b],
            "equal": self.equal,
        }


def dedup_values(values: Iterable[float], tol: float) -> np.ndarray:
    """Cluster within tol and keep one representative (cluster mean)."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        return arr
    reps, start = [], 0
    for i in range(1, len(arr) + 1):
        if i == len(arr) or arr[i] - arr[i - 1] > tol:
            reps.append(arr[start:i].mean())
            start = i
    return np.asarray(reps)


def _nearest_distance(value: float, pool: np.ndarray) -> float:
    if pool.size == 0:
        return float("inf")
    idx = np.searchsorted(pool, value)
    cands = pool[max(0, idx - 1) : idx + 1]
    return float(np.min(np.abs(cands - value)))


def compare_spectra(a: Iterable[float], b: Iterable[float], tol: float = 1e-8) -> SpectrumComparison:
    da, db = dedup_values(a, tol), dedup_values(b, tol)
    matched, only_a, only_b = [], [], []
    ia = ib = 0
    while ia < len(da) and ib < len(db):
        if abs(da[ia] - db[ib]) <= tol:
            matched.append((float(da[ia]), float(db[ib])))
            ia += 1
            ib += 1
        elif da[ia] < db[ib]:
            only_a.append((float(da[ia]), _nearest_distance(da[ia], db)))
            ia += 1
        else:
            only_b.append((float(db[ib]), _nearest_distance(db[ib], da)))
            ib += 1
    only_a += [(float(v), _nearest_distance(v, db)) for v in da[ia:]]
    only_b += [(float(v), _nearest_distance(v, da)) for v in db[ib:]]
    return SpectrumComparison(tol, da, db, matched, only_a, only_b)
