"""Exact Pauli-string algebra and spin exact diagonalization."""

import subprocess
import sys
from functools import reduce

import numpy as np
import pytest
import scipy.sparse.linalg

from vortexladder import spin_ed
from vortexladder.errors import (
    GuardExceededError,
    InvalidLoopError,
    InvalidSpecError,
    LabelingError,
    MalformedMatrixError,
)
from vortexladder.freefermion import (
    CouplingConfig,
    assemble_skew,
    many_body_spectrum,
    mode_spectrum,
    sector_ground_energy,
    sector_union_spectrum,
)
from vortexladder.gauge import enumerate_sectors, gauge_for_sector
from vortexladder.lattice import build_ladder
from vortexladder.spin_ed import (
    PauliString,
    SpinOperator,
    _restrict,
    _rotate,
    block_spectrum,
    build_spin_hamiltonian,
    compare_spectra,
    cycle_operators,
    dedup_values,
    dense_lowest,
    dense_spectrum,
    label_eigenstates,
    lowest_eigenvalues,
    sigma,
    taper,
    vortex_operator,
)

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


SITE = {
    (0, 0): PAULI["i"],
    (1, 0): PAULI["x"],
    (0, 1): PAULI["z"],
    (1, 1): PAULI["x"] @ PAULI["z"],  # normal form: X then Z per site
}


def kron_string(n_sites, ps: PauliString) -> np.ndarray:
    """Independent dense oracle; site 1 is the least-significant factor."""
    mats = [
        SITE[((ps.x_mask >> s) & 1, (ps.z_mask >> s) & 1)] for s in range(n_sites)
    ]
    return (1j**ps.phase_pow) * reduce(np.kron, mats[::-1])


def kron_operator(op: SpinOperator) -> np.ndarray:
    dim = 1 << op.n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in op.terms.items():
        out += c * kron_string(op.n_sites, PauliString(x, z, 0))
    return out


def test_sigma_matrices():
    for kind in "xyz":
        op = SpinOperator(1).add_string(sigma(kind, 1))
        assert np.array_equal(op.to_dense(), PAULI[kind])


def test_pauli_product_against_kron_oracle():
    rng = np.random.default_rng(2)
    n = 4
    for _ in range(100):
        a = PauliString(int(rng.integers(16)), int(rng.integers(16)), int(rng.integers(4)))
        b = PauliString(int(rng.integers(16)), int(rng.integers(16)), int(rng.integers(4)))
        got = kron_string(n, a * b)
        want = kron_string(n, a) @ kron_string(n, b)
        assert np.array_equal(got, want)  # phases are exact powers of i


def test_pauli_dagger_and_commutes():
    rng = np.random.default_rng(4)
    n = 3
    for _ in range(60):
        a = PauliString(int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
        b = PauliString(int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
        ma, mb = kron_string(n, a), kron_string(n, b)
        assert np.array_equal(kron_string(n, a.dagger()), ma.conj().T)
        assert a.commutes_with(b) == np.array_equal(ma @ mb, mb @ ma)


def test_spin_hamiltonian_matches_kron_oracle():
    for bnd in ("open", "closed"):
        lad = build_ladder(2, bnd)
        cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
        h = build_spin_hamiltonian(lad, cc)
        oracle = np.zeros((256, 256), dtype=complex)
        for b in lad.bonds:
            term = SpinOperator(8).add_string(sigma(b.kind, b.i) * sigma(b.kind, b.j))
            oracle -= cc.values[b.pair] * kron_operator(term)
        assert np.allclose(h.to_dense(), oracle, atol=0)
        assert h.is_hermitian()
        assert h.is_real


def test_vortex_operator_frozen_forms():
    lad = build_ladder(2, "open")
    b1 = vortex_operator(lad, "p1")
    want = SpinOperator(8).add_string(
        sigma("x", 1) * sigma("y", 2) * sigma("y", 3) * sigma("x", 4)
    )
    assert b1.equals(want)
    assert b1.terms == {(0b1111, 0b0110): -1.0}  # y pair folds i^2 into the masks

    ring = build_ladder(2, "closed")
    bl = vortex_operator(ring, "big")
    want_bl = SpinOperator(8).add_string(
        sigma("z", 1) * sigma("z", 4) * sigma("z", 5) * sigma("z", 8)
    )
    assert bl.equals(want_bl)
    assert bl.terms == {(0, 0b10011001): 1.0}


def test_vortex_operator_is_the_product_along_each_loop():
    """Each loop operator equals i^{|c|+2} times the sigma_a^t sigma_b^t terms
    multiplied step by step along ``ladder.cycles[name]``, term for term."""
    for n in range(2, 13):
        for bnd in ("open", "closed"):
            lad = build_ladder(n, bnd)
            ops = cycle_operators(lad)
            assert list(ops) == list(lad.cycles)
            for name, loop in lad.cycles.items():
                ps = PauliString(0, 0, len(loop) + 2)
                for a, b in zip(loop, loop[1:] + loop[:1]):
                    kind = lad.bond_map[min(a, b), max(a, b)].kind
                    ps = ps * sigma(kind, a) * sigma(kind, b)
                want = SpinOperator(lad.n_sites).add_string(ps)
                assert ops[name].terms == want.terms, (n, bnd, name)
    with pytest.raises(InvalidLoopError, match="no cycle named"):
        vortex_operator(build_ladder(2, "open"), "big")


def test_vortex_operators_are_exact_symmetries():
    for bnd in ("open", "closed"):
        lad = build_ladder(2, bnd)
        cc = CouplingConfig.homogeneous(lad, 1.1, 0.6, 0.9)
        h = build_spin_hamiltonian(lad, cc)
        ops = cycle_operators(lad)
        for name, b in ops.items():
            assert (b * b).is_identity
            assert b.dagger().equals(b)
            assert h.commutator(b).is_zero  # exact float cancellation
        names = list(ops)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert ops[names[i]].commutator(ops[names[j]]).is_zero


def test_dense_spectrum_matches_numpy_and_guards():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
    h = build_spin_hamiltonian(lad, cc)
    rep = dense_spectrum(h)
    want = np.linalg.eigvalsh(h.to_dense())
    assert np.allclose(rep.eigenvalues, want, atol=1e-12)
    big = build_ladder(4, "open")  # 16 spins > dense guard
    hbig = build_spin_hamiltonian(big, CouplingConfig.homogeneous(big, 1, 1, 1))
    with pytest.raises(GuardExceededError):
        dense_spectrum(hbig)


def test_dense_lowest_prefix():
    """The lowest eigenpair: the one-level prefix of the full spectrum."""
    lad = build_ladder(2, "open")
    h = build_spin_hamiltonian(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))
    full = dense_spectrum(h).eigenvalues
    low = dense_lowest(h)
    assert low.eigenvalues.shape == (1,) and low.vectors.shape == (h.dim, 1)
    assert np.allclose(low.eigenvalues, full[:1], atol=1e-12)
    resid = h.to_dense() @ low.vectors - low.vectors * low.eigenvalues
    assert np.linalg.norm(resid) <= 1e-10


def test_iterative_lowest_matches_dense():
    lad = build_ladder(2, "open")
    h = build_spin_hamiltonian(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))
    dense = dense_spectrum(h).eigenvalues
    it = lowest_eigenvalues(h, k=6, seed=3)
    assert np.allclose(it.eigenvalues, dense[:6], atol=1e-9)
    assert it.residuals.shape == (6,)
    with pytest.raises(GuardExceededError):
        lowest_eigenvalues(h, k=255, seed=3)  # k capped at 64

    # ARPACK needs k < dim - 1; every ladder has room (2^8 - 1 > 64), a 6-spin chain not
    chain = SpinOperator(6)
    for s in range(1, 6):
        chain.add_string(sigma("z", s) * sigma("z", s + 1), -1.0)
    for s in range(1, 7):
        chain.add_string(sigma("x", s), -0.4)
    with pytest.raises(GuardExceededError):
        lowest_eigenvalues(chain, k=63, seed=3)


def _lifted_eigenpairs(lad, h):
    """Every eigenpair of every loop-operator block, the vectors lifted to
    the full basis, with the block key each vector came from."""
    tap = taper(h, cycle_operators(lad))
    values, vectors, keys = [], [], []
    for key, block in tap.blocks.items():
        w, v = np.linalg.eigh(block.to_dense())
        values.append(w)
        vectors.append(tap.lift(key, v))
        keys += [key] * len(w)
    return np.concatenate(values), np.hstack(vectors), keys


def test_label_eigenstates_block_sizes():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
    h = build_spin_hamiltonian(lad, cc)
    _, vectors, keys = _lifted_eigenpairs(lad, h)
    labels = label_eigenstates(h, cycle_operators(lad), vectors)
    assert set(labels) == {"p1", "p2", "p3"}
    labeled = list(zip(*(labels[n].tolist() for n in ("p1", "p2", "p3"))))
    assert labeled == keys  # each lifted vector carries its block's labels
    counts = {}
    for key in labeled:
        counts[key] = counts.get(key, 0) + 1
    # 2^{2N-1} sectors, each carrying dim / #sectors = 32 states
    assert len(counts) == 8
    assert set(counts.values()) == {32}


def test_labeled_minima_match_fermionic_sector_grounds():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
    h = build_spin_hamiltonian(lad, cc)
    values, vectors, _ = _lifted_eigenpairs(lad, h)
    labels = label_eigenstates(h, cycle_operators(lad), vectors)
    names = lad.cycle_names
    minima = {}
    for idx, e in enumerate(values):
        key = tuple(int(labels[n][idx]) for n in names)
        minima[key] = min(minima.get(key, np.inf), float(e))
    assert len(minima) == 8
    for sec in enumerate_sectors(lad):
        key = tuple(sec.values[n] for n in names)
        want = sector_ground_energy(lad, cc, sec)
        assert minima[key] == pytest.approx(want, abs=1e-9)


def test_label_eigenstates_rejects_mixtures_and_takes_empty_maps():
    lad = build_ladder(2, "open")
    h = build_spin_hamiltonian(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))
    ops = cycle_operators(lad)
    _, vectors, keys = _lifted_eigenpairs(lad, h)
    i, j = 0, keys.index(next(k for k in keys if k != keys[0]))
    mix = (vectors[:, i] + vectors[:, j]) / np.sqrt(2)
    with pytest.raises(LabelingError):
        label_eigenstates(h, ops, mix[:, None])
    assert label_eigenstates(h, {}, vectors) == {}
    with pytest.raises(LabelingError):  # sigma^x_1 does not commute with H
        label_eigenstates(h, {"x1": SpinOperator(8).add_string(sigma("x", 1))}, vectors)


def _random_signed(lad, rng):
    return CouplingConfig(
        {b.pair: float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)) for b in lad.bonds}
    )


def _is_submultiset(small, big, tol):
    """Every value of ``small`` matched to its own value of ``big`` within tol."""
    pool = list(np.sort(big))
    for v in np.sort(small):
        hits = [i for i, w in enumerate(pool) if abs(w - v) <= tol]
        if not hits:
            return False
        pool.pop(hits[0])
    return True


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_taper_blocks_are_exact(n, boundary):
    lad = build_ladder(n, boundary)
    cc = _random_signed(lad, np.random.default_rng(40 + n))
    h = build_spin_hamiltonian(lad, cc)
    ops = cycle_operators(lad)
    names = list(ops)
    tap = taper(h, ops)
    k = len(names)
    assert len(tap.blocks) == 1 << k
    assert all(b.n_sites == lad.n_sites - k for b in tap.blocks.values())

    full = dense_spectrum(h).eigenvalues
    assert np.max(np.abs(block_spectrum(h, ops) - full)) <= 1e-11

    applier = h.compiled()
    for sec in enumerate_sectors(lad):
        key = tuple(sec.values[name] for name in names)
        levels = many_body_spectrum(
            mode_spectrum(assemble_skew(lad, cc, gauge_for_sector(lad, sec)))
        )
        w, v = np.linalg.eigh(tap.blocks[key].to_dense())
        if boundary == "open":  # each fermion level twice
            assert np.max(np.abs(w - np.sort(np.repeat(levels, 2)))) <= 1e-10
        else:  # one parity's half of the sector's levels
            assert 2 * len(w) == len(levels)
            assert _is_submultiset(w, levels, 1e-10)
        for name, op in ops.items():
            reduced = _restrict(_rotate(op, tap.anchors, tap.generators), tap.pivots, tap.signs[key])
            assert reduced.terms == {(0, 0): sec.values[name]}
        psi = tap.lift(key, v[:, :16])
        resid = applier.matmat(psi) - psi * w[:16]
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10
        assert np.allclose(psi.T @ psi, np.eye(psi.shape[1]), atol=1e-12)


def test_taper_rejects_bad_operator_lists(monkeypatch):
    lad = build_ladder(2, "open")
    h = build_spin_hamiltonian(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))
    ops = cycle_operators(lad)

    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was built before the operator list was checked")

    monkeypatch.setattr(SpinOperator, "to_dense", no_matrix)
    monkeypatch.setattr(SpinOperator, "compiled", no_matrix)
    bad = {
        "non-commuting": {"x1": SpinOperator(8).add_string(sigma("x", 1)),
                          "z1": SpinOperator(8).add_string(sigma("z", 1))},
        "dependent": {**ops, "p1p2": ops["p1"] * ops["p2"]},
        "not a symmetry of H": {"z1": SpinOperator(8).add_string(sigma("z", 1))},
        "coefficient 2": {"p1": SpinOperator(8, {k: 2.0 * c for k, c in ops["p1"].terms.items()})},
        "two strings": {"p1": SpinOperator(8, {**ops["p1"].terms, **ops["p2"].terms})},
        "wrong site count": {"p1": SpinOperator(9, ops["p1"].terms)},
    }
    for case, operators in bad.items():
        with pytest.raises(InvalidSpecError):
            block_spectrum(h, operators)
            pytest.fail(case)


def test_compare_spectra_open_equal_closed_not():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
    spin = dense_spectrum(build_spin_hamiltonian(lad, cc)).eigenvalues
    union = sector_union_spectrum(lad, cc)
    res = compare_spectra(spin, union, tol=1e-8)
    assert res.equal
    assert len(res.dedup_a) == len(res.dedup_b) == 92
    assert not res.only_a and not res.only_b

    ring = build_ladder(2, "closed")
    cc2 = CouplingConfig.homogeneous(ring, 1.0, 0.7, 1.3)
    spin2 = dense_spectrum(build_spin_hamiltonian(ring, cc2)).eigenvalues
    union2 = sector_union_spectrum(ring, cc2)
    res2 = compare_spectra(spin2, union2, tol=1e-8)
    assert not res2.equal
    assert len(res2.only_b) == 70  # fermionic union oversees the spin spectrum
    assert abs(spin2.min() - union2.min()) < 1e-12  # ground energies agree anyway

    doc = res2.to_json_dict()
    import json

    json.dumps(doc)  # native types only
    assert doc["equal"] is False


def test_dedup_values():
    vals = [1.0, 1.0 + 5e-9, 1.0 + 9e-9, 2.0, -3.0]
    out = dedup_values(vals, tol=1e-8)
    assert out.shape == (3,)
    assert np.allclose(out, [-3.0, 1.0, 2.0], atol=1e-7)
    assert dedup_values([], tol=1e-8).shape == (0,)


def test_operator_misc_and_guards():
    op = SpinOperator(2)
    assert op.is_zero
    op.add_string(PauliString(0, 0, 0), 1.0)
    assert op.is_identity
    with pytest.raises(InvalidSpecError):
        SpinOperator(2, {(4, 0): 1.0})  # mask beyond the site count
    h = SpinOperator(2).add_string(sigma("z", 1), 2.0).add_string(sigma("x", 2), -0.5)
    assert h.coefficient_norm() == pytest.approx(2.5)
    assert not SpinOperator(2, {k: 1.0j * c for k, c in h.terms.items()}).is_hermitian()
    # a NaN coefficient equals nothing, so it fails the check
    assert not SpinOperator(1, {(0, 1): np.nan}).is_hermitian()


def test_nan_coefficient_is_a_malformed_matrix():
    h = SpinOperator(2, {(0, 1): np.nan, (1, 0): 1.0})
    assert not h.is_hermitian()
    for solve in (spin_ed.dense_spectrum, spin_ed.dense_lowest,
                  lambda op: spin_ed.lowest_eigenvalues(op, 1, seed=0)):
        with pytest.raises(MalformedMatrixError):
            solve(h)


# ---------------------------------------------------------------------------
# the compiled operator against the term loop it replaced

class TermLoop:
    """Oracle: one NumPy gather-and-add pass per term, in ``op.terms`` order.

    With ``plain_products`` a complex coefficient times a complex entry is
    written out as (ac - bd) + i(ad + bc) in real arithmetic, one rounding per
    product and per sum; NumPy's own complex multiply may fuse that
    multiply-add on CPUs with FMA.
    """

    def __init__(self, op, plain_products=False):
        self.dim = op.dim
        self.dtype = np.float64 if op.is_real else np.complex128
        self.plain = plain_products
        cols = np.arange(self.dim, dtype=np.int64)
        sign_cache = {}
        self.terms = []
        for (x, z), c in op.terms.items():
            if z not in sign_cache:
                sign_cache[z] = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1).astype(np.float64)
            cc = complex(c) * (-1.0 if (z & x).bit_count() & 1 else 1.0)
            self.terms.append((cols ^ x, sign_cache[z], cc if self.dtype == np.complex128 else cc.real))

    def _product(self, c, w):
        if self.plain and isinstance(c, complex) and np.iscomplexobj(w):
            return (c.real * w.real - c.imag * w.imag) + 1j * (c.real * w.imag + c.imag * w.real)
        return c * w

    def matvec(self, psi):
        psi = np.asarray(psi)
        out = np.zeros(self.dim, dtype=np.result_type(self.dtype, psi.dtype))
        for idx, signs, c in self.terms:
            out += self._product(c, signs * psi[idx])
        return out

    def matmat(self, block):
        out = np.zeros(block.shape, dtype=np.result_type(self.dtype, block.dtype))
        for idx, signs, c in self.terms:
            out += self._product(c, signs[:, None] * block[idx, :])
        return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_pauli_sum(n, rng, complex_coefficients):
    """4n random strings over three x masks (repeated columns), any z (Y terms)."""
    op = SpinOperator(n)
    xs = rng.integers(0, 1 << n, size=3)
    for _ in range(4 * n):
        c = rng.standard_normal() + (1j * rng.standard_normal() if complex_coefficients else 0.0)
        op._accumulate((int(rng.choice(xs)), int(rng.integers(1 << n))), c)
    return op


@pytest.mark.parametrize("complex_op", [False, True], ids=["real-op", "complex-op"])
def test_compiled_operator_is_the_term_loop_bit_for_bit(complex_op):
    rng = np.random.default_rng(17 + complex_op)
    for n in range(1, 13):
        op = _random_pauli_sum(n, rng, complex_op)
        assert op.is_real != complex_op
        assert any(x & z for x, z in op.terms)  # Y factors present
        applier = op.compiled()
        loop = TermLoop(op, plain_products=True)  # the verbatim loop unless both are complex
        for complex_in in (False, True):
            for cols in (None, 1, 5, 128):
                shape = (op.dim,) if cols is None else (op.dim, cols)
                v = rng.standard_normal(shape)
                if complex_in:
                    v = v + 1j * rng.standard_normal(shape)
                got = applier.matvec(v) if cols is None else applier.matmat(v)
                want = loop.matvec(v) if cols is None else loop.matmat(v)
                assert _same_bits(got, want), (n, complex_in, cols)


def test_compiled_zero_and_identity():
    v = np.random.default_rng(5).standard_normal((64, 5))
    zero = SpinOperator(6).compiled()
    assert _same_bits(zero.matvec(v[:, 0]), np.zeros(64))
    assert _same_bits(zero.matmat(v), np.zeros((64, 5)))
    ident = SpinOperator(6).add_string(PauliString(0, 0)).compiled()
    assert _same_bits(ident.matvec(v[:, 0]), v[:, 0])
    assert _same_bits(ident.matmat(v), v)


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_lowest_eigenvalues_bit_identical_to_term_loop_lanczos(boundary):
    lad = build_ladder(3, boundary)
    h = build_spin_hamiltonian(lad, _random_signed(lad, np.random.default_rng(7)))
    rep = lowest_eigenvalues(h, k=3, seed=29)
    v0 = np.random.default_rng(29).standard_normal(h.dim)
    linop = scipy.sparse.linalg.LinearOperator(
        (h.dim, h.dim), matvec=TermLoop(h).matvec, dtype=np.float64
    )
    w, v = scipy.sparse.linalg.eigsh(linop, k=3, which="SA", v0=v0)
    order = np.argsort(w)
    assert _same_bits(rep.eigenvalues, w[order])
    assert _same_bits(rep.vectors, v[:, order])


def test_compiled_indices_are_int32_at_16_spins():
    lad = build_ladder(4, "closed")
    h = build_spin_hamiltonian(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))
    mat = h.compiled()._matrix
    assert mat.indices.dtype == np.int32 and mat.indptr.dtype == np.int32
    assert mat.nnz == h.dim * len(h.terms)
    assert mat.data.base is not None and mat.indices.base is not None  # views, no copies


def test_compiled_guard_trips_before_allocation_or_scipy():
    code = (
        "import sys, tracemalloc\n"
        "from vortexladder.errors import GuardExceededError\n"
        "from vortexladder.spin_ed import SpinOperator\n"
        "op = SpinOperator(21, {(1, 1 << 20): 1.0})\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    op.compiled()\n"
        "except GuardExceededError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no guard')\n"
        "print(tracemalloc.get_traced_memory()[1],"
        " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak, scipy_modules = proc.stdout.split(maxsplit=1)
    assert int(peak) < 1 << 20  # a 2^21-row array would be 16 MB
    assert scipy_modules.strip() == "[]"


def test_lanczos_runs_through_the_instance_matvec(monkeypatch):
    """Per-layer benchmarks count Lanczos matvecs by wrapping the ``matvec``
    of the compiled instance; eigsh must be driven through it."""
    lad = build_ladder(2, "closed")
    h = build_spin_hamiltonian(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))
    want = lowest_eigenvalues(h, k=1, seed=3).eigenvalues
    applier = h.compiled()
    matvec, calls = applier.matvec, []

    def counted(psi):
        calls.append(1)
        return matvec(psi)

    applier.matvec = counted
    monkeypatch.setattr(spin_ed.SpinOperator, "compiled", lambda self: applier)
    got = lowest_eigenvalues(h, k=1, seed=3).eigenvalues
    assert len(calls) > 0
    assert _same_bits(got, want)
