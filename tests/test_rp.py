"""Fock Majoranas, polynomial algebra, reflections, RP functionals."""

import numpy as np
import pytest

from vortexladder import rp
from vortexladder.errors import InvalidSpecError, MalformedMatrixError
from vortexladder.rp import (
    MajoranaPolynomial,
    doubled_hamiltonians,
    energy_inequality_check,
    even_monomials,
    fix_cross_signs,
    fock_majoranas,
    mirror_theta,
    negative_half,
    quadratic,
    random_even_element,
    reflect,
    reflection_gram,
    rp_functional,
    split_by_side,
    trace_bound_check,
)
from vortexladder.spin_ed import PauliString


def _kron_majoranas(n):
    """The product-state construction: c_{2mu-1} = a_mu + a_mu^*,
    c_{2mu} = i(a_mu - a_mu^*), a_mu = parity^{<mu} (x) lower (x) 1."""
    modes = n // 2
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # a|1> = |0>
    parity = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye = np.eye(2)
    mats = []
    for mu in range(modes):
        a = np.array([[1.0]])
        for nu in range(modes):
            a = np.kron(a, parity if nu < mu else lower if nu == mu else eye)
        adag = a.conj().T
        mats.append(a + adag)
        mats.append(1j * (a - adag))
    return mats


def _kron_matrix(poly):
    """Reference to_matrix: one dense product per monomial, summed in term order."""
    mats = _kron_majoranas(poly.n)
    dim = 1 << (poly.n // 2)
    out = np.zeros((dim, dim), dtype=complex)
    for mono, c in poly.terms.items():
        acc = np.eye(dim, dtype=complex)
        for v in mono:
            acc = acc @ mats[v - 1]
        out += c * acc
    return out


def test_fock_clifford_relations():
    for n in (2, 4, 6):
        rep = fock_majoranas(n)
        assert rep.dim == 1 << (n // 2)
        eye = np.eye(rep.dim)
        for k, c in enumerate(rep.matrices):
            assert np.array_equal(c, c.conj().T)
            assert np.array_equal(c @ c, eye)
            for l in range(k):
                d = rep.matrices[l]
                assert np.array_equal(c @ d + d @ c, np.zeros_like(eye))


def test_fock_guards():
    with pytest.raises(InvalidSpecError):
        fock_majoranas(18)
    with pytest.raises(InvalidSpecError):
        fock_majoranas(5)


def test_quartic_monomial_squares_to_plus_identity():
    p = MajoranaPolynomial(4, {(1, 2, 3, 4): 1.0})
    sq = p * p
    assert sq.terms == {(): 1.0}
    m = p.to_matrix()
    assert np.array_equal(m @ m, np.eye(4))


def test_polynomial_algebra_is_matrix_homomorphism():
    rng = np.random.default_rng(9)
    n = 6
    monos = even_monomials(range(1, n + 1)) + [(1,), (3,), (1, 2, 5), (2, 4, 6)]
    for _ in range(50):
        pick = rng.choice(len(monos), size=4, replace=False)
        a = MajoranaPolynomial(
            n, {monos[i]: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for i in pick[:2]}
        )
        b = MajoranaPolynomial(
            n, {monos[i]: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for i in pick[2:]}
        )
        ma, mb = a.to_matrix(), b.to_matrix()
        assert np.allclose((a * b).to_matrix(), ma @ mb, atol=1e-12)
        assert np.allclose((a + b).to_matrix(), ma + mb, atol=1e-12)
        assert np.allclose((a - 2.5 * b).to_matrix(), ma - 2.5 * mb, atol=1e-12)


def test_monomial_ordering_rules():
    # c2 c1 = -c1 c2 and repeated factors contract: encoded input must be sorted
    with pytest.raises(InvalidSpecError):
        MajoranaPolynomial(4, {(2, 1): 1.0})
    with pytest.raises(InvalidSpecError):
        MajoranaPolynomial(4, {(1, 1): 1.0})
    with pytest.raises(InvalidSpecError):
        MajoranaPolynomial(4, {(0, 1): 1.0})
    p = MajoranaPolynomial(4, {(1, 2): 1.0})
    q = MajoranaPolynomial(4, {(2, 3): 1.0})
    anti = p * q + q * p  # {c1c2, c2c3} = 0
    assert anti.terms == {}


def test_reflect_frozen_images_and_involution():
    n = 8
    theta = mirror_theta(n)
    assert theta == {1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}
    assert negative_half(n) == frozenset({1, 2, 3, 4})

    one = MajoranaPolynomial(n, {(1,): 1.0})
    assert reflect(one, theta).terms == {(8,): 1.0}
    pair = MajoranaPolynomial(n, {(1, 2): 1j})
    # antilinear: conj(i) = -i, then c8 c7 -> -c7 c8
    assert reflect(pair, theta).terms == {(7, 8): 1j}

    rng = np.random.default_rng(31)
    monos = even_monomials(range(1, 5)) + [(1, 3), (2, 4)]
    for _ in range(50):
        pick = rng.choice(len(monos), size=3, replace=False)
        p = MajoranaPolynomial(
            n, {monos[i]: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for i in pick}
        )
        assert reflect(reflect(p, theta), theta).close_to(p, tol=1e-14)
        assert reflect(p * 1j, theta).close_to(reflect(p, theta) * (-1j), tol=1e-14)
        image = reflect(p, theta)
        assert image.support() <= {theta[i] for i in p.support()}


def test_reflect_rejects_straddling_support():
    n = 4
    theta = mirror_theta(n)
    with pytest.raises(InvalidSpecError):
        reflect(MajoranaPolynomial(n, {(2, 3): 1.0}), theta)


def test_quadratic_builder_and_split():
    n = 4
    h = quadratic(n, {(1, 2): 0.7, (2, 3): 1.0, (3, 4): 0.7})
    assert h.terms[(1, 2)] == 0.7j and h.terms[(2, 3)] == 1.0j
    assert h.is_even
    with pytest.raises(InvalidSpecError):
        quadratic(n, {(2, 1): 1.0})
    minus, cross, plus = split_by_side(h)
    assert minus.terms == {(1, 2): 0.7j}
    assert cross.terms == {(2, 3): 1.0j}
    assert plus.terms == {(3, 4): 0.7j}


def test_rp_functional_symmetric_quadratic_is_nonnegative():
    n = 4
    theta = mirror_theta(n)
    h = quadratic(n, {(1, 2): 0.7, (3, 4): 0.7, (2, 3): 1.0, (1, 4): 0.4})
    b = MajoranaPolynomial(n, {(1, 2): 1.0})
    for beta in (0.5, 1.0, 2.0):
        assert rp_functional(b, h, theta, beta=beta) >= -1e-10
    rng = np.random.default_rng(12)
    for _ in range(25):
        b = random_even_element(rng, n, max_degree=2)
        assert rp_functional(b, h, theta) >= -1e-10


def test_rp_functional_input_validation():
    n = 4
    theta = mirror_theta(n)
    h = quadratic(n, {(1, 2): 0.5, (3, 4): 0.5, (2, 3): 1.0})
    with pytest.raises(InvalidSpecError):
        rp_functional(MajoranaPolynomial(n, {(1,): 1.0}), h, theta)  # odd element
    lopsided = quadratic(n, {(1, 2): 0.5, (3, 4): 0.9, (2, 3): 1.0})
    with pytest.raises(InvalidSpecError):
        rp_functional(MajoranaPolynomial(n, {(1, 2): 1.0}), lopsided, theta)


def test_fix_cross_signs():
    n = 4
    theta = mirror_theta(n)
    h = quadratic(n, {(1, 2): 0.5, (3, 4): 0.5, (2, 3): -1.0, (1, 4): -0.25})
    fixed, flips = fix_cross_signs(h, theta)
    assert fixed.terms[(2, 3)] == 1.0j and fixed.terms[(1, 4)] == 0.25j
    # both negative-half generators flip, so the bulk term is untouched
    assert (flips(1), flips(2), flips(3), flips(4)) == (-1, -1, 1, 1)
    assert fixed.terms[(1, 2)] == 0.5j
    b = MajoranaPolynomial(n, {(1, 2): 1.0})
    assert rp_functional(b, fixed, theta) >= -1e-10

    missing = quadratic(n, {(1, 2): 0.5, (3, 4): 0.5, (2, 3): 1.0, (1, 4): 0.0})
    with pytest.raises(InvalidSpecError):
        fix_cross_signs(missing, theta)  # zero cross coupling
    odd_form = MajoranaPolynomial(
        n, {(1, 2): 0.5j, (3, 4): 0.5j, (2, 3): 1.0, (1, 4): 0.25j}
    )
    with pytest.raises(InvalidSpecError):
        fix_cross_signs(odd_form, theta)  # cross term not of the i*w form


def test_doubled_hamiltonians_structure():
    n = 8
    theta = mirror_theta(n)
    rng = np.random.default_rng(21)
    weights = {
        pair: float(rng.uniform(-1, 1))
        for pair in ((1, 2), (1, 4), (2, 3), (5, 7), (6, 8), (7, 8))
    }
    weights.update({(i, n + 1 - i): float(rng.uniform(0.5, 1.5)) for i in range(1, 5)})
    h = quadratic(n, weights)
    hm, h0, hp = split_by_side(h)
    h1, h2 = doubled_hamiltonians(hm, h0, hp, theta)
    m1, c1, p1 = split_by_side(h1)
    assert m1.close_to(hm, tol=1e-14) and c1.close_to(h0, tol=1e-14)
    assert p1.close_to(reflect(hm, theta), tol=1e-14)
    m2, c2, p2 = split_by_side(h2)
    assert p2.close_to(hp, tol=1e-14) and c2.close_to(h0, tol=1e-14)
    assert m2.close_to(reflect(hp, theta), tol=1e-14)

    bad_h0 = MajoranaPolynomial(n, {(4, 5): 1.0})  # real coeff: flips under theta
    with pytest.raises(InvalidSpecError):
        doubled_hamiltonians(hm, bad_h0, hp, theta)


def test_trace_bound_and_energy_inequality_symmetric_case():
    n = 8
    theta = mirror_theta(n)
    weights = {(1, 2): 0.6, (3, 4): -0.2, (7, 8): 0.6, (5, 6): -0.2}
    weights.update({(i, n + 1 - i): 1.0 + 0.1 * i for i in range(1, 5)})
    h = quadratic(n, weights)
    hm, h0, hp = split_by_side(h)
    h1, h2 = doubled_hamiltonians(hm, h0, hp, theta)
    # fully symmetric: H1 = H2 = H, the bound is saturated
    assert h1.close_to(h, tol=1e-12) and h2.close_to(h, tol=1e-12)
    for beta in (0.5, 1.0, 2.0):
        rep = trace_bound_check(h, h1, h2, beta=beta)
        assert rep.holds
        assert rep.margin <= 1e-10 * rep.rhs
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    erep = energy_inequality_check(h, h1, h2)
    assert erep.holds
    assert erep.e0 <= 0  # traceless even polynomial
    assert abs(erep.gap) <= 1e-12


def test_trace_bound_asymmetric_bulk():
    n = 8
    theta = mirror_theta(n)
    rng = np.random.default_rng(40)
    weights = {}
    for pair in ((1, 2), (1, 4), (2, 3), (5, 7), (6, 8), (7, 8)):
        weights[pair] = float(rng.uniform(-1, 1))
    for i in range(1, 5):
        weights[(i, n + 1 - i)] = float(rng.uniform(0.5, 1.5))
    h = quadratic(n, weights)
    hm, h0, hp = split_by_side(h)
    h1, h2 = doubled_hamiltonians(hm, h0, hp, theta)
    for beta in (0.5, 1.0, 2.0):
        assert trace_bound_check(h, h1, h2, beta=beta).holds
    erep = energy_inequality_check(h, h1, h2)
    assert erep.holds


def test_even_monomial_enumeration():
    monos = even_monomials((1, 2, 3, 4))
    assert len(monos) == 8  # 1 + C(4,2) + C(4,4)
    assert () in monos and (1, 2, 3, 4) in monos
    assert len(even_monomials((1, 2, 3, 4), max_degree=2)) == 7
    assert all(len(m) % 2 == 0 for m in monos)


def test_random_even_element_support_and_determinism():
    n = 8
    a = random_even_element(np.random.default_rng(5), n)
    b = random_even_element(np.random.default_rng(5), n)
    assert a.terms == b.terms
    assert a.is_even
    assert a.support() <= negative_half(n)


def test_generator_strings_are_exact_majoranas():
    # integer string algebra only: {c_j, c_k} = 2 delta_jk, c_j Hermitian
    one = PauliString(0, 0)
    for n in range(2, 17, 2):
        strings = fock_majoranas(n).strings
        assert len(strings) == n
        for k, c in enumerate(strings):
            assert c * c == one
            assert c.dagger() == c
            for d in strings[:k]:
                cd, dc = c * d, d * c
                assert not c.commutes_with(d)
                assert (cd.x_mask, cd.z_mask) == (dc.x_mask, dc.z_mask)
                assert cd.phase_pow == (dc.phase_pow + 2) % 4


def test_generator_matrices_match_product_states_bytewise():
    for n in range(2, 17, 2):
        want = _kron_majoranas(n)
        got = fock_majoranas(n).matrices
        assert [m.dtype for m in got] == [m.dtype for m in want]
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        assert not any(m.flags.writeable for m in got)
    with pytest.raises(ValueError):
        fock_majoranas(4).matrices[0][0, 0] = 5.0


def test_to_matrix_matches_product_of_dense_generators_bytewise():
    rng = np.random.default_rng(77)
    checked = 0
    for n in range(2, 13, 2):
        theta = mirror_theta(n)
        for _ in range(3):
            b = random_even_element(rng, n)
            h = quadratic(n, {(i, j): float(rng.uniform(-1, 1))
                              for i in range(1, n + 1) for j in range(i + 1, n + 1)
                              if rng.random() < 0.6})
            for poly in (b, h, b * reflect(b, theta)):
                got, want = poly.to_matrix(), _kron_matrix(poly)
                assert got.dtype == want.dtype == np.complex128
                assert got.tobytes() == want.tobytes()
                checked += 1
    assert checked == 54


def test_gibbs_state_is_memoized_per_exact_hamiltonian():
    n = 6
    theta = mirror_theta(n)
    weights = {(1, 2): 0.3, (2, 3): -0.4, (4, 5): -0.4, (5, 6): 0.3, (1, 6): 0.9,
               (2, 5): 1.1, (3, 4): 0.8}
    h = quadratic(n, weights)
    h2 = quadratic(n, {**weights, (3, 4): 0.8 + 2 ** -40})  # one coefficient differs
    b = random_even_element(np.random.default_rng(3), n)
    refl = reflect(b, theta)
    for ham in (h, h2):
        w, v = np.linalg.eigh(ham.to_matrix())
        direct = (v * np.exp(-0.7 * w)) @ v.conj().T
        want = np.trace(b.to_matrix() @ refl.to_matrix() @ direct).real
        assert rp_functional(b, ham, theta, beta=0.7) == want
        state = rp._gibbs(ham, 0.7)
        assert state.tobytes() == direct.tobytes()
        assert not state.flags.writeable
        assert rp._gibbs(ham, 0.7) is state
    assert rp._gibbs(h, 0.7) is not rp._gibbs(h2, 0.7)


def _rp_hamiltonians(rng, n, violate=False):
    """A mirror-symmetric H and the doubled H1 of an asymmetric bulk, with
    positive cross couplings (one negative when ``violate``)."""
    half = n // 2
    bulk = {(i, j): float(rng.uniform(-1, 1))
            for i in range(1, half + 1) for j in range(i + 1, half + 1)}
    cross = {(i, n + 1 - i): float(rng.uniform(0.5, 1.5)) for i in range(1, half + 1)}
    if violate:
        cross[(1, n)] = -cross[(1, n)]
    mirrored = {(n + 1 - j, n + 1 - i): w for (i, j), w in bulk.items()}
    other = {(i, j): float(rng.uniform(-1, 1))
             for i in range(half + 1, n + 1) for j in range(i + 1, n + 1)}
    symmetric = quadratic(n, {**bulk, **mirrored, **cross})
    h1, _ = doubled_hamiltonians(*split_by_side(quadratic(n, {**bulk, **other, **cross})),
                                 mirror_theta(n))
    return symmetric, h1


def _coefficients(b, n, max_degree=4):
    return np.array([b.terms.get(m, 0) for m in even_monomials(negative_half(n), max_degree)])


@pytest.mark.parametrize("violate", [False, True])
def test_reflection_gram_quadratic_form_is_rp_functional(violate):
    rng = np.random.default_rng(2024 + violate)
    for n in (4, 8, 12):
        theta = mirror_theta(n)
        for h in _rp_hamiltonians(rng, n, violate):
            for beta in (0.5, 1.0, 2.0):
                gram = reflection_gram(h, theta, beta)
                size = len(even_monomials(negative_half(n)))
                assert gram.shape == (size, size) and gram.dtype == np.complex128
                assert np.abs(gram - gram.conj().T).max() <= 1e-12 * np.abs(gram).max()
                if not violate:  # reflection positivity: K is positive semi-definite
                    lowest = np.linalg.eigvalsh(gram)[0]
                    assert lowest >= -1e-10 * np.linalg.norm(gram, 2)
                for _ in range(10):
                    b = random_even_element(rng, n)
                    c = _coefficients(b, n)
                    want = rp_functional(b, h, theta, beta=beta)
                    got = c @ gram @ c.conj()
                    assert abs(got - want) <= 1e-12 * abs(want)


def test_reflection_gram_negative_value_in_violate_mode():
    # a negative cross coupling: some B has a negative functional, and K sees it
    n = 8
    theta = mirror_theta(n)
    h, _ = _rp_hamiltonians(np.random.default_rng(4), n, violate=True)
    gram = reflection_gram(h, theta, 1.0)
    w, v = np.linalg.eigh(gram)
    assert w[0] < -1e-6 * np.linalg.norm(gram, 2)
    monos = even_monomials(negative_half(n))
    b = MajoranaPolynomial(n, dict(zip(monos, v[:, 0].conj())))  # c K conj(c) = v^H K v
    assert rp_functional(b, h, theta) == pytest.approx(w[0], rel=1e-12)


def test_reflection_gram_degree_and_order():
    n = 8
    theta = mirror_theta(n)
    h, _ = _rp_hamiltonians(np.random.default_rng(6), n)
    full = reflection_gram(h, theta, 0.7, max_degree=4)
    for degree in (0, 1, 2, 3):
        keep = [k for k, m in enumerate(even_monomials(negative_half(n))) if len(m) <= degree]
        assert reflection_gram(h, theta, 0.7, max_degree=degree).tobytes() == \
            full[np.ix_(keep, keep)].tobytes()
    # K_00 = Tr e^{-beta H}
    assert full[0, 0] == pytest.approx(np.trace(rp._gibbs(h, 0.7)).real, rel=1e-14)
    with pytest.raises(InvalidSpecError):
        reflection_gram(h, theta, 0.7, max_degree=-2)


def test_reflection_gram_rejects_what_rp_functional_rejects():
    n = 4
    theta = mirror_theta(n)
    b = MajoranaPolynomial(n, {(1, 2): 1.0})
    lopsided = quadratic(n, {(1, 2): 0.5, (3, 4): 0.9, (2, 3): 1.0})
    symmetric = quadratic(n, {(1, 2): 0.5, (3, 4): 0.5, (2, 3): 1.0})
    bad_thetas = ({1: 2, 2: 1, 3: 4, 4: 3}, {1: 4, 2: 3, 3: 2}, {1: 1, 2: 3, 3: 2, 4: 4})
    for h, t in [(lopsided, theta)] + [(symmetric, t) for t in bad_thetas]:
        with pytest.raises(InvalidSpecError):
            rp_functional(b, h, t)
        with pytest.raises(InvalidSpecError):
            reflection_gram(h, t)


def test_gibbs_state_that_would_overflow_is_rejected():
    n = 4
    theta = mirror_theta(n)
    h = quadratic(n, {(1, 2): 0.5, (3, 4): 0.5, (2, 3): 1.0})
    b = MajoranaPolynomial(n, {(1, 2): 1.0})
    e0 = float(np.linalg.eigvalsh(h.to_matrix())[0])
    hot = (rp.GIBBS_EXPONENT_LIMIT + 1) / -e0
    with pytest.raises(InvalidSpecError, match="limit"):
        rp_functional(b, h, theta, beta=hot)
    with pytest.raises(InvalidSpecError, match="limit"):
        reflection_gram(h, theta, hot)
    with pytest.raises(InvalidSpecError, match="limit"):
        trace_bound_check(h, h, h, beta=hot)
    # just inside the limit every value is still finite
    cold = (rp.GIBBS_EXPONENT_LIMIT - 1) / -e0
    assert np.isfinite(rp_functional(b, h, theta, beta=cold))
    assert np.isfinite(reflection_gram(h, theta, cold)).all()
    assert np.isfinite(trace_bound_check(h, h, h, beta=cold).margin)


def test_reflection_gram_checks_hermiticity(monkeypatch):
    n = 8
    theta = mirror_theta(n)
    h, _ = _rp_hamiltonians(np.random.default_rng(8), n)
    state = rp._gibbs(h, 1.0)
    skewed = state + 1e-3 * np.abs(state).max() * np.random.default_rng(0).random(state.shape)
    monkeypatch.setattr(rp, "_gibbs", lambda *args: skewed)
    with pytest.raises(MalformedMatrixError):
        reflection_gram(h, theta, 1.0)
