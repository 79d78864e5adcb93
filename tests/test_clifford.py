import inspect
import random

import numpy as np
import pytest

from kitaev_diamond import clifford


def anticommutator(x, y):
    return x @ y + y @ x


def generators(k):
    """Dense matrices of the Cl_k generators."""
    return [s.to_dense() for s in clifford.majorana_rep(k)]


def ladder(k):
    """Ladder operators a_i = (c_{2i-1} + i c_{2i})/2, their adjoints, the
    odd generator b (None for even k) and the vacuum e_0, from the generators.
    """
    c = generators(k)
    m = k // 2
    a = [0.5 * (c[2 * i] + 1j * c[2 * i + 1]) for i in range(m)]
    a_dag = [0.5 * (c[2 * i] - 1j * c[2 * i + 1]) for i in range(m)]
    b = c[-1] if k % 2 == 1 else None
    vac = np.zeros(2**m, dtype=complex)
    vac[0] = 1.0
    return a, a_dag, b, vac


def test_generators_are_exact_involutions():
    for k in range(1, 11):
        c = generators(k)
        dim = 2 ** (k // 2)
        assert len(c) == k and all(g.shape == (dim, dim) for g in c)
        eye = np.eye(dim, dtype=complex)
        for i in range(k):
            for j in range(k):
                want = 2.0 * eye if i == j else np.zeros_like(eye)
                # monomial matrices with entries 0, +-1, +-i: no rounding at all
                assert np.array_equal(anticommutator(c[i], c[j]), want)


def test_generators_hermitian_and_monomial():
    for c in generators(6):
        assert np.array_equal(c, c.conj().T)
        assert np.all(np.isin(np.abs(c), (0.0, 1.0)))
        assert np.array_equal(np.count_nonzero(c, axis=0), np.ones(8, int))


def test_odd_k_chirality_is_plus_identity():
    for k in (1, 3, 5, 7, 9, 11):
        m = (k - 1) // 2
        eye = np.eye(2**m, dtype=complex)
        prod = eye
        for c in generators(k):
            prod = prod @ c
        assert np.array_equal((1j) ** m * prod, eye)


@pytest.mark.parametrize("k", [*range(13, 42, 2), 2049, 2895])
def test_odd_generator_is_the_parity(k):
    """Past the dense test's k <= 11, on strings: the odd generator is
    D = i^m c_1 ... c_{2m}, and the chirality product is +Id."""
    c = clifford.majorana_rep(k)
    m = k // 2
    prod = clifford.PauliString(m, phase=m % 4)
    for g in c:
        prod = prod * g
    assert prod == clifford.PauliString(m)
    assert c[-1] == clifford.d_operator(k - 2)


def test_cap_rejects_oversized_k():
    # 2897 strings of 1448 qubits pass the entry budget of 2^22
    with pytest.raises(ValueError, match="generator count k=2897 is over the budget"):
        clifford.majorana_rep(2897)
    with pytest.raises(ValueError):
        clifford.majorana_rep(0)


def test_builders_are_plain_functions_over_bounded_memos(monkeypatch):
    """The public builders stay plain functions with no memo behind them
    (tools that wrap functions see every call); refused sizes raise before
    `_site_strings` is called, and every admitted call builds its size once."""
    builders = (clifford.majorana_rep, clifford.spin_ops, clifford.d_operator)
    assert all(inspect.isfunction(f) for f in builders)
    calls = []

    def counted(k, _f=clifford._site_strings):
        calls.append(k)
        return _f(k)

    monkeypatch.setattr(clifford, "_site_strings", counted)
    # k = 2897 is the first count whose k strings of k//2 qubits pass 2^22
    for bad in (0, -1, 2.0, 2897, 10**30):
        with pytest.raises(ValueError):
            clifford.majorana_rep(bad)
    for bad in (0, 1.0, 2895):
        for f in builders[1:]:
            with pytest.raises(ValueError):
                f(bad)
    assert calls == []
    assert len(clifford.majorana_rep(2896)) == 2896
    assert len(clifford.spin_ops(2894)) == 2895
    assert clifford.d_operator(2894).n == 1448
    assert calls == [2896, 2896, 2896]
    assert clifford.spin_ops(np.int64(3)) == clifford.spin_ops(3)


def test_ladder_relations():
    """{a_i,a_j} = {a_i^+,a_j^+} = 0, {a_i,a_j^+} = delta_ij, plus b relations."""
    for k in (2, 3, 4, 5, 6, 7, 8, 9):
        a, a_dag, b, _ = ladder(k)
        m = k // 2
        assert len(a) == m
        eye = np.eye(2**m, dtype=complex)
        zero = np.zeros_like(eye)
        for i in range(m):
            for j in range(m):
                assert np.max(np.abs(anticommutator(a[i], a[j]))) < 1e-14
                dag = anticommutator(a[i], a_dag[j])
                want = eye if i == j else zero
                assert np.max(np.abs(dag - want)) < 1e-14
        if k % 2 == 1:
            assert b is not None
            assert np.max(np.abs(b @ b - eye)) < 1e-14
            for i in range(m):
                assert np.max(np.abs(anticommutator(a[i], b))) < 1e-14
                assert np.max(np.abs(anticommutator(a_dag[i], b))) < 1e-14
        else:
            assert b is None


def test_vacuum_is_exactly_annihilated():
    # under Jordan-Wigner the vacuum is the basis state e_0, with no rounding
    for k in range(2, 13):
        a, _, _, vac = ladder(k)
        assert np.array_equal(vac, np.eye(2 ** (k // 2), dtype=complex)[0])
        for op in a:
            assert np.array_equal(op @ vac, np.zeros_like(vac))


def test_vacuum_b_parity():
    # b acts on the vacuum by (-1)^m, m = (k-1)/2; the sign alternates with m
    for k, sign in ((3, -1.0), (5, 1.0), (7, -1.0), (9, 1.0)):
        _, _, b, vac = ladder(k)
        assert np.allclose(b @ vac, sign * vac, atol=1e-14)


def test_d_operator_diagonal_pm_one():
    for d in range(2, 8):
        D = clifford.d_operator(d).to_dense()
        dim = D.shape[0]
        assert np.array_equal(D, np.diag(np.diag(D)))
        diag = np.real(np.diag(D))
        assert np.array_equal(np.abs(diag), np.ones(dim))
        assert np.array_equal(D.imag, np.zeros_like(D.imag))


def test_d_operator_eigenspace_dimension():
    for d in range(2, 7):
        D = clifford.d_operator(d).to_dense()
        nplus = int(np.sum(np.real(np.diag(D)) > 0))
        assert nplus == 2 ** (d // 2)


def test_d_operator_low_dim_anchor():
    want = -np.linalg.multi_dot(generators(4))
    assert np.array_equal(clifford.d_operator(2).to_dense(), want)


def d_operator_pair_product(d):
    """The parity operator D assembled from the bond-Majorana pairs c_i c_{d+2}.

    The prefactor carries an extra (-1)^(floor(d/2)+1) relative to the naive
    exponent bookkeeping; the sign is anchored by the d=2 requirement
    D = -c_1 c_2 c_3 c_4 and by agreement with `d_operator` for every d.
    """
    c = generators(d + 2)
    half = d // 2 + 1
    sign = (-1.0) ** ((d + 1) // 2 + half)
    pref = sign * (1 / 1j) ** half
    out = pref * np.eye(2**half, dtype=complex)
    for i in range(d + 1):
        out = out @ c[i] @ c[d + 1]
    return out


def test_d_operator_pair_product_matches():
    for d in range(2, 9):
        assert np.array_equal(clifford.d_operator(d).to_dense(),
                              d_operator_pair_product(d))


def test_two_mode_ladder_matrices_explicit():
    """k=4 ladder operators in the basis ordered by the second mode first.

    Swapping the two middle basis vectors moves the sign string from the
    first slot to the second, giving the familiar explicit matrices."""
    a, a_dag, _, _ = ladder(4)
    P = np.zeros((4, 4))
    P[0, 0] = P[3, 3] = P[1, 2] = P[2, 1] = 1.0
    a1 = np.array(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=complex
    )
    a2 = np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
    )
    assert np.array_equal(P @ a[0] @ P, a1)
    assert np.array_equal(P @ a[1] @ P, a2)
    assert np.array_equal(P @ a_dag[0] @ P, a1.conj().T)
    assert np.array_equal(P @ a_dag[1] @ P, a2.conj().T)


def test_restricted_spin_ops_form_pauli_frame():
    """d=2 spin operators restricted to the D = +1 subspace.

    The restriction is a Pauli frame up to an overall sign gauge: three
    traceless Hermitian involutions that pairwise anticommute, with triple
    product -i times the identity (the uniform i c_k c_4 convention lands
    on the sign-flipped frame -sigma_x, -sigma_y, -sigma_z)."""
    D = clifford.d_operator(2).to_dense()
    idx = np.where(np.real(np.diag(D)) > 0)[0]
    assert list(idx) == [0, 3]
    restricted = [s.to_dense()[np.ix_(idx, idx)] for s in clifford.spin_ops(2)]
    eye = np.eye(2, dtype=complex)
    for s in restricted:
        assert np.array_equal(s, s.conj().T)
        assert np.array_equal(s @ s, eye)
        assert s.trace() == 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(restricted[i] @ restricted[j]
                                 + restricted[j] @ restricted[i])) == 0.0
    triple = restricted[0] @ restricted[1] @ restricted[2]
    assert np.array_equal(triple, -1j * eye)
    assert np.array_equal(restricted[2], np.diag([-1.0 + 0j, 1.0 + 0j]))


def test_spin_ops_algebra():
    for d in (2, 3, 4, 5):
        sig = [s.to_dense() for s in clifford.spin_ops(d)]
        assert len(sig) == d + 1
        dim = sig[0].shape[0]
        eye = np.eye(dim, dtype=complex)
        for s in sig:
            assert np.array_equal(s, s.conj().T)
            assert np.array_equal(s @ s, eye)
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                assert np.max(np.abs(anticommutator(sig[i], sig[j]))) == 0.0


def test_spin_ops_parity_pattern_with_d():
    # sigma^k commutes with D for even d and anticommutes for odd d; either
    # way two-site products commute with the doubled operator
    for d in (2, 3, 4, 5):
        D = clifford.d_operator(d).to_dense()
        sign = 1.0 if d % 2 == 0 else -1.0
        for s in clifford.spin_ops(d):
            s = s.to_dense()
            assert np.max(np.abs(s @ D - sign * D @ s)) == 0.0


PAULI = {(0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]),
         (0, 1): np.diag([1, -1]), (1, 1): np.array([[0, -1], [1, 0]])}


def kron_reference(s):
    """i^phase X^x Z^z as a Kronecker chain, qubit 0 the first factor."""
    out = np.array([[1j**s.phase]])
    for q in range(s.n):
        bit = s.n - 1 - q
        out = np.kron(out, PAULI[s.x >> bit & 1, s.z >> bit & 1])
    return out


def random_strings(rng, n, count):
    top = 1 << n
    return [
        clifford.PauliString(n, int(rng.integers(top)), int(rng.integers(top)),
                             int(rng.integers(4)))
        for _ in range(count)
    ]


def test_pauli_string_arithmetic_matches_matrices():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 3):
        strings = random_strings(rng, n, 12)
        for a in strings:
            A = a.to_dense()
            assert np.array_equal(A, kron_reference(a))
            M = a.to_matrix()
            assert np.array_equal(M.x, [a.x]) and M.values.shape == (2**n, 1)
            assert np.array_equal(np.count_nonzero(A, axis=1), np.ones(2**n, int))
            assert a.is_hermitian() == np.array_equal(A, A.conj().T)
            for b in strings:
                B = b.to_dense()
                assert np.array_equal((a * b).to_dense(), A @ B)
                commute = not clifford._anticommuting([b], a)
                assert commute == np.array_equal(A @ B, B @ A)


def test_string_matrices_are_refused_past_the_budget(monkeypatch):
    """A 22-qubit string's matrix and an 11-qubit dense matrix hold 2^22
    entries, the budget; one qubit more is refused before any allocation."""
    assert clifford.PauliString(22, x=1, z=3).to_matrix().shape == (2**22, 2**22)
    assert clifford.PauliString(11, x=5, z=6).to_dense().shape == (2**11, 2**11)
    twelve = clifford.PauliString(12, x=5, z=6).to_matrix()

    def allocate(*args, **kwargs):
        raise AssertionError("a matrix was allocated")

    monkeypatch.setattr(np, "zeros", allocate)
    budget = "is over the budget of 4194304 entries$"
    with pytest.raises(ValueError, match=f"^matrix of a 23-qubit Pauli string {budget}"):
        clifford.PauliString(23, x=1).to_matrix()
    with pytest.raises(ValueError, match=f"^dense matrix of order 4096 {budget}"):
        twelve.toarray()


def test_joint_plus_dimension_matches_dense_kernel():
    """GF(2) count vs the kernel of the stacked (g - Id) matrices."""
    rng = np.random.default_rng(5)
    seen = set()
    for trial in range(400):
        n = int(rng.integers(1, 4))
        strings = random_strings(rng, n, int(rng.integers(1, 5)))
        # bias towards commuting Hermitian sets, where the answer is nonzero
        if trial % 2:
            strings = [clifford.PauliString(n, 0, s.z, 2 * (s.phase % 2))
                       for s in strings]
        eye = np.eye(2**n)
        stacked = np.vstack([s.to_dense() - eye for s in strings])
        want = 2**n - np.linalg.matrix_rank(stacked)
        got = clifford.joint_plus_dimension(strings)
        assert got == want
        seen.add(got)
    assert 0 in seen and len(seen) >= 3


@pytest.mark.parametrize("strings", [
    [clifford.PauliString(1, 0, 1), clifford.PauliString(2, 0, 1)],
    [clifford.PauliString(2), clifford.PauliString(2, 1), clifford.PauliString(3)],
    # a width that differs after a string that already empties the space
    [clifford.PauliString(1, phase=1), clifford.PauliString(2)],
    # the set is nonempty
    [],
])
def test_joint_plus_dimension_refuses_mixed_widths(strings):
    with pytest.raises(ValueError, match="qubit counts differ" if strings else "at least one"):
        clifford.joint_plus_dimension(strings)


@pytest.mark.parametrize("strings", [
    [clifford.PauliString(2, 1, 1), clifford.PauliString(3, 1, 1)],
    [clifford.PauliString(3, 5), clifford.PauliString(3, 2), clifford.PauliString(2, 1)],
])
def test_mask_matrix_refuses_mixed_widths(strings):
    with pytest.raises(ValueError, match="qubit counts differ"):
        clifford._mask_matrix(strings, [1.0] * len(strings), "mixed widths")


def qubitwise(a, b):
    """(phase power of a * b, whether a and b commute), multiplied out one
    qubit at a time from 2x2 matrices; any width."""
    coef, flips = 1j ** (a.phase + b.phase), 0
    for bit in range(a.n):
        pa, pb = (a.x >> bit & 1, a.z >> bit & 1), (b.x >> bit & 1, b.z >> bit & 1)
        AB, BA = PAULI[pa] @ PAULI[pb], PAULI[pb] @ PAULI[pa]
        C = PAULI[pa[0] ^ pb[0], pa[1] ^ pb[1]]
        coef *= np.trace(C.T @ AB) / 2  # AB = coef C, C real orthogonal
        flips += not np.array_equal(AB, BA)  # the qubit's factors anticommute
    return {1: 0, 1j: 1, -1: 2, -1j: 3}[coef], flips % 2 == 0


def test_shared_phase_and_commutation_helpers():
    """`_product_phase` and `_anticommuting` agree with `__mul__` and a
    qubit-by-qubit product, on strings past 64 bits too."""
    rng = random.Random(11)
    for n in (1, 3, 63, 64, 65, 130):
        strings = [clifford.PauliString(n, rng.getrandbits(n), rng.getrandbits(n),
                                        rng.randrange(4)) for _ in range(8)]
        for s in strings:
            odd = clifford._anticommuting(strings, s)
            for k, t in enumerate(strings):
                phase, commute = qubitwise(t, s)
                product = t * s
                assert (product.x, product.z) == (t.x ^ s.x, t.z ^ s.z)
                assert product.phase == phase
                assert clifford._product_phase(t.phase, t.z, s.x, s.phase) == phase
                assert (k not in odd) == commute
