import copy
import dataclasses
import inspect
import json
import math
import pickle

import numpy as np
import pytest
from scipy import sparse

from kitaev_diamond import cli, clifford, lattice, spectrum, spinham
from kitaev_diamond.lattice import build_torus

J2 = [1.0, 0.8, -0.6]

# -- reference: operators as Kronecker chains of Pauli matrices -------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _kron_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def ref_majorana(k):
    """Jordan-Wigner generators of Cl_k, chirality i^m c_1...c_k = +Id for odd k."""
    m = k // 2
    if m == 0:
        return [np.eye(1, dtype=complex)]
    eye = np.eye(2, dtype=complex)
    c = []
    for j in range(1, m + 1):
        head, tail = [PAULI_Z] * (j - 1), [eye] * (m - j)
        c.append(_kron_chain(head + [PAULI_X] + tail))
        c.append(_kron_chain(head + [PAULI_Y] + tail))
    if k % 2 == 1:
        z_string = _kron_chain([PAULI_Z] * m)
        if np.array_equal((1j) ** m * np.linalg.multi_dot(c + [z_string]),
                          -np.eye(2**m)):
            z_string = -z_string
        c.append(z_string)
    return c


def edges(torus):
    """(frm, to, label) of every edge, in edge order, as Python ints."""
    return list(zip(torus.frm.tolist(), torus.to.tolist(), torus.label.tolist()))


def on_site(s, v, n):
    """Site string s on tensor factor v of n, by the layout the spinham module
    documents: factor v starts at bit (n - 1 - v) * s.n."""
    shift = (n - 1 - v) * s.n
    return clifford.PauliString(s.n * n, s.x << shift, s.z << shift, s.phase)


def ref_spin_ops(d):
    c = ref_majorana(d + 2)
    return [1j * c[k] @ c[d + 1] for k in range(d + 1)]


def ref_d_operator(d):
    c = ref_majorana(d + 2)
    m = (d + 2) // 2
    out = float((-1) ** m) * np.eye(c[0].shape[0], dtype=complex)
    for i in range(m):
        out = out @ (-1j * c[2 * i] @ c[2 * i + 1])
    return out


def _embed(site_ops, n_sites, site_dim):
    """Kronecker chain acting with the given operators on selected sites."""
    out = None
    for site in range(n_sites):
        factor = site_ops.get(site)
        if factor is None:
            factor = sparse.identity(site_dim, dtype=complex, format="csr")
        out = factor if out is None else sparse.kron(out, factor, format="csr")
    return out


def ref_system(torus, J):
    """(H, link operators, parity) assembled from sparse Kronecker chains."""
    n_sites = 2 * torus.n_cells
    sigmas = [sparse.csr_matrix(s) for s in ref_spin_ops(torus.d)]
    site_dim = sigmas[0].shape[0]
    total_dim = site_dim**n_sites
    H = sparse.csr_matrix((total_dim, total_dim), dtype=complex)
    for frm, to, label in edges(torus):
        sig = sigmas[label - 1]
        H = H - J[label - 1] * _embed({frm: sig, to: sig}, n_sites, site_dim)
    c = [sparse.csr_matrix(g) for g in ref_majorana(torus.d + 2)]
    links = [_embed({frm: c[label - 1], to: c[label - 1]}, n_sites, site_dim)
             for frm, to, label in edges(torus)]
    D = sparse.csr_matrix(ref_d_operator(torus.d))
    parity = _embed({v: D for v in range(n_sites)}, n_sites, site_dim)
    return H.tocsr(), links, parity.tocsr()


def csr(M):
    """M as scipy CSR, exact zeros dropped and indices sorted, like the kron-chain references."""
    dim = M.shape[0]
    cols = np.arange(dim)[:, None] ^ M.x
    stored = M.values != 0
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    A = sparse.csr_matrix((M.values[stored], cols[stored], indptr), shape=M.shape)
    A.sort_indices()
    return A


def coupling_draws(d, seed):
    """A random draw, all ones, and +-1 alternating (couplings that cancel)."""
    yield np.random.default_rng(seed).uniform(-2.0, 2.0, size=d + 1)
    yield np.ones(d + 1)
    yield np.where(np.arange(d + 1) % 2 == 0, 1.0, -1.0)


def assert_same_matrix(got, want):
    got = csr(got)
    assert got.shape == want.shape
    assert (got != want).nnz == 0
    if got.shape[0] <= 1024:
        assert np.array_equal(got.toarray(), want.toarray())


@pytest.mark.parametrize(
    "d,N", [(2, 1), (3, 1), (7, 1), (14, 1), (15, 1), (2, 2), (1, 3)]
)
def test_mask_operators_match_kron_chains(d, N):
    torus = build_torus(d, N)
    for J in coupling_draws(d, 100 * d + N):
        sys_ = spinham.build_spin_hamiltonian(torus, J)
        H, links, parity = ref_system(torus, J)
        assert_same_matrix(sys_.hamiltonian, H)
        # same per-entry rounding and dropped zeros, so H agrees bit for bit
        got = csr(sys_.hamiltonian)
        assert np.array_equal(got.indptr, H.indptr)
        assert np.array_equal(got.indices, H.indices)
        assert np.array_equal(got.data.view(np.uint64), H.data.view(np.uint64))
    assert len(sys_.link_ops) == len(links) == torus.label.size
    for got, want in zip(sys_.link_ops, links):
        assert_same_matrix(got.to_matrix(), want)
    assert_same_matrix(sys_.parity.to_matrix(), parity)


def test_single_site_strings_match_kron_chains():
    for k in range(1, 13):
        for got, want in zip(clifford.majorana_rep(k), ref_majorana(k), strict=True):
            assert np.array_equal(got.to_dense(), want)
    for d in range(1, 10):
        assert np.array_equal(clifford.d_operator(d).to_dense(), ref_d_operator(d))
        for got, want in zip(clifford.spin_ops(d), ref_spin_ops(d), strict=True):
            assert np.array_equal(got.to_dense(), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_one_step_strings_match_on_site_products(d, N):
    """Each edge string and the parity, built in one step, equal the product
    of the site strings shifted to their tensor slots."""
    torus = build_torus(d, N)
    n = 2 * torus.n_cells
    for site_strings in (clifford.spin_ops(d), clifford.majorana_rep(d + 2)):
        want = tuple(
            on_site(site_strings[label - 1], frm, n) * on_site(site_strings[label - 1], to, n)
            for frm, to, label in edges(torus)
        )
        assert spinham._edge_strings(site_strings, torus) == want
    # the parity is built with the model
    D = clifford.d_operator(d)
    parity = clifford.PauliString(D.n * n)
    for v in range(n):
        parity = parity * on_site(D, v, n)
    assert spinham.build_spin_hamiltonian(torus, np.ones(d + 1)).parity == parity


def test_site_and_register_dims():
    """A site holds 2^(d//2 + 1) dimensions and the register their 2 N^d-th power."""
    for d, site_dim, total_dim in [(2, 4, 16), (3, 4, 16), (4, 8, 64)]:
        system = spinham.build_spin_hamiltonian(build_torus(d, 1), np.ones(d + 1))
        assert 1 << clifford.d_operator(d).n == site_dim
        assert system.total_dim == total_dim


def test_hamiltonian_fits_refuses_3_2_and_admits_2_2():
    assert not spinham.hamiltonian_fits(build_torus(3, 2))
    # d=2, N=2 allocates 2^16 x 12 entries, within the entry budget
    torus = build_torus(2, 2)
    assert spinham.hamiltonian_fits(torus)
    assert spinham.build_spin_hamiltonian(torus, np.ones(3)).total_dim == 65536


@pytest.mark.parametrize("d,N", [(1, 8), (1, 9), (2, 2), (3, 2), (15, 1), (16, 1)])
def test_hamiltonian_fits_exactly_where_the_expansion_is_admitted(monkeypatch, d, N):
    """The predicate is the expansion's own budget: where it holds H expands,
    and elsewhere H is refused before anything is allocated."""
    torus = build_torus(d, N)
    system = spinham.build_spin_hamiltonian(torus, np.ones(d + 1))
    if spinham.hamiltonian_fits(torus):
        assert system.hamiltonian.shape == (system.total_dim,) * 2
        return

    def expand(*args, **kwargs):
        raise AssertionError("the expansion started")

    monkeypatch.setattr(np, "zeros", expand)
    with pytest.raises(ValueError, match=f"spin model on torus d={d}, N={N} is over the budget"):
        system.hamiltonian


def test_admitted_spin_tori():
    """The model is built where its (d+1) N^d edge strings of 2 N^d (d//2 + 1)
    qubits each fit the entry budget of 2^22."""
    admitted = []
    for d in range(1, 40):
        for N in range(1, 40):
            try:
                spinham.build_spin_hamiltonian(build_torus(d, N), np.ones(d + 1))
            except ValueError:
                continue
            admitted.append((d, N))
    want = [(d, N) for d in range(1, 40) for N in range(1, 40)
            if (d + 1) * N**d * 2 * N**d * (d // 2 + 1) <= 2**22]
    assert len(want) == 114
    assert admitted == want


# the next torus past the largest admitted one at d = 2047, 1, 2 and 3
@pytest.mark.parametrize("d,N", [(2048, 1), (1, 1025), (2, 25), (3, 9)])
def test_spin_model_refused_past_the_string_budget(d, N):
    with pytest.raises(ValueError, match=f"spin model on torus d={d}, N={N} is over the budget"):
        spinham.build_spin_hamiltonian(build_torus(d, N), np.ones(d + 1))


def test_hamiltonian_refused_before_any_allocation(monkeypatch):
    """d = 16, N = 1 is built (17 strings of 18 qubits); the 2^18 x 17 entries
    of its matrix are refused before the expansion allocates them."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(16, 1), np.ones(17))
    assert sys_.total_dim == 2**18

    def expand(*args, **kwargs):
        raise AssertionError("the expansion started")

    monkeypatch.setattr(np, "zeros", expand)
    monkeypatch.setattr(clifford.PauliString, "to_matrix", expand)
    with pytest.raises(ValueError, match="spin model on torus d=16, N=1 is over the budget"):
        sys_.hamiltonian


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hamiltonian_near_the_float_maximum_is_infinite_not_nan(d):
    """Couplings near the float maximum overflow the running sums without a
    warning (the suite makes one an error); an overflowed entry is +-inf."""
    H = spinham.build_spin_hamiltonian(build_torus(d, 1), [1.7e308] * (d + 1)).hamiltonian
    assert not np.isnan(H.values).any()
    assert np.isinf(H.values).any()
    # an entry that stays in range is the unit-coupling entry times 1.7e308
    unit = spinham.build_spin_hamiltonian(build_torus(d, 1), [1.0] * (d + 1)).hamiltonian
    with np.errstate(over="ignore"):
        want = unit.values * 1.7e308
    kept = np.isfinite(H.values)
    assert np.array_equal(H.x, unit.x)
    assert np.array_equal(H.values[kept], want[kept])


def test_hamiltonian_hermitian_and_real_spectrum():
    t = build_torus(2, 1)
    sys_ = spinham.build_spin_hamiltonian(t, J2)
    H = csr(sys_.hamiltonian)
    assert H.shape == (16, 16)
    diff = (H - H.conj().T).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0


def test_operator_identities_exact():
    for d in (2, 3, 4, 5):
        t = build_torus(d, 1)
        sys_ = spinham.build_spin_hamiltonian(t, np.linspace(-1.0, 1.3, d + 1))
        rep = spinham.verify_operator_identities(sys_)
        assert rep["max_residual"] == 0.0
        assert rep["links_exact_pm_one"]
        assert rep["parity_diagonal_pm_one"]


def odd_term_system(sys_):
    """sys_ with term 0 replaced by one Majorana generator on site 0.

    The generator anticommutes with the parity and with every link on site 0
    whose label is not 1.
    """
    torus = sys_.torus
    c1 = on_site(clifford.majorana_rep(torus.d + 2)[0], 0, 2 * torus.n_cells)
    return dataclasses.replace(sys_, term_strings=(c1, *sys_.term_strings[1:]))


def corrupted_systems(sys_):
    """Copies of sys_ with one term or frame string broken, by name."""
    u, P = sys_.link_ops[0], sys_.parity
    # i u is not Hermitian, nor is u with a z bit flipped under one of its x
    # bits (X and Y = i X Z differ by that i); an X on the parity's first
    # qubit makes it off-diagonal
    odd_phase = dataclasses.replace(u, phase=(u.phase + 1) % 4)
    lost_i = dataclasses.replace(u, z=u.z ^ (u.x & -u.x))
    off_diagonal = dataclasses.replace(P, x=P.x ^ (1 << (P.n - 1)))
    return {
        "link sign": dataclasses.replace(sys_, link_ops=(odd_phase, *sys_.link_ops[1:])),
        "parity sign": dataclasses.replace(sys_, parity=off_diagonal),
        "term string": odd_term_system(sys_),
        "link string": dataclasses.replace(sys_, link_ops=(lost_i, *sys_.link_ops[1:])),
    }


def trips(rep):
    return not (
        rep["max_residual"] == 0.0
        and rep["links_exact_pm_one"]
        and rep["parity_diagonal_pm_one"]
    )


def test_identity_checks_read_the_matrices():
    """A term that breaks the symmetries, or a link or parity string that is
    not an involution of the right kind, trips the checks."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(2, 1), J2)
    bad = corrupted_systems(sys_)
    rep = spinham.verify_operator_identities(bad["link sign"])
    assert rep["link_involution_max"] > 0 and not rep["links_exact_pm_one"]
    rep = spinham.verify_operator_identities(bad["parity sign"])
    assert rep["commutator_parity"] > 0 and not rep["parity_diagonal_pm_one"]
    rep = spinham.verify_operator_identities(bad["term string"])
    assert rep["commutator_links_max"] > 0 and rep["commutator_parity"] > 0
    assert trips(rep)
    rep = spinham.verify_operator_identities(bad["link string"])
    assert not rep["links_exact_pm_one"] and rep["link_involution_max"] > 0
    assert trips(rep)


def test_hamiltonian_expansion_rounds_like_sequential_subtraction():
    """Bit for bit what subtracting J_k t_k one at a time from an empty CSR gives.

    Few x masks put up to eight terms on one entry, and the couplings include
    +-0.0 and exact cancellations, so entries are dropped and restarted.
    """
    rng = np.random.default_rng(7)
    n, dim = 4, 16
    for _ in range(200):
        terms = [clifford.PauliString(n, int(rng.integers(2)), int(rng.integers(dim)),
                                      int(rng.integers(4))) for _ in range(8)]
        J = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, 1e-17], size=8)
        want = sparse.csr_matrix((dim, dim), dtype=complex)
        for t, j in zip(terms, J):
            want = want - j * csr(t.to_matrix())
        got = csr(clifford._mask_matrix(terms, -J, "test terms"))
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@pytest.mark.parametrize("J01", [(0.5, 1.25), (1.0, -1.0)])
def test_commutator_residual_on_strings(J01):
    """Terms that anticommute with the frame give the products' residual.

    One Majorana generator on site 0 stands in for the first two terms; it
    anticommutes with the parity and with every link but the first.  With
    opposite couplings the two copies cancel, in H and in the residual.
    """
    torus = build_torus(2, 1)
    J = np.array([*J01, 0.75])
    sys_ = spinham.build_spin_hamiltonian(torus, J)
    c1 = on_site(clifford.majorana_rep(4)[0], 0, 2)
    terms = (c1, c1, *sys_.term_strings[2:])
    odd = dataclasses.replace(sys_, term_strings=terms)
    rep = spinham.verify_operator_identities(odd)
    ref = ref_verify_operator_identities(odd)
    for key, value in ref.items():
        assert rep[key] == pytest.approx(value, rel=1e-14, abs=0.0), key
    assert (rep["commutator_links_max"] > 0) == (J01[0] != -J01[1])


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308, 1e-300])
def test_identity_report_stays_finite(value):
    """A wild coupling on a symmetry-breaking term gives finite positive
    residuals, never inf or NaN."""
    sys_ = odd_term_system(spinham.build_spin_hamiltonian(build_torus(3, 1), np.ones(4)))
    couplings = sys_.couplings.copy()
    couplings[0] = value
    rep = spinham.verify_operator_identities(dataclasses.replace(sys_, couplings=couplings))
    json.dumps(rep, allow_nan=False)
    for key in ("commutator_parity", "commutator_links_max"):
        assert 0.0 < rep[key] <= np.finfo(float).max
    assert rep["links_exact_pm_one"] and rep["parity_diagonal_pm_one"]


def test_checks_build_no_strings(monkeypatch):
    """The identity checks and the plus sector read masks and phases: on a
    correct model they construct no PauliString at all."""
    systems = [spinham.build_spin_hamiltonian(build_torus(d, N), np.linspace(-1.0, 1.3, d + 1))
               for d, N in [(d, 1) for d in range(2, 16)] + [(1, 8)]]
    bad = odd_term_system(systems[0])
    sectors = [spinham.plus_sector_dimension(sys_) for sys_ in systems]
    built = []
    init = clifford.PauliString.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(clifford.PauliString, "__init__", counting_init)
    for sys_, sector in zip(systems, sectors):
        assert not trips(spinham.verify_operator_identities(sys_))
        assert clifford.joint_plus_dimension((*sys_.link_ops, sys_.parity)) == sector
    assert built == []
    # d = 5, 9, 13: some product of the frame is -Id, found by the elimination
    assert sectors.count(0) == 4 and sectors[-1] == 0
    # a symmetry-breaking term is multiplied out, so the count does see strings
    assert trips(spinham.verify_operator_identities(bad)) and built


@pytest.mark.parametrize("log2_dim", [1023, 1024, 1100])
def test_residuals_at_dimensions_past_the_float_range(log2_dim):
    """sqrt(dim) is not a float from 2^1024 on: zero residuals stay 0.0 and
    nonzero ones saturate; below that the bits are those of sqrt(dim)."""
    dim = 2**log2_dim
    torus = build_torus(2, 1)
    sys_ = spinham.build_spin_hamiltonian(torus, J2)
    J = sys_.couplings.tolist()
    u, P = sys_.link_ops[0], sys_.parity
    c1 = on_site(clifford.majorana_rep(4)[0], 0, 2)  # anticommutes with the parity
    top = np.finfo(float).max
    finite = dim < 2**1024
    masks = spinham._frame_facts(sys_.term_strings, sys_.link_ops, P)[0]
    assert masks[0] == 0
    assert spinham._commutator_norm(sys_.term_strings, J, P, masks[0], dim) == 0.0
    odd_masks = spinham._frame_facts((c1,), (), P)[0]
    assert odd_masks == (1,)
    odd = spinham._commutator_norm((c1,), [0.75], P, odd_masks[0], dim)
    assert odd == (1.5 * math.sqrt(dim) if finite else top)
    assert spinham._involution_norm(u, dim) == 0.0
    minus_id = dataclasses.replace(u, phase=(u.phase + 1) % 4)  # squares to -Id
    assert spinham._involution_norm(minus_id, dim) == (2 * math.sqrt(dim) if finite else top)


def test_involution_residual_bits_below_the_float_range():
    """||S S + Id - 2 Id|| = 2 sqrt(dim) rounds like sqrt(4 dim), odd dims too."""
    minus_id = clifford.PauliString(1, phase=1)
    for dim in (1, 2, 3, 5, 7, 2**53 + 1, 2**60 + 3, 2**1021 + 1, 2**1022 - 2**969):
        assert spinham._involution_norm(minus_id, dim) == math.sqrt(4 * dim)


# -- reference: the identities from sparse matrix products -------------------


def _fro(X) -> float:
    if not X.nnz:
        return 0.0
    X.sum_duplicates()
    return float(np.linalg.norm(X.data))


def ref_verify_operator_identities(system):
    """The report formed from the operators' matrices alone, by sparse products."""
    H = csr(system.hamiltonian)
    P = csr(system.parity.to_matrix())
    eye = sparse.identity(system.total_dim, dtype=complex, format="csr")
    comm_parity = _fro(H @ P - P @ H)
    comm_links = 0.0
    link_inv = 0.0
    exact_links = True
    for u in (csr(s.to_matrix()) for s in system.link_ops):
        comm_links = max(comm_links, _fro(H @ u - u @ H))
        diff = (u @ u - eye).tocsr()
        diff.eliminate_zeros()
        herm = (u - u.conj().T).tocsr()
        herm.eliminate_zeros()
        link_inv = max(link_inv, _fro(diff))
        if diff.nnz or herm.nnz or u.diagonal().sum() != 0:
            exact_links = False
    parity_diff = (P @ P - eye).tocsr()
    parity_diff.eliminate_zeros()
    residuals = {
        "commutator_parity": comm_parity,
        "commutator_links_max": comm_links,
        "parity_involution": _fro(parity_diff),
        "link_involution_max": link_inv,
    }
    residuals["max_residual"] = max(residuals.values())
    residuals["links_exact_pm_one"] = exact_links
    residuals["parity_diagonal_pm_one"] = bool(
        np.all(np.abs(P.diagonal()) == 1.0) and parity_diff.nnz == 0
        and P.diagonal().sum() == 0
    )
    return residuals


@pytest.mark.parametrize("d,N", [(2, 1), (3, 1), (2, 2), (1, 4)])
def test_a_parity_of_plus_or_minus_identity_fails_the_diagonal_check(d, N):
    """+Id and -Id are diagonal Hermitian involutions that commute with
    every term, but not traceless: the check fails them, as the matrices do."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), J2[:1] * (d + 1))
    n = sys_.parity.n
    for phase in (0, 2):
        bad = dataclasses.replace(sys_, parity=clifford.PauliString(n, 0, 0, phase))
        rep = spinham.verify_operator_identities(bad)
        assert rep["max_residual"] == 0.0 and not rep["parity_diagonal_pm_one"], phase
        assert rep == ref_verify_operator_identities(bad)
        assert cli.verify_ops_payload(bad)["pass"] is False


ORACLE_TORI = [(d, 1) for d in range(1, 12)] + [(1, N) for N in range(2, 6)] + [(2, 2)]


@pytest.mark.parametrize("d,N", ORACLE_TORI)
def test_identity_report_matches_sparse_products(d, N):
    torus = build_torus(d, N)
    systems = [spinham.build_spin_hamiltonian(torus, J)
               for J in coupling_draws(d, 1000 + 10 * d + N)]
    for sys_ in systems:
        rep = spinham.verify_operator_identities(sys_)
        assert rep == ref_verify_operator_identities(sys_)
        assert not trips(rep)
    for name, bad in corrupted_systems(systems[0]).items():
        assert trips(spinham.verify_operator_identities(bad)), name
        assert trips(ref_verify_operator_identities(bad)), name


def test_link_operator_spectrum_split():
    t = build_torus(2, 1)
    ops = spinham.link_operators(t)
    assert len(ops) == 3
    for u in ops:
        w = np.linalg.eigvalsh(u.to_dense())
        assert np.allclose(np.abs(w), 1.0, atol=1e-13)
        assert int(np.sum(w < 0)) == 8 and int(np.sum(w > 0)) == 8


def test_link_operators_commute_with_any_couplings():
    rng = np.random.default_rng(1)
    t = build_torus(3, 1)
    ops = [csr(u.to_matrix()) for u in spinham.link_operators(t)]
    for _ in range(5):
        sys_ = spinham.build_spin_hamiltonian(t, rng.uniform(-2, 2, size=4))
        H = csr(sys_.hamiltonian)
        for u in ops:
            comm = (H @ u - u @ H).tocsr()
            comm.eliminate_zeros()
            assert comm.nnz == 0


def test_adjacent_links_anticommute():
    """Link operators on edges sharing exactly one vertex anticommute."""
    t = build_torus(2, 2)
    ops = [csr(u.to_matrix()) for u in spinham.link_operators(t)]
    ends = [{frm, to} for frm, to, _ in edges(t)]
    for i, ei in enumerate(ends):
        for j in range(i + 1, len(ends)):
            shared = len(ei & ends[j])
            if shared == 1:
                x = ops[i] @ ops[j] + ops[j] @ ops[i]
            elif shared == 0:
                x = ops[i] @ ops[j] - ops[j] @ ops[i]
            else:
                continue
            x = x.tocsr()
            x.eliminate_zeros()
            assert x.nnz == 0


def test_parity_is_tensor_power():
    t = build_torus(2, 1)
    sys_ = spinham.build_spin_hamiltonian(t, J2)
    from kitaev_diamond.clifford import d_operator

    D = sparse.csr_matrix(d_operator(2).to_dense())
    want = sparse.kron(D, D).toarray()
    assert np.array_equal(sys_.parity.to_dense(), want)


def test_projector_cross_block_vanishes():
    """P+ H P- = 0 with the projectors formed from the parity operator."""
    for d, N in ((2, 1), (3, 1), (2, 2)):
        t = build_torus(d, N)
        sys_ = spinham.build_spin_hamiltonian(t, np.linspace(0.5, 2.0, d + 1))
        eye = sparse.identity(sys_.total_dim, dtype=complex, format="csr")
        P = csr(sys_.parity.to_matrix())
        plus = (eye + P) * 0.5
        minus = (eye - P) * 0.5
        cross = (plus @ csr(sys_.hamiltonian) @ minus).tocsr()
        cross.eliminate_zeros()
        assert cross.nnz == 0


def test_joint_plus_sector_on_one_cell_tori():
    """Joint (+1)-eigenspace of all link operators and parity, N=1.

    On a one-cell torus every edge joins the same two sites, so the link
    operators commute pairwise and the product of all of them factorizes
    slot by slot. For odd d that product is proportional to the parity
    itself: parity * prod(u_e) = (-1)^((d+1)/2) * I exactly, which empties
    the sector when d = 1 mod 4. Even d carries no such obstruction.
    """
    expected = {2: 1, 3: 1, 4: 1, 5: 0, 6: 1, 7: 1, 8: 1, 9: 0}
    for d, want in expected.items():
        sys_ = spinham.build_spin_hamiltonian(build_torus(d, 1), np.ones(d + 1))
        assert spinham.plus_sector_dimension(sys_) == want
        if d % 2 == 1:
            prod = csr(sys_.parity.to_matrix())
            for u in sys_.link_ops:
                prod = prod @ csr(u.to_matrix())
            lam = (-1) ** ((d + 1) // 2)
            resid = (prod - lam * sparse.identity(sys_.total_dim, format="csr")).tocsr()
            resid.eliminate_zeros()
            assert resid.nnz == 0


def dense_plus_sector_dimension(system):
    """Oracle: sequential dense kernel intersection of (op - Id) over the frame."""
    basis = np.eye(system.total_dim, dtype=complex)
    for op in (*system.link_ops, system.parity):
        if basis.shape[1] == 0:
            break
        residual = op.to_dense() @ basis - basis
        _, s, vh = np.linalg.svd(residual)
        tol = 1e-9 * max(1.0, s[0] if s.size else 0.0)
        null_mask = np.zeros(basis.shape[1], dtype=bool)
        null_mask[s.size :] = True
        null_mask[: s.size] = s < tol
        basis = basis @ vh.conj().T[:, null_mask]
        basis, _ = np.linalg.qr(basis)
    return basis.shape[1]


@pytest.mark.parametrize(
    "d,N,want",
    # every torus of dimension <= 1024.  N >= 2: adjacent links
    # anticommute; d = 1 mod 4 with N = 1: -Id lies in the generated group
    [(1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0), (1, 5, 0), (2, 1, 1), (3, 1, 1),
     (4, 1, 1), (5, 1, 0), (6, 1, 1), (7, 1, 1), (8, 1, 1), (9, 1, 0)],
)
def test_plus_sector_dimension_matches_dense_oracle(d, N, want):
    J = np.random.default_rng(10 * d + N).uniform(-2.0, 2.0, size=d + 1)
    sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), J)
    assert sys_.total_dim <= 1024
    got = spinham.plus_sector_dimension(sys_)
    assert got == dense_plus_sector_dimension(sys_) == want


@pytest.mark.parametrize(
    "d,N,want",
    [(10, 1, 1), (11, 1, 1), (12, 1, 1), (13, 1, 0), (14, 1, 1), (15, 1, 1),
     (2, 2, 0), (1, 6, 0), (1, 8, 0)],
)
def test_plus_sector_dimension_uncapped(d, N, want):
    """The GF(2) count needs no matrix, so tori up to 2^16 are counted too."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), np.ones(d + 1))
    assert sys_.total_dim > 1024
    assert spinham.plus_sector_dimension(sys_) == want


# nnz of H recorded from its scipy CSR build, for a seeded draw
# uniform(-2, 2) from default_rng(d) and for J = 1 (where terms cancel)
CSR_NNZ = {
    (2, 1): (32, 24),
    (3, 1): (32, 16),
    (4, 1): (192, 128),
    (5, 1): (192, 96),
    (6, 1): (1024, 640),
    (7, 1): (1024, 512),
    (8, 1): (5120, 3072),
    (9, 1): (5120, 2560),
    (10, 1): (24576, 14336),
    (11, 1): (24576, 12288),
    (12, 1): (114688, 65536),
    (13, 1): (114688, 57344),
    (14, 1): (524288, 294912),
    (15, 1): (524288, 262144),
    (2, 2): (565248, 565248),
    (1, 3): (384, 384),
}


def test_hamiltonian_nnz_matches_the_csr_count():
    for (d, N), (nnz_draw, nnz_ones) in CSR_NNZ.items():
        torus = build_torus(d, N)
        draw = np.random.default_rng(d).uniform(-2, 2, d + 1)
        for J, want in ((draw, nnz_draw), (np.ones(d + 1), nnz_ones)):
            H = spinham.build_spin_hamiltonian(torus, J).hamiltonian
            assert H.nnz == csr(H).nnz == want, (d, N)


def test_hamiltonian_follows_the_fields():
    """H is expanded from the system's current couplings and term strings."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(2, 1), J2)
    H = sys_.hamiltonian
    doubled = dataclasses.replace(sys_, couplings=2 * sys_.couplings).hamiltonian
    assert np.array_equal(doubled.x, H.x)
    assert np.array_equal(doubled.values.view(np.uint64), (2 * H.values).view(np.uint64))
    assert not np.array_equal(odd_term_system(sys_).hamiltonian.toarray(), H.toarray())


def test_hamiltonian_term_count():
    # N=1: d+1 edges; every term is a two-site product, nnz per term = dim
    t = build_torus(4, 1)
    sys_ = spinham.build_spin_hamiltonian(t, np.ones(5))
    assert sys_.hamiltonian.nnz <= 5 * 64


def test_couplings_length_checked():
    t = build_torus(2, 1)
    with pytest.raises(ValueError):
        spinham.build_spin_hamiltonian(t, [1.0, 2.0])
    # the expansion takes one coupling per term string: at N = 2 the d + 1
    # label couplings are too few, and are refused, not expanded from the
    # first d + 1 terms; so is one coupling too many
    for d in (1, 2):
        sys_ = spinham.build_spin_hamiltonian(build_torus(d, 2), np.ones(d + 1))
        for couplings in (np.ones(d + 1), np.ones(len(sys_.term_strings) + 1)):
            with pytest.raises(ValueError):
                dataclasses.replace(sys_, couplings=couplings).hamiltonian


@pytest.mark.parametrize("d,N", [(2, 2), (1, 4)])
def test_model_refuses_a_coupling_count_other_than_the_term_count(d, N):
    """The model takes one coupling per term string: the d + 1 label couplings
    and one coupling too many are refused when the system is made, not read
    as a model whose couplings are never indexed."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), np.ones(d + 1))
    E = len(sys_.term_strings)
    for couplings in (np.ones(d + 1), np.ones(E + 1)):
        with pytest.raises(ValueError, match=f"expected {E} couplings"):
            dataclasses.replace(sys_, couplings=couplings)
    rep = spinham.verify_operator_identities(dataclasses.replace(sys_, couplings=np.ones(E)))
    assert rep["max_residual"] == 0.0
    assert rep["links_exact_pm_one"] and rep["parity_diagonal_pm_one"]


def test_model_refuses_couplings_that_are_not_a_real_vector():
    """Complex couplings, whose H would not be Hermitian while the identity
    report passed, 2-d arrays, a Python list, and unsigned (which H's
    -couplings would wrap) or bool arrays are refused when the system is
    made; NaN and inf stay admitted, as the identity report saturates them."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(2, 1), J2)
    E = len(sys_.term_strings)
    complex_ = sys_.couplings.astype(complex)
    complex_[0] = 0.5j
    for couplings in (complex_, np.ones((E, 1)), np.ones((1, E)), [1.0] * E,
                      np.ones(E, dtype=np.uint8), np.ones(E, dtype=bool)):
        with pytest.raises(ValueError, match=f"expected {E} couplings"):
            dataclasses.replace(sys_, couplings=couplings)
    for couplings in (np.full(E, np.nan), np.full(E, np.inf), np.ones(E, dtype=np.int64)):
        assert dataclasses.replace(sys_, couplings=couplings).couplings is couplings


def test_model_refuses_link_operators_that_do_not_pair_with_its_terms():
    """A model holds one link per term string, at least one, each on the
    parity's qubits: no links, fewer links than terms, or no terms at all
    once passed the identity checks with "pass": true."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(2, 2), [1.0, 0.7, -0.4])
    for change in ({"link_ops": ()}, {"link_ops": sys_.link_ops[:1]},
                   {"term_strings": (), "couplings": np.zeros(0)}):
        with pytest.raises(ValueError, match="one link operator per term string"):
            dataclasses.replace(sys_, **change)
    u = sys_.link_ops[0]
    wide = clifford.PauliString(u.n + 1, u.x, u.z, u.phase)
    with pytest.raises(ValueError, match="qubit counts differ"):
        dataclasses.replace(sys_, link_ops=(wide, *sys_.link_ops[1:]))
    assert dataclasses.replace(sys_, link_ops=sys_.link_ops[::-1]).link_ops[0] is sys_.link_ops[-1]


@pytest.mark.parametrize("width", [2, 6])
def test_model_refuses_term_strings_of_another_width(width):
    """A term string on other qubits than the parity's is refused when the
    system is made: the same masks on 6 qubits once gave the 4-qubit (2, 1)
    system a 64 x 64 H and an all-pass identity report."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(2, 1), J2)
    t = sys_.term_strings[0]
    other = clifford.PauliString(width, t.x & (1 << width) - 1, t.z & (1 << width) - 1, t.phase)
    with pytest.raises(ValueError, match="qubit counts differ"):
        dataclasses.replace(sys_, term_strings=(other, *sys_.term_strings[1:]))
    assert sys_.parity.n == 4
    dataclasses.replace(sys_, term_strings=sys_.term_strings)  # 4 qubits are admitted


@pytest.mark.parametrize("d,N", [(1, 3), (2, 2), (3, 2)])
def test_couplings_stored_one_per_term_string(d, N):
    """The system holds J_l once per edge, beside that edge's term string."""
    torus = build_torus(d, N)
    J = np.linspace(-1.0, 1.3, d + 1)
    sys_ = spinham.build_spin_hamiltonian(torus, J)
    assert len(sys_.couplings) == len(sys_.term_strings) == torus.label.size
    assert np.array_equal(sys_.couplings, J[torus.label - 1])


def test_integer_couplings_keep_their_sign_in_h():
    """H negates int64 couplings in float: in int64, -(-2^63) wraps to -2^63,
    which once gave an H 1.8e19 away from the float model's, without a warning."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(2, 1), [1, 1, 1])
    ints = dataclasses.replace(sys_, couplings=np.array([-2**63, 1, 1])).hamiltonian
    floats = dataclasses.replace(sys_, couplings=np.array([-2.0**63, 1.0, 1.0])).hamiltonian
    assert np.array_equal(ints.toarray().view(np.uint64), floats.toarray().view(np.uint64))


@pytest.mark.parametrize("d,N", [(1, 1), (3, 1), (2, 3), (1, 5)])
def test_both_models_put_the_same_couplings_on_the_edges(monkeypatch, d, N):
    """Per (frm, to) pair, the hopping form's entry is twice the sum of the
    spin model's couplings over that pair's edges, summed in edge order, and
    both builders refuse the same bad couplings with the same message, before
    the spin model's budget is checked.  The N = 1 tori have parallel edges."""
    torus = build_torus(d, N)
    J = np.random.default_rng(d * 10 + N).uniform(-2.0, 2.0, d + 1)
    A = spectrum.quadratic_form(torus, J)
    couplings = spinham.build_spin_hamiltonian(torus, J).couplings
    want = np.zeros_like(A)
    pairs = {}
    for frm, to, c in zip(torus.frm.tolist(), torus.to.tolist(), couplings.tolist()):
        pairs[frm, to] = pairs.get((frm, to), 0.0) + c
    for (frm, to), total in pairs.items():
        want[frm, to], want[to, frm] = 2.0 * total, -2.0 * total
    assert np.array_equal(A.view(np.uint64), want.view(np.uint64))
    assert (len(pairs) < torus.label.size) == (N == 1)
    monkeypatch.setattr(lattice, "ENTRY_BUDGET", 0)
    for bad, message in [(np.ones(d + 2), f"expected {d + 1} couplings for d={d}, got {d + 2}"),
                         (np.ones(d + 1) * 1j, "couplings must be real"),
                         (np.append(np.ones(d), np.nan), "couplings must be finite")]:
        for build in (spectrum.quadratic_form, spinham.build_spin_hamiltonian):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(torus, bad)


@pytest.mark.parametrize("d,N", [(1, 4), (2, 2), (3, 2)])
def test_links_commute_with_per_edge_couplings(d, N):
    """Bond disorder: a coupling of its own on every edge, negative ones and
    an exact zero among them, keeps every identity exact."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), np.ones(d + 1))
    E = len(sys_.term_strings)
    couplings = np.random.default_rng(10 * d + N).uniform(0.1, 2.0, E) * (-1.0) ** np.arange(E)
    couplings[2] = 0.0
    rep = spinham.verify_operator_identities(dataclasses.replace(sys_, couplings=couplings))
    assert rep["max_residual"] == 0.0
    assert rep["links_exact_pm_one"] and rep["parity_diagonal_pm_one"]


@pytest.mark.parametrize("d,N", [(2, 1), (1, 4)])
def test_zero_coupling_deletes_the_edge(d, N):
    """A zero coupling on edge e gives the bits of H without edge e: its term
    and its link, since a model holds one link per term."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), np.linspace(-1.0, 1.3, d + 1))
    for e in range(len(sys_.term_strings)):
        zeroed = sys_.couplings.copy()
        zeroed[e] = 0.0
        got = dataclasses.replace(sys_, couplings=zeroed).hamiltonian.toarray()
        without = dataclasses.replace(
            sys_, couplings=np.delete(sys_.couplings, e),
            term_strings=sys_.term_strings[:e] + sys_.term_strings[e + 1:],
            link_ops=sys_.link_ops[:e] + sys_.link_ops[e + 1:])
        want = without.hamiltonian.toarray()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), e


# -- the spin spectrum against the Majorana route on the smallest tori ------

def majorana_levels(torus, J):
    """Sorted union over every gauge u in {+-1}^E of the levels
    1/2 sum_k s_k sigma_k, s in {+-1}^(N^d), where sigma are the singular
    values of the N^d x N^d block C(u) that adds 2 J_l u_e at (s = 1 end,
    s = 0 end) of every edge e; parallel edges at N = 1 accumulate."""
    cells, E = torus.N**torus.d, torus.label.size
    gauges = 1.0 - 2.0 * (np.arange(2**E)[:, None] >> np.arange(E) & 1)
    C = np.zeros((2**E, cells, cells))
    np.add.at(C, (slice(None), torus.frm - cells, torus.to), 2.0 * J[torus.label - 1] * gauges)
    sigma = np.linalg.svd(C, compute_uv=False)
    signs = 1.0 - 2.0 * (np.arange(2**cells)[:, None] >> np.arange(cells) & 1)
    return np.sort((0.5 * sigma @ signs.T).ravel())


def spectral_deviation(system, J):
    """max |Majorana union - spin spectrum with each level repeated q times|,
    q = 2^(N^d) for odd d and 1 for even d, in units of sum |J|."""
    d, N = system.torus.d, system.torus.N
    q = 2 ** N**d if d % 2 else 1
    spin = np.repeat(np.linalg.eigvalsh(system.hamiltonian.toarray()), q)
    return np.abs(majorana_levels(system.torus, J) - spin).max() / np.abs(J).sum()


def swapped_term_system(sys_):
    """sys_ with term 0, on an edge of label l, replaced by sigma^l on its
    s = 1 end times sigma^((l mod (d+1)) + 1) on its s = 0 end."""
    torus = sys_.torus
    frm, to, label = edges(torus)[0]
    sigma, n = clifford.spin_ops(torus.d), 2 * torus.n_cells
    broken = on_site(sigma[label - 1], frm, n) * on_site(sigma[label % (torus.d + 1)], to, n)
    return dataclasses.replace(sys_, term_strings=(broken, *sys_.term_strings[1:]))


@pytest.mark.parametrize("d,N", [(1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1), (5, 1),
                                 (6, 1), (7, 1)])
def test_spin_spectrum_is_the_union_of_the_majorana_spectra_over_gauges(d, N):
    """The spin Hamiltonian's spectrum, each level repeated q times, is the
    union over all Z_2 gauges of the free-Majorana levels; a model with one
    term's second spin component swapped is told apart."""
    torus = build_torus(d, N)
    rng = np.random.default_rng(100 * d + N)
    for _ in range(2):
        J = rng.uniform(-2.0, 2.0, d + 1)
        sys_ = spinham.build_spin_hamiltonian(torus, J)
        assert spectral_deviation(sys_, J) <= 1e-12, J
        assert spectral_deviation(swapped_term_system(sys_), J) > 1e-3, J


# -- the memo of a torus's strings ------------------------------------------

MEMO_TORI = [(d, 1) for d in range(1, 16)] + [(1, 8), (2, 2), (3, 2)]


def strings_of(sys_):
    return sys_.term_strings, sys_.link_ops, sys_.parity


def cold_build(torus, J):
    """The model built with the memo of spin strings empty."""
    spinham._torus_strings.cache_clear()
    return spinham.build_spin_hamiltonian(torus, J)


@pytest.mark.parametrize("d,N", MEMO_TORI)
def test_warm_memo_gives_the_strings_of_a_cold_build(d, N):
    """A second torus of the same content hits the memo and shares the cold
    build's strings; only the couplings are its own."""
    J = np.linspace(-1.0, 1.3, d + 1)
    cold = cold_build(build_torus(d, N), J)
    hits = spinham._torus_strings.cache_info().hits
    warm = spinham.build_spin_hamiltonian(build_torus(d, N), 2 * J)
    assert spinham._torus_strings.cache_info().hits == hits + 1
    assert strings_of(warm) == strings_of(cold)
    assert all(w is c for w, c in zip(strings_of(warm), strings_of(cold)))
    assert np.array_equal(warm.couplings, 2 * cold.couplings)


def test_a_replaced_torus_gets_its_own_strings():
    """The key is the arrays' content with their dtype: a torus with one bond
    reversed (verify's --corrupt-sign torus) and one with int32 copies of the
    arrays each fill their own entry, with the strings of a cold build."""
    torus = build_torus(2, 2)
    frm, to = torus.frm.copy(), torus.to.copy()
    frm[0], to[0] = to[0], frm[0]
    narrow = {name: getattr(torus, name).astype(np.int32) for name in ("frm", "to", "label")}
    base = spinham.build_spin_hamiltonian(torus, J2)
    for other in (dataclasses.replace(torus, frm=frm, to=to),
                  dataclasses.replace(torus, **narrow)):
        misses = spinham._torus_strings.cache_info().misses
        got = spinham.build_spin_hamiltonian(other, J2)
        assert spinham._torus_strings.cache_info().misses == misses + 1
        assert got.torus is other
        assert strings_of(got) == strings_of(cold_build(other, J2))
        # a bond's two ends carry the same site string, so its direction is not seen
        assert strings_of(got) == strings_of(base)


def test_equal_tori_share_one_entry_of_the_memo(monkeypatch):
    """The memo is keyed by the torus itself, which equals every torus of its
    content: one built again, replaced, copied or unpickled hits the first
    build's entry and shares its strings, and a miss makes no second torus."""
    torus = build_torus(2, 2)
    cold = cold_build(torus, J2)
    info = spinham._torus_strings.cache_info()
    twins = [build_torus(2, 2), dataclasses.replace(torus), copy.deepcopy(torus),
             pickle.loads(pickle.dumps(torus)),
             lattice.DiamondTorus(2, 2, torus.frm.tolist(), torus.to.tolist(), torus.label.tolist())]
    for twin in twins:
        assert spinham._torus_strings(twin) is spinham._torus_strings(torus)
        got = spinham.build_spin_hamiltonian(twin, J2)
        assert got.torus is twin
        assert all(g is c for g, c in zip(strings_of(got), strings_of(cold)))
    after = spinham._torus_strings.cache_info()
    assert (after.hits, after.misses) == (info.hits + 3 * len(twins), info.misses)

    def no_torus(*args):
        raise AssertionError("the memo made a torus")

    monkeypatch.setattr(lattice.DiamondTorus, "__init__", no_torus)
    assert strings_of(cold_build(torus, J2)) == strings_of(cold)


def test_builders_are_plain_functions_over_a_bounded_memo():
    """The memo holds at most MEMO_SIZE tori, and a torus over the budget or
    with bad couplings is refused before the memo is reached."""
    assert all(inspect.isfunction(f) for f in (spinham.build_spin_hamiltonian,
                                               spinham.link_operators))
    memo = spinham._torus_strings
    for N in range(1, lattice.MEMO_SIZE + 5):
        spinham.build_spin_hamiltonian(build_torus(1, N), [1.0, -1.0])
    assert memo.cache_info().currsize <= memo.cache_info().maxsize == lattice.MEMO_SIZE
    info = memo.cache_info()
    for d, N in [(2048, 1), (2, 25), (3, 9)]:
        with pytest.raises(ValueError, match="over the budget"):
            spinham.build_spin_hamiltonian(build_torus(d, N), np.ones(d + 1))
    with pytest.raises(ValueError, match="couplings must be finite"):
        spinham.build_spin_hamiltonian(build_torus(2, 1), [1.0, np.nan, 1.0])
    assert memo.cache_info() == info


def test_a_cold_memo_calls_the_clifford_builders(monkeypatch):
    """A miss builds the site strings of Cl_{d+2} once; a hit, and
    link_operators on a warm memo, build none."""
    calls = []

    def counted(k, _f=clifford._site_strings):
        calls.append(k)
        return _f(k)

    monkeypatch.setattr(spinham, "_site_strings", counted)
    torus = build_torus(3, 1)
    cold_build(torus, np.ones(4))
    assert calls == [5]
    spinham.build_spin_hamiltonian(torus, np.ones(4))
    spinham.link_operators(build_torus(3, 1))
    assert calls == [5]


def test_link_operators_pass_the_model_gate_and_memo():
    """link_operators refuses the tori build_spin_hamiltonian refuses, and a
    torus whose site generators pass the budget, before the memo is reached;
    a torus whose d is no integer >= 1 is refused when it is made; on an
    admitted torus it returns the model's links."""
    info = spinham._torus_strings.cache_info()
    # (2, 32): 3,072 link strings of 4,096 qubits; (2890, 1): 2,891 of 2,892
    for d, N in [(2, 32), (3, 9), (2890, 1)]:
        with pytest.raises(ValueError, match="over the budget"):
            spinham.link_operators(build_torus(d, N))
    # a hand-made torus of 3 edges fits the spin budget at any d, but the
    # d + 2 site generators a miss would build pass it from d = 2895 on
    for d in (2895, 10**6):
        torus = dataclasses.replace(build_torus(2, 1), d=d)
        with pytest.raises(ValueError, match=f"generator count k={d + 2} is over the budget"):
            spinham.link_operators(torus)
        with pytest.raises(ValueError, match=f"generator count k={d + 2} is over the budget"):
            spinham.build_spin_hamiltonian(torus, np.ones(d + 1))
    assert spinham._torus_strings.cache_info() == info
    # d = 2.0 would key the memo like d = 2, whose strings it holds: no such torus is made
    warm = build_torus(2, 1)
    spinham.build_spin_hamiltonian(warm, J2)
    for bad, match in [(2.0, "must be an integer"), (0, "must be >= 1")]:
        with pytest.raises(ValueError, match=f"dimension {match}"):
            spinham.link_operators(dataclasses.replace(warm, d=bad))
    with pytest.raises(ValueError, match="dimension must be an integer"):
        spinham.build_spin_hamiltonian(dataclasses.replace(warm, d=2.0), J2)
    torus = build_torus(2, 2)
    links = spinham.link_operators(torus)
    assert links is spinham.build_spin_hamiltonian(torus, J2).link_ops
    assert spinham.link_operators(build_torus(2, 2)) is links


# -- the memo of the identity checks' coupling-free half -----------------------

FACT_TORI = [(d, 1) for d in range(1, 17)] + [(2, 2), (3, 2), (1, 8)]
# the last torus each d admits within the string budget, as in acceptance criterion 7
LARGEST_TORI = [(2047, 1), (1, 1024), (2, 24), (3, 8)]
TRIP_TORI = [(1, 2), (2, 1), (3, 1), (5, 1), (2, 2)]


def report_bits(rep):
    """The report with each value's type and each float's exact bits."""
    return {key: (type(v), v.hex() if isinstance(v, float) else v) for key, v in rep.items()}


def cold_report(system):
    """The identity report with the memo of the checks' string facts empty."""
    spinham._frame_facts.cache_clear()
    return spinham.verify_operator_identities(system)


def broken_systems(sys_):
    """Every broken model of this module built from sys_, by name."""
    c1 = on_site(clifford.majorana_rep(sys_.torus.d + 2)[0], 0, 2 * sys_.torus.n_cells)
    return {**corrupted_systems(sys_), "swapped term": swapped_term_system(sys_),
            "doubled generator": dataclasses.replace(
                sys_, term_strings=(c1, c1, *sys_.term_strings[2:]))}


@pytest.mark.parametrize("d,N", FACT_TORI + LARGEST_TORI)
def test_warm_identity_checks_report_the_bits_of_a_cold_check(d, N):
    """A second check of one model hits the memo and reports every bit a
    check with the memo cleared reports, on the largest admitted tori too."""
    J = np.random.default_rng(4200 + d + N).uniform(-2.0, 2.0, d + 1)
    system = spinham.build_spin_hamiltonian(build_torus(d, N), J)
    cold = cold_report(system)
    hits = spinham._frame_facts.cache_info().hits
    warm = spinham.verify_operator_identities(system)
    assert spinham._frame_facts.cache_info().hits == hits + 1
    assert report_bits(warm) == report_bits(cold)
    assert not trips(cold)


@pytest.mark.parametrize("d,N", TRIP_TORI)
def test_a_broken_model_checked_after_its_parent_reports_its_own_residuals(d, N):
    """A model with one string broken misses the memo its healthy parent just
    filled, and reports the bits a cold check gives, residuals and all; its
    parent still reports clean afterwards."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), np.linspace(-1.0, 1.3, d + 1))
    for name, bad in broken_systems(sys_).items():
        cold = cold_report(bad)
        assert not trips(cold_report(sys_))
        misses = spinham._frame_facts.cache_info().misses
        warm = spinham.verify_operator_identities(bad)
        assert spinham._frame_facts.cache_info().misses == misses + 1, name
        assert report_bits(warm) == report_bits(cold), name
        assert report_bits(spinham.verify_operator_identities(bad)) == report_bits(cold), name
        assert not trips(spinham.verify_operator_identities(sys_)), name
        assert trips(cold), name


def test_the_memo_misses_once_per_string_set():
    """One miss per distinct string set, healthy or broken, then a hit for a
    second coupling draw on the same torus, whose report is that of a cold
    check with those couplings; the memo keeps at most MEMO_SIZE sets."""
    rng = np.random.default_rng(4201)
    systems = []
    for d, N in TRIP_TORI:
        sys_ = spinham.build_spin_hamiltonian(build_torus(d, N), rng.uniform(-2.0, 2.0, d + 1))
        systems += [sys_, odd_term_system(sys_)]
    spinham._frame_facts.cache_clear()
    for misses, system in enumerate(systems, 1):
        spinham.verify_operator_identities(system)
        assert spinham._frame_facts.cache_info()[:2] == (0, misses)
    redrawn = [spinham.build_spin_hamiltonian(build_torus(d, N), rng.uniform(-2.0, 2.0, d + 1))
               for d, N in TRIP_TORI]
    redrawn += [dataclasses.replace(s, couplings=rng.uniform(-2.0, 2.0, s.couplings.size))
                for s in systems[1::2]]
    warm = []
    for hits, system in enumerate(redrawn, 1):
        warm.append(spinham.verify_operator_identities(system))
        assert spinham._frame_facts.cache_info()[:2] == (hits, len(systems))
    for system, rep in zip(redrawn, warm):
        assert report_bits(rep) == report_bits(cold_report(system))
    assert spinham._frame_facts.cache_info().maxsize == lattice.MEMO_SIZE
    for N in range(1, lattice.MEMO_SIZE + 5):
        spinham.verify_operator_identities(
            spinham.build_spin_hamiltonian(build_torus(1, N), [1.0, -1.0]))
    assert spinham._frame_facts.cache_info().currsize == lattice.MEMO_SIZE


def test_strings_held_in_lists_report_what_their_tuple_twin_does():
    """A model whose strings are lists reports the bits its tuple twin does,
    healthy or broken, whether the memo is cold or already holds the twin."""
    sys_ = spinham.build_spin_hamiltonian(build_torus(2, 2), J2)
    for m in (sys_, odd_term_system(sys_), corrupted_systems(sys_)["link sign"]):
        listed = dataclasses.replace(
            m, term_strings=list(m.term_strings), link_ops=list(m.link_ops))
        twin = report_bits(cold_report(m))
        assert report_bits(spinham.verify_operator_identities(listed)) == twin
        assert report_bits(cold_report(listed)) == twin
