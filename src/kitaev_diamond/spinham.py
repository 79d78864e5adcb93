"""Exact many-body spin Hamiltonian on small diamond tori.

Each vertex carries a copy of the Cl_{d+2} representation space; the model
couples the two endpoints of every edge through the spin component matching
the edge label.  Every term, link operator and the parity are Pauli strings
on the joint register (a site's string shifted to its tensor slot), and each
sparse matrix is expanded straight from its string's bit masks: one nonzero
per row, in column row ^ x, with sign (-1)^popcount(column & z).  The
entries are 0, +-1, +-i, so every conserved-quantity identity below holds
exactly, not just to rounding.  The joint +1 sector of the links and the
parity is counted on the strings by a GF(2) rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .clifford import (
    PauliString,
    d_operator_string,
    joint_plus_dimension,
    majorana_strings,
    spin_strings,
)
from .lattice import DiamondTorus
from .spectrum import as_couplings

DEFAULT_DIM_CAP = 2**16


@dataclass(frozen=True)
class SpinSystem:
    """Hamiltonian and its commuting frame on one torus.

    link_ops[k] is the involution attached to torus.edges[k]; parity is the
    site-wise tensor power of the single-site parity operator.  The *_strings
    fields hold the Pauli strings the matrices were expanded from:
    term_strings[k] is the spin product on torus.edges[k], so
    H = -sum_k J_{label_k} term_strings[k].
    """

    torus: DiamondTorus
    couplings: np.ndarray
    site_dim: int
    total_dim: int
    hamiltonian: sparse.csr_matrix
    link_ops: tuple[sparse.csr_matrix, ...]
    parity: sparse.csr_matrix
    term_strings: tuple[PauliString, ...]
    link_strings: tuple[PauliString, ...]
    parity_string: PauliString


def _edge_strings(site_strings, torus: DiamondTorus) -> tuple[PauliString, ...]:
    """site_strings[label - 1] on both endpoints of every edge, in edge order."""
    n = len(torus.vertices)
    return tuple(
        site_strings[e.label - 1].on_site(e.frm, n)
        * site_strings[e.label - 1].on_site(e.to, n)
        for e in torus.edges
    )


def tensor_dims(torus: DiamondTorus, dim_cap: int = DEFAULT_DIM_CAP) -> tuple[int, int]:
    site_dim = 2 ** (torus.d // 2 + 1)
    n_sites = len(torus.vertices)
    total_dim = site_dim**n_sites
    if total_dim > dim_cap:
        raise ValueError(
            f"total dimension {site_dim}^{n_sites} exceeds the cap {dim_cap}"
        )
    return site_dim, total_dim


def link_operators(
    torus: DiamondTorus, dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[sparse.csr_matrix, ...]:
    """Edge involutions u_e = c_l(s=1 end) c_l(s=0 end), one per edge.

    The two generators act on different tensor factors, so they commute and
    their plain product is already Hermitian with square one (the familiar
    i c c' normalisation applies to anticommuting pairs and would square to
    minus one here).  Each operator has eigenvalues +-1 of equal multiplicity
    and commutes with the Hamiltonian for any couplings: edges meeting at a
    vertex carry distinct labels, and distinct single-site generators always
    appear an even number of shared slots apart.
    """
    tensor_dims(torus, dim_cap)
    links = _edge_strings(majorana_strings(torus.d + 2), torus)
    return tuple(u.to_csr() for u in links)


def build_spin_hamiltonian(
    torus: DiamondTorus, J, dim_cap: int = DEFAULT_DIM_CAP
) -> SpinSystem:
    """H = -sum_edges J_l sigma^l(s=1 end) sigma^l(s=0 end), densely exact.

    Refuses tori whose tensor-product dimension exceeds dim_cap.
    """
    J = as_couplings(J, d=torus.d)
    site_dim, total_dim = tensor_dims(torus, dim_cap)
    terms = _edge_strings(spin_strings(torus.d), torus)
    H = sparse.csr_matrix((total_dim, total_dim), dtype=complex)
    for e, term in zip(torus.edges, terms):
        H = H - J[e.label - 1] * term.to_csr()
    n_sites = len(torus.vertices)
    D_site = d_operator_string(torus.d)
    parity = PauliString(D_site.n * n_sites)
    for v in range(n_sites):
        parity = parity * D_site.on_site(v, n_sites)
    links = _edge_strings(majorana_strings(torus.d + 2), torus)
    return SpinSystem(
        torus=torus,
        couplings=J,
        site_dim=site_dim,
        total_dim=total_dim,
        hamiltonian=H.tocsr(),
        link_ops=tuple(u.to_csr() for u in links),
        parity=parity.to_csr(),
        term_strings=terms,
        link_strings=links,
        parity_string=parity,
    )


def plus_sector_dimension(system: SpinSystem, dim_cap: int = 1024) -> int:
    """Dimension of the joint (+1)-eigenspace of every link operator and parity.

    Counted exactly on the Pauli strings by `joint_plus_dimension`.  Still
    refuses systems above dim_cap.  On one-cell tori all link operators are
    parallel edges and commute pairwise, which makes the joint eigenspace
    meaningful; a nonzero answer exhibits the sector the free-fermion
    picture lives in.  On larger tori links sharing one vertex anticommute,
    so the joint sector is empty.
    """
    if system.total_dim > dim_cap:
        raise ValueError(
            f"joint sector intersection capped at {dim_cap},"
            f" system has {system.total_dim}"
        )
    return joint_plus_dimension((*system.link_strings, system.parity_string))


def _fro(X) -> float:
    """Frobenius norm of a sparse matrix: the 2-norm of its deduplicated data."""
    if not X.nnz:
        return 0.0
    X.sum_duplicates()
    return float(np.linalg.norm(X.data))


def verify_operator_identities(system: SpinSystem) -> dict:
    """Residuals of the conserved-quantity identities, plus exactness flags.

    Returns commutator norms of H with the parity operator and every link
    operator, involution residuals, and exact (bitwise) checks that each link
    operator is Hermitian, traceless and squares to the identity -- together
    these force eigenvalues exactly +-1 with equal multiplicity.
    """
    H = system.hamiltonian
    P = system.parity
    eye = sparse.identity(system.total_dim, dtype=complex, format="csr")
    comm_parity = _fro(H @ P - P @ H)
    comm_links = 0.0
    link_inv = 0.0
    exact_links = True
    for u in system.link_ops:
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
    )
    return residuals
