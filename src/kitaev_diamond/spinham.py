"""Exact many-body spin Hamiltonian on small diamond tori.

Vertex v of n carries a copy of the Cl_{d+2} representation space as tensor
factor v, the first most significant as in np.kron: a site string of width
qubits sits there shifted left by (n - 1 - v) * width bits.  The model
couples the two endpoints of every edge through the spin component matching
the edge label.  Every term, link operator and the parity is a Pauli string
on the joint register: a `clifford` site string times a slot mask of one bit
per tensor factor it covers (`_placed`), so a memo miss places each edge's
term and link from one two-bit mask in one pass over the edges, and the
parity from the mask of every factor.  The strings are the only stored form
of the model and depend on the torus alone, so `build_spin_hamiltonian` and
`link_operators` read them through one gate, `_strings`: it counts the model
from (d, N) and the torus's edges with `_strings_in_budget` (max(E, 1)
strings of `_qubits` qubits, then the d + 2 site generators, each within
ENTRY_BUDGET), which `cli` asks before it builds a torus, and then reads the
one memo of the MEMO_SIZE tori last used, `_torus_strings`, keyed by the
torus itself: an equal torus hits and skips the string build, and a refused
torus never reaches it; a torus checked its own d, N and edges when made.
H's matrix is expanded on request by `clifford`, which holds the one
string-to-matrix expansion and its budget, and `hamiltonian_fits` tells
whether it is admitted.
The strings' entries are 0, +-1, +-i, so every conserved-quantity identity
below holds exactly, not just to rounding.  The identities and the
joint +1 sector of the links and the parity (a GF(2) rank) are read off the
strings' masks and phases: no matrix is formed, and no string is built
unless a check fails.  The checks' coupling-free half (which terms anticommute
with the parity and each link, the involution residuals and the exactness
flags) depends on the strings alone, so it is kept in a second memo,
`_frame_facts`, keyed by the strings' content and bounded by MEMO_SIZE: a hit
is sound, and a model with one string changed misses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .clifford import (
    PauliString,
    _anticommuting,
    _generator_count,
    _mask_matrix,
    _site_strings,
    _width,
    joint_plus_dimension,
)
from .lattice import MEMO_SIZE, DiamondTorus, check_budget, check_size, grid_count
from .spectrum import FLOAT_MAX, _edge_couplings


@dataclass(frozen=True)
class SpinSystem:
    """Hamiltonian and its commuting frame on one torus, as Pauli strings.

    link_ops[k] is the involution attached to edge k of the torus (the entries k of its frm,
    to and label arrays); parity is the site-wise tensor power of the single-site parity
    operator.  H = -sum_k couplings[k] term_strings[k]: term_strings[k] is the spin product on
    edge k, on the parity's qubits, and couplings is a 1-d float or signed int array.
    Refused when made: couplings of another count or kind, no term strings, a link
    operator count other than the term count, or a term or link on other qubits
    than the parity's.
    """

    torus: DiamondTorus
    couplings: np.ndarray
    link_ops: tuple[PauliString, ...]
    parity: PauliString
    term_strings: tuple[PauliString, ...]

    def __post_init__(self):
        if not (isinstance(self.couplings, np.ndarray) and self.couplings.dtype.kind in "if"
                and self.couplings.shape == (len(self.term_strings),)):
            raise ValueError(f"expected {len(self.term_strings)} couplings in a 1-d real array")
        if not 0 < len(self.link_ops) == len(self.term_strings):
            raise ValueError(f"expected one link operator per term string, got "
                             f"{len(self.link_ops)} for {len(self.term_strings)}")
        _width((self.parity, *self.term_strings, *self.link_ops))

    @property
    def total_dim(self) -> int:
        return 1 << self.parity.n

    @property
    def hamiltonian(self):
        """H as a `clifford.MaskMatrix`, expanded on each access within ENTRY_BUDGET.
        The couplings are negated in float: in int64, -(-2^63) wraps to -2^63."""
        return _mask_matrix(self.term_strings, np.negative(self.couplings, dtype=float),
                            f"spin model on torus d={self.torus.d}, N={self.torus.N}")


def _placed(s: PauliString, slots: int, count: int, n: int) -> PauliString:
    """Site string s on the count distinct tensor factors of n whose lowest
    qubits are the set bits of slots, as one string: its masks copied to every
    factor by one multiplication and its phase counted once per factor (a Z on
    one factor never meets an X on another)."""
    return PauliString(n * s.n, s.x * slots, s.z * slots, s.phase * count % 4)


def _qubits(d: int, N: int) -> int:
    """Qubits of the joint register: d//2 + 1 on each of the 2 N^d sites."""
    return 2 * grid_count(N, d) * (d // 2 + 1)


def hamiltonian_fits(torus: DiamondTorus) -> bool:
    """Whether H's matrix on torus, 2^qubits rows times E edge columns, fits
    ENTRY_BUDGET: the count `SpinSystem.hamiltonian` is refused past."""
    return grid_count(2, _qubits(torus.d, torus.N)) * torus.label.size <= lattice.ENTRY_BUDGET


def _strings_in_budget(d: int, N: int, edges: int | None = None) -> None:
    """Refuse the spin model of the (d, N) torus, before anything is built, unless
    its E edge strings of `_qubits` qubits (at least one: a miss builds the parity)
    and then the d + 2 site generators fit ENTRY_BUDGET, read when called.  d and N
    are checked as `build_torus` checks them; E is edges, a hand-made torus's own
    count, if given, else the built torus's (d + 1) N^d, which makes the first bound the second."""
    d, N = check_size(d, 1, "dimension"), check_size(N, 1, "torus size")
    E = (d + 1) * grid_count(N, d) if edges is None else edges
    check_budget(max(E, 1) * _qubits(d, N), f"spin model on torus d={d}, N={N}")
    _generator_count(d + 2)


def link_operators(torus: DiamondTorus) -> tuple[PauliString, ...]:
    """Edge involutions u_e = c_l(s=1 end) c_l(s=0 end), one per edge.

    The two generators act on different tensor factors, so they commute and
    their plain product is already Hermitian with square one (the familiar
    i c c' normalisation applies to anticommuting pairs and would square to
    minus one here).  Each operator has eigenvalues +-1 of equal multiplicity
    and commutes with the Hamiltonian for any couplings: edges meeting at a
    vertex carry distinct labels, and distinct single-site generators always
    appear an even number of shared slots apart.  Refused, and read from the
    memo, as in `build_spin_hamiltonian`.
    """
    return _strings(torus)[1]


def build_spin_hamiltonian(torus: DiamondTorus, J) -> SpinSystem:
    """H = -sum_edges J_l sigma^l(s=1 end) sigma^l(s=0 end), densely exact.

    J holds the d + 1 label couplings, stored once per edge by `spectrum._edge_couplings`.
    Refuses tori whose E edge strings of 2 N^d (d//2 + 1) qubits pass ENTRY_BUDGET; the
    strings of an admitted torus are read from the memo of tori last used.
    """
    couplings = _edge_couplings(torus, J)
    terms, links, parity = _strings(torus)
    return SpinSystem(torus=torus, couplings=couplings, link_ops=links, parity=parity,
                      term_strings=terms)


def _strings(torus: DiamondTorus):
    """The torus's term strings, link operators and parity, refused before the
    memo is reached by `_strings_in_budget` with the torus's own edge count."""
    _strings_in_budget(torus.d, torus.N, torus.label.size)
    return _torus_strings(torus)


# The one memo of spin strings, keyed by the torus itself, which is equal to another
# torus of the same d, N and dtype and bytes of frm, to and label, and bounded by
# MEMO_SIZE entries.  It sees only tori `_strings` admits, so an entry's x and z masks
# take at most about 2 MiB and the full memo about 32 MiB; its values are frozen
# strings, safe to share.


@functools.lru_cache(maxsize=MEMO_SIZE)
def _torus_strings(torus: DiamondTorus):
    """The term strings, link operators and parity of every torus equal to this
    one, from one build of the Cl_{d+2} site strings."""
    n = 2 * torus.n_cells
    generators, spins, D = _site_strings(torus.d + 2)
    terms, links = [], []
    # Python ints: the masks pass 64 bits, so no numpy int may shift them
    for frm, to, label in zip(torus.frm.tolist(), torus.to.tolist(), torus.label.tolist()):
        slots = 1 << (n - 1 - frm) * D.n | 1 << (n - 1 - to) * D.n
        terms.append(_placed(spins[label - 1], slots, 2, n))
        links.append(_placed(generators[label - 1], slots, 2, n))
    # every factor's slot: the repunit (2^(n w) - 1) / (2^w - 1) in base 2^w, w = D.n
    return tuple(terms), tuple(links), _placed(D, ((1 << n * D.n) - 1) // ((1 << D.n) - 1), n, n)


def plus_sector_dimension(system: SpinSystem) -> int:
    """Dimension of the joint (+1)-eigenspace of every link operator and parity.

    Counted exactly on the Pauli strings by `joint_plus_dimension`, so no
    matrix is formed at any size.  On one-cell tori all link operators are
    parallel edges and commute pairwise, which makes the joint eigenspace
    meaningful; a nonzero answer exhibits the sector the free-fermion
    picture lives in.  On larger tori links sharing one vertex anticommute,
    so the joint sector is empty.
    """
    return joint_plus_dimension((*system.link_ops, system.parity))


def _saturate(norm: float, dim: int) -> float:
    """norm * sqrt(dim), or the float maximum where that overflows, is NaN or
    needs the root of a dim past the float range; a zero norm gives 0.0."""
    try:
        x = norm * math.sqrt(dim) if norm else 0.0
    except OverflowError:
        x = math.inf
    return x if x <= FLOAT_MAX else FLOAT_MAX


def _commutator_norm(terms, J, S: PauliString, anticommuting: int, dim: int) -> float:
    """||[H, S]||_F for H = -sum_k J[k] terms[k], given the bit mask of the k
    whose terms anticommute with S.

    [H, S] = -sum 2 J_k t_k S over those terms; distinct Pauli strings are
    trace-orthogonal, so the norm is sqrt(dim sum |coefficient|^2) once
    equal (x, z) products are combined, in increasing k.
    """
    coef: dict[tuple[int, int], complex] = {}
    while anticommuting:
        low = anticommuting & -anticommuting
        anticommuting ^= low
        k = low.bit_length() - 1
        p = terms[k] * S
        coef[p.x, p.z] = coef.get((p.x, p.z), 0) - 2 * float(J[k]) * 1j**p.phase
    return _saturate(math.hypot(*map(abs, coef.values())), dim) if coef else 0.0


def _involution_norm(S: PauliString, dim: int) -> float:
    """||S S - Id||_F.  S S = i^(2p + 2 popcount(x & z)) Id is +Id exactly
    when S is Hermitian and -Id otherwise, so the norm is 0 or 2 sqrt(dim)."""
    return _saturate(0.0 if S.is_hermitian() else 2.0, dim)


# The identity checks' coupling-free half for the MEMO_SIZE string sets last checked,
# keyed by content: the facts depend on the strings' widths, masks and phases alone, which
# the key compares, so a hit is sound and a model with one string changed is checked afresh;
# strings held in lists are keyed as tuples of the same frozen strings.
# A built model's key holds the strings `_torus_strings` holds, and an entry adds E + 1
# masks of E bits, under 1 MiB at E = 2,048, the most an admitted torus has.
@functools.lru_cache(maxsize=MEMO_SIZE)
def _frame_facts(terms, links, P: PauliString):
    """Bit masks of the terms anticommuting with P and with each link, then the
    involution residuals and exactness flags, as in the report."""
    dim = 1 << P.n
    masks = tuple(sum(1 << k for k in _anticommuting(terms, S)) for S in (P, *links))
    return masks, (
        _involution_norm(P, dim),
        max((_involution_norm(u, dim) for u in links), default=0.0),
        all(u.is_hermitian() and (u.x or u.z) for u in links),
        P.x == 0 and P.z != 0 and P.is_hermitian(),
    )


def verify_operator_identities(system: SpinSystem) -> dict:
    """Residuals of the conserved-quantity identities, plus exactness flags.

    Returns Frobenius norms of the commutators of H with the parity operator
    and every link operator, involution residuals, and exact checks that each
    link operator is Hermitian, traceless and squares to the identity --
    together these force eigenvalues exactly +-1 with equal multiplicity --
    and that the parity is diagonal, traceless (z != 0, so +-Id fails) and
    Hermitian, so its entries are +-1 in equal number.  `SpinSystem` has
    already put every link on the parity's qubits.

    Everything is read off the strings' masks and phases, all but the
    coupling sums from `_frame_facts`, keyed by the strings as tuples, and
    only anticommuting terms, none on a correct model, are multiplied out.
    A commutator that does not vanish is that of the exact sum, which
    the expanded H rounds.  Values beyond the float range saturate at its
    maximum, so the report never holds inf or NaN.
    """
    dim = system.total_dim
    terms, J = system.term_strings, system.couplings
    links, P = system.link_ops, system.parity
    masks, (parity_involution, link_involution, links_exact, parity_diagonal) = (
        _frame_facts(tuple(terms), tuple(links), P))
    residuals = {
        "commutator_parity": _commutator_norm(terms, J, P, masks[0], dim),
        "commutator_links_max": max((_commutator_norm(terms, J, u, m, dim)
                                     for u, m in zip(links, masks[1:]) if m), default=0.0),
        "parity_involution": parity_involution,
        "link_involution_max": link_involution,
    }
    residuals["max_residual"] = max(residuals.values())
    residuals["links_exact_pm_one"] = links_exact
    residuals["parity_diagonal_pm_one"] = parity_diagonal
    return residuals
