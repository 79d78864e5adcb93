"""Majorana representations of small Clifford algebras and derived spin operators.

The k generators c_1..c_k obey {c_i, c_j} = 2*delta_ij and are realised by
Jordan-Wigner strings on m = floor(k/2) qubits.  Every operator here is a
Pauli string i^p X^x Z^z, held as two integer bit masks and a phase power,
so products, commutation signs and the chirality sign are integer
arithmetic.  The builders `majorana_rep`, `spin_ops` and `d_operator`
return strings, the only form kept; a string's matrix is expanded from its
masks on request (`to_matrix`, `to_dense`).  Every entry is one of 0, +-1,
+-i, so all algebraic identities below hold exactly in float arithmetic.
For odd k the last generator is a full Z string whose sign is fixed by the
chirality condition i^m c_1 ... c_{2m+1} = +Id, selecting one of the two
inequivalent irreducible representations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lattice import check_size

# Highest generator count built; k = 17 is the largest a two-site torus within
# the spin model's entry budget ever needs (d = 15).
K_CAP = 18

# i^p for p = 0..3, every vanishing part +0.0 (the literal -1j has real part -0.0)
_I_POWERS = np.array([complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)])


@dataclass(frozen=True, eq=False)
class MaskMatrix:
    """A sum of Pauli strings with distinct x masks, stored per mask.

    Row r holds values[r, k] in column r ^ x[k], so each mask owns one entry
    per row and distinct masks never share an entry.
    """

    x: np.ndarray  # (m,) distinct x masks
    values: np.ndarray  # (dim, m) complex

    @property
    def shape(self) -> tuple[int, int]:
        return (self.values.shape[0],) * 2

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.values.dtype)
        rows = np.arange(self.shape[0])[:, None]
        out[rows, rows ^ self.x] = self.values
        return out


@dataclass(frozen=True)
class PauliString:
    """The operator i^phase X^x Z^z on n qubits.

    Bit n-1-q of a mask acts on qubit q, so the first tensor factor is the
    most significant bit of a basis index, as with np.kron.  On basis states
    X^x Z^z |j> = (-1)^popcount(j & z) |j ^ x>.
    """

    n: int
    x: int = 0
    z: int = 0
    phase: int = 0

    def __mul__(self, other: PauliString) -> PauliString:
        if other.n != self.n:
            raise ValueError(f"qubit counts differ: {self.n} and {other.n}")
        # moving X^x' left through Z^z costs (-1)^popcount(z & x')
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase % 4)

    def commutes(self, other: PauliString) -> bool:
        flips = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return flips % 2 == 0

    def is_hermitian(self) -> bool:
        # (X^x Z^z)^dagger = (-1)^popcount(x & z) X^x Z^z
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    def on_site(self, site: int, n_sites: int) -> PauliString:
        """This string on tensor factor `site` of n_sites equal factors."""
        shift = (n_sites - 1 - site) * self.n
        n = self.n * n_sites
        return PauliString(n, self.x << shift, self.z << shift, self.phase)

    def to_matrix(self) -> MaskMatrix:
        """One nonzero per row r: i^phase (-1)^popcount(c & z) in column c = r ^ x."""
        # popcount(r & z) mod 2 for every row r, one qubit (bit) at a time
        odd = np.zeros(1, dtype=bool)
        for q in range(self.n):
            odd = np.concatenate([odd, odd ^ bool(self.z >> q & 1)])
        # the parity is linear: popcount(c & z) = popcount(r & z) + popcount(x & z) mod 2
        p = self.phase + 2 * (self.x & self.z).bit_count()
        even_odd = _I_POWERS[[p % 4, (p + 2) % 4]]
        return MaskMatrix(np.array([self.x]), even_odd[odd.view(np.uint8), None])

    def to_dense(self) -> np.ndarray:
        return self.to_matrix().toarray()


def joint_plus_dimension(strings: Sequence[PauliString]) -> int:
    """Dimension of the joint (+1)-eigenspace of a nonempty set of Pauli strings.

    The space is empty when a string is not Hermitian (it squares to -Id),
    when two strings anticommute (v = u u' v = -u' u v = -v), or when some
    product of them is -Id.  Otherwise each of the r independent strings,
    counted by Gaussian elimination over GF(2) on (x, z), halves the space.
    """
    n = strings[0].n
    for i, a in enumerate(strings):
        if not a.is_hermitian() or not all(a.commutes(b) for b in strings[i + 1 :]):
            return 0
    pivots: dict[int, PauliString] = {}  # leading bit of (x, z) -> group element
    for s in strings:
        while s.x or s.z:
            lead = (s.x << n | s.z).bit_length()
            if lead not in pivots:
                pivots[lead] = s
                break
            s = s * pivots[lead]
        else:
            if s.phase != 0:
                return 0
    return 1 << (n - len(pivots))


def majorana_rep(k: int) -> tuple[PauliString, ...]:
    """Jordan-Wigner generators of Cl_k as Pauli strings on floor(k/2) qubits.

    c_{2j-1} = Z^(j-1) X I^(m-j), c_{2j} = Z^(j-1) Y I^(m-j); for odd k the
    extra generator is (+-) Z^m with the sign that makes the chirality
    product i^m c_1 ... c_{2m+1} equal +Id.  For k = 1 that is the 1x1 +Id.
    """
    if k < 1:
        raise ValueError(f"need at least one generator, got k={k}")
    if k > K_CAP:
        raise ValueError(f"k={k} exceeds the representation cap {K_CAP}")
    m = k // 2
    c = []
    for j in range(1, m + 1):
        bit = 1 << (m - j)
        head = (1 << m) - (bit << 1)  # Z on qubits 1..j-1
        c.append(PauliString(m, x=bit, z=head))
        c.append(PauliString(m, x=bit, z=head | bit, phase=1))  # Y = i X Z
    if k % 2 == 1:
        z_string = PauliString(m, z=(1 << m) - 1)
        chirality = PauliString(m, phase=m % 4)
        for g in (*c, z_string):
            chirality = chirality * g
        if chirality == PauliString(m, phase=2):
            z_string = PauliString(m, z=z_string.z, phase=2)
        elif chirality != PauliString(m):
            raise AssertionError("chirality product is not +-Id; broken construction")
        c.append(z_string)
    return tuple(c)


def d_operator(d: int) -> PauliString:
    """Sublattice-site parity operator on the Cl_{d+2} representation space.

    D = (-1)^m prod_i (1 - 2 a_i' a_i) with m = floor(d/2)+1 and the ladder
    operators a_i = (c_{2i-1} + i c_{2i})/2.  Each factor is -i c_{2i-1}
    c_{2i}, so D = i^m c_1 c_2 ... c_{2m}: a diagonal Hermitian involution
    whose +1 eigenspace has dimension 2^floor(d/2), half the representation.
    """
    c = majorana_rep(check_size(d, 1, "dimension") + 2)
    m = (d + 2) // 2
    out = PauliString(m, phase=m % 4)
    for g in c[: 2 * m]:
        out = out * g
    return out


def spin_ops(d: int) -> tuple[PauliString, ...]:
    """Spin operators sigma^k = i c_k c_{d+2} for k = 1..d+1.

    Each is a Hermitian involution.  They commute with the parity operator D
    for even d and anticommute with it for odd d (the parity product then
    involves every pairwise generator except c_{d+2}); two-site products
    sigma (x) sigma always commute with D (x) D.
    """
    c = majorana_rep(check_size(d, 1, "dimension") + 2)
    i = PauliString(c[0].n, phase=1)
    return tuple(i * g * c[d + 1] for g in c[: d + 1])
