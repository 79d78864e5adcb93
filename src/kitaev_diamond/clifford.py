"""Majorana representations of small Clifford algebras and derived spin operators.

The k generators c_1..c_k obey {c_i, c_j} = 2*delta_ij and are realised by
Jordan-Wigner strings on m = floor(k/2) qubits.  Every operator here is a
Pauli string i^p X^x Z^z, held as two integer bit masks and a phase power,
so products, commutation signs and the chirality sign are integer
arithmetic.  The builders `majorana_rep`, `spin_ops` and `d_operator`
return strings, the only form kept, check their size against ENTRY_BUDGET
and read their part of `_site_strings`, which builds a size's generators,
spin operators and parity D together; `spinham` keeps the strings it builds
from them in its memo of tori.  `_mask_matrix` alone expands a sum of strings,
one string included, to a `MaskMatrix`, refused first past ENTRY_BUDGET.
A string's every entry is one of 0, +-1, +-i, so all algebraic identities
below hold exactly in float arithmetic.  For odd k the last generator is
D = i^m c_1 ... c_{2m} itself, so the chirality condition i^m c_1 ...
c_{2m+1} = D D = +Id holds by construction, selecting one of the two
inequivalent irreducible representations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lattice import check_budget, check_size, grid_count

# i^p for p = 0..3, every vanishing part +0.0 (the literal -1j has real part -0.0)
_I_POWERS = np.array([complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)])


@dataclass(frozen=True, eq=False)
class MaskMatrix:
    """A sum of Pauli strings with distinct x masks, stored per mask.

    Row r holds values[r, k] in column r ^ x[k], so each mask owns one entry
    per row and distinct masks never share an entry.  `toarray` refuses a
    dense matrix whose dim^2 entries pass ENTRY_BUDGET.
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
        check_budget(self.shape[0] ** 2, f"dense matrix of order {self.shape[0]}")
        out = np.zeros(self.shape, dtype=self.values.dtype)
        rows = np.arange(self.shape[0])[:, None]
        out[rows, rows ^ self.x] = self.values
        return out


@dataclass(frozen=True, slots=True)
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
        phase = _product_phase(self.phase, self.z, other.x, other.phase)
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def is_hermitian(self) -> bool:
        # (X^x Z^z)^dagger = (-1)^popcount(x & z) X^x Z^z
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    def to_matrix(self) -> MaskMatrix:
        """One nonzero per row r: i^phase (-1)^popcount(c & z) in column c = r ^ x."""
        return _mask_matrix([self], [1.0], f"matrix of a {self.n}-qubit Pauli string")

    def to_dense(self) -> np.ndarray:
        return self.to_matrix().toarray()


def _mask_matrix(strings: Sequence[PauliString], coefficients, what: str) -> MaskMatrix:
    """sum_k coefficients[k] strings[k], one real coefficient per string and strings of one
    width n (ValueError otherwise), refused as `what` before any allocation when its 2^n rows
    times len(strings) pass ENTRY_BUDGET, never dropping a term.
    A string reaches column r ^ x in every row r, so one running sum per distinct x mask
    adds the strings in order from +0.0: it never holds -0.0 (x + y is -0.0 only for
    x = y = -0.0), and as every addend is finite it never meets inf - inf, so an entry
    past the float range is +-inf, never NaN."""
    n = _width(strings)
    check_budget(grid_count(2, n) * len(strings), what)
    slot = {x: k for k, x in enumerate(dict.fromkeys(s.x for s in strings))}
    values = np.zeros((1 << n, len(slot)), dtype=complex)  # row, x mask -> running sum
    with np.errstate(over="ignore"):
        for s, c in zip(strings, coefficients, strict=True):
            # popcount(r & z) mod 2 for every row r, one qubit (bit) at a time
            odd = np.zeros(1, dtype=bool)
            for q in range(n):
                odd = np.concatenate([odd, odd ^ bool(s.z >> q & 1)])
            # the parity is linear: popcount(c & z) = popcount(r & z) + popcount(x & z) mod 2
            p = s.phase + 2 * (s.x & s.z).bit_count()
            even_odd = _I_POWERS[[p % 4, (p + 2) % 4]] * c
            values[:, slot[s.x]] += even_odd[odd.view(np.uint8)]
    return MaskMatrix(np.array(list(slot), dtype=np.int64), values)


def _width(strings: Sequence[PauliString]) -> int:
    """The qubit count n of the strings, refused unless every string has it."""
    n = strings[0].n
    if any(s.n != n for s in strings):
        raise ValueError(f"qubit counts differ: {sorted({s.n for s in strings})}")
    return n


def _product_phase(phase: int, z: int, other_x: int, other_phase: int) -> int:
    """Phase power of (i^phase X^x Z^z)(i^other_phase X^other_x Z^other_z): moving
    X^other_x left through Z^z costs (-1)^popcount(z & other_x)."""
    return (phase + other_phase + 2 * (z & other_x).bit_count()) % 4


def _anticommuting(strings: Sequence[PauliString], s: PauliString) -> list[int]:
    """Indices of the strings whose symplectic product with s,
    popcount(x & s.z) + popcount(z & s.x), is odd: those that anticommute."""
    x, z = s.x, s.z
    return [k for k, t in enumerate(strings) if ((t.x & z) ^ (t.z & x)).bit_count() & 1]


def joint_plus_dimension(strings: Sequence[PauliString]) -> int:
    """Dimension of the joint (+1)-eigenspace of a nonempty set of Pauli strings.

    The space is empty when a string is not Hermitian (it squares to -Id),
    when two strings anticommute (v = u u' v = -u' u v = -v), or when some
    product of them is -Id.  Otherwise each of the r independent strings,
    counted by Gaussian elimination over GF(2) on (x, z, phase), halves it.
    """
    if not strings:
        raise ValueError("joint_plus_dimension needs at least one string")
    n = _width(strings)
    for i, a in enumerate(strings):
        if not a.is_hermitian() or _anticommuting(strings[i + 1 :], a):
            return 0
    pivots: dict[int, tuple[int, int, int]] = {}  # leading bit of (x, z) -> group element
    for x, z, p in ((s.x, s.z, s.phase) for s in strings):
        while x or z:
            lead = (x << n | z).bit_length()
            if lead not in pivots:
                pivots[lead] = x, z, p
                break
            px, pz, pp = pivots[lead]
            x, z, p = x ^ px, z ^ pz, _product_phase(p, z, px, pp)
        else:
            if p != 0:
                return 0
    return 1 << (n - len(pivots))


def _generator_count(k) -> int:
    """k as an int, refused unless k >= 1 and k strings of k//2 qubits fit the budget."""
    k = check_size(k, 1, "generator count")
    check_budget(k * (k // 2), f"generator count k={k}")
    return k


def majorana_rep(k: int) -> tuple[PauliString, ...]:
    """Jordan-Wigner generators of Cl_k as Pauli strings on floor(k/2) qubits.

    c_{2j-1} = Z^(j-1) X I^(m-j), c_{2j} = Z^(j-1) Y I^(m-j); for odd k the
    extra generator is the parity D = i^m c_1 ... c_{2m}, a Hermitian
    involution anticommuting with the other 2m, so the chirality product
    i^m c_1 ... c_{2m+1} = D D is +Id.  For k = 1 that is the 1x1 +Id.
    """
    return _site_strings(_generator_count(k))[0]


def d_operator(d: int) -> PauliString:
    """Sublattice-site parity operator on the Cl_{d+2} representation space.

    D = (-1)^m prod_i (1 - 2 a_i' a_i) with m = floor(d/2)+1 and the ladder
    operators a_i = (c_{2i-1} + i c_{2i})/2.  Each factor is -i c_{2i-1}
    c_{2i}, so D = i^m c_1 c_2 ... c_{2m}: a diagonal Hermitian involution
    whose +1 eigenspace has dimension 2^floor(d/2), half the representation.
    """
    return _site_strings(_generator_count(check_size(d, 1, "dimension") + 2))[2]


def spin_ops(d: int) -> tuple[PauliString, ...]:
    """Spin operators sigma^k = i c_k c_{d+2} for k = 1..d+1.

    Each is a Hermitian involution.  They commute with the parity operator D
    for even d and anticommute with it for odd d (the parity product then
    involves every pairwise generator except c_{d+2}); two-site products
    sigma (x) sigma always commute with D (x) D.
    """
    return _site_strings(_generator_count(check_size(d, 1, "dimension") + 2))[1]


def _site_strings(k: int) -> tuple[tuple[PauliString, ...], tuple[PauliString, ...], PauliString]:
    """The generators c_1..c_k, the spin operators i c_j c_k for j < k, and D."""
    m = k // 2
    c = []
    for j in range(1, m + 1):
        bit = 1 << (m - j)
        head = (1 << m) - (bit << 1)  # Z on qubits 1..j-1
        c.append(PauliString(m, x=bit, z=head))
        c.append(PauliString(m, x=bit, z=head | bit, phase=1))  # Y = i X Z
    parity = PauliString(m, phase=m % 4)
    for g in c:
        parity = parity * g
    if k % 2 == 1:
        c.append(parity)
    i = PauliString(m, phase=1)
    return tuple(c), tuple(i * g * c[-1] for g in c[:-1]), parity
